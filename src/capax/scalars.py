"""Numeric backends for all real-valued quantities.

Three backends, one per kind of input data:

* exact rationals -- plain ``fractions.Fraction`` (and ``int``),
* exact elements of a real quadratic field Q(sqrt d) -- :class:`Quad`,
* floats with a tracked absolute tolerance -- :class:`Eps`.

Plain ints and Fractions are universal constants and coerce into any
backend.  Arithmetic between two *tagged* scalars of different backends
(two Quads over different fields, or a Quad and an Eps) raises
:class:`~capax.errors.MixedBackend`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache, total_ordering

import numpy as np

from .errors import DegenerateEdge, MixedBackend

RationalLike = int | Fraction


@lru_cache(maxsize=None)
def _is_squarefree(d: int) -> bool:
    if d < 2:
        return False
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 1
    return True


def quad_sign(p, q, d: int) -> int:
    """Exact sign of p + q*sqrt(d) for rational p, q and squarefree d."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return 1 if q > 0 else -1
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    # opposite signs: compare p^2 with q^2 d
    lhs, rhs = p * p, q * q * d
    if p > 0:  # q < 0
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return -1 if lhs > rhs else (1 if lhs < rhs else 0)


@total_ordering
class Quad:
    """p + q*sqrt(d) with p, q rational and d squarefree >= 2."""

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, p, q, d: int):
        if not _is_squarefree(d):
            raise ValueError(f"field discriminant must be squarefree >= 2, got {d}")
        self._p = Fraction(p)
        self._q = Fraction(q)
        self._d = d

    @property
    def p(self) -> Fraction:
        return self._p

    @property
    def q(self) -> Fraction:
        return self._q

    @property
    def d(self) -> int:
        return self._d

    @classmethod
    def rational(cls, x: RationalLike, d: int) -> Quad:
        return cls(Fraction(x), 0, d)

    @property
    def is_rational(self) -> bool:
        return self._q == 0

    def to_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self._p

    def _align(self, other):
        """(self', other') over a common field, or None for foreign types."""
        if isinstance(other, Quad):
            if other._d == self._d:
                return self, other
            if other._q == 0:
                return self, Quad(other._p, 0, self._d)
            if self._q == 0:
                return Quad(self._p, 0, other._d), other
            raise MixedBackend(f"cannot mix Q(sqrt {self._d}) with Q(sqrt {other._d})")
        if isinstance(other, (int, Fraction)):
            return self, Quad(other, 0, self._d)
        if isinstance(other, (float, Eps)):
            raise MixedBackend("cannot mix exact Q(sqrt d) scalars with floats")
        return None

    def __add__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Quad(a._p + b._p, a._q + b._q, a._d)

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Quad(a._p - b._p, a._q - b._q, a._d)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> Quad:
        return Quad(-self._p, -self._q, self._d)

    def __abs__(self) -> Quad:
        return -self if self.sign() < 0 else self

    def __mul__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Quad(
            a._p * b._p + a._q * b._q * a._d,
            a._p * b._q + a._q * b._p,
            a._d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        norm = b._p * b._p - b._q * b._q * a._d
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt d)")
        inv = Quad(b._p / norm, -b._q / norm, a._d)
        return a * inv

    def __rtruediv__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return b / a

    def sign(self) -> int:
        """Exact sign of p + q*sqrt(d)."""
        return quad_sign(self._p, self._q, self._d)

    def __eq__(self, other) -> bool:
        try:
            pair = self._align(other)
        except MixedBackend:
            return False
        if pair is None:
            return NotImplemented
        a, b = pair
        return a._p == b._p and a._q == b._q

    def __lt__(self, other) -> bool:
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return (a - b).sign() < 0

    def __hash__(self):
        if self._q == 0:
            return hash(self._p)
        return hash((self._p, self._q, self._d))

    def __bool__(self) -> bool:
        return self._p != 0 or self._q != 0

    def __float__(self) -> float:
        # p and q of opposite sign cancel: route through the conjugate,
        # whose terms reinforce, via p + q*sqrt(d) = (p^2 - q^2 d)/(p - q*sqrt(d))
        if (self._p > 0) == (self._q > 0) or self._p == 0 or self._q == 0:
            return float(self._p) + float(self._q) * math.sqrt(self._d)
        conj = float(self._p) - float(self._q) * math.sqrt(self._d)
        return float(self._p * self._p - self._q * self._q * self._d) / conj

    def __repr__(self) -> str:
        return f"Quad({self._p}, {self._q}, {self._d})"

    def __str__(self) -> str:
        return format_scalar(self)


class Eps:
    """A float carrying an absolute tolerance.

    Ordering comparisons use the raw value so sorting and heaps behave;
    ``==`` holds within the combined tolerance of the operands.
    """

    __slots__ = ("value", "eps")

    def __init__(self, value: float, eps: float = 0.0):
        self.value = float(value)
        self.eps = abs(float(eps))

    @staticmethod
    def _lift(x):
        if isinstance(x, Eps):
            return x
        if isinstance(x, (int, float, Fraction)):
            return Eps(float(x), 0.0)
        if isinstance(x, Quad):
            raise MixedBackend("cannot mix exact Q(sqrt d) scalars with floats")
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Eps(self.value + o.value, self.eps + o.eps)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Eps(self.value - o.value, self.eps + o.eps)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Eps(-self.value, self.eps)

    def __abs__(self):
        return Eps(abs(self.value), self.eps)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        e = abs(self.value) * o.eps + abs(o.value) * self.eps + self.eps * o.eps
        return Eps(self.value * o.value, e)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        v = self.value / o.value
        e = (self.eps + abs(v) * o.eps) / abs(o.value) if o.value else math.inf
        return Eps(v, e)

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __eq__(self, other) -> bool:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return abs(self.value - o.value) <= self.eps + o.eps

    def __lt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.value < o.value

    def __le__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.value <= o.value

    def __gt__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.value > o.value

    def __ge__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.value >= o.value

    __hash__ = None  # tolerance equality is not hash-compatible

    def __bool__(self) -> bool:
        return self.value != 0.0

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Eps({self.value!r}, {self.eps!r})"

    def __str__(self) -> str:
        return repr(self.value)


Scalar = Fraction | int | Quad | Eps | float


def sfloat(x) -> float:
    return float(x)


def seps(x) -> float:
    """Absolute tolerance carried by x (0 for exact backends)."""
    return x.eps if isinstance(x, Eps) else 0.0


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, Quad))


def backend_of(x) -> str:
    if isinstance(x, Quad):
        return f"sqrt:{x.d}"
    if isinstance(x, (Eps, float)):
        return "float"
    return "exact"


def rational_parts(x) -> tuple[Fraction, Fraction]:
    """Coordinates of x over (1, sqrt d); the second entry is 0 for rationals."""
    if isinstance(x, Quad):
        return x.p, x.q
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    raise TypeError(f"no exact coordinates for {type(x).__name__}")


def fraction_gcd(x: Fraction, y: Fraction) -> Fraction:
    """Positive generator of the group Zx + Zy inside Q."""
    x, y = abs(Fraction(x)), abs(Fraction(y))
    if x == 0:
        return y
    if y == 0:
        return x
    den = math.lcm(x.denominator, y.denominator)
    return Fraction(math.gcd(int(x * den), int(y * den)), den)


# slope-recognition bounds for the float backend (heuristic, see ledger)
_FLOAT_SLOPE_QMAX = 10_000
_FLOAT_SLOPE_RTOL = 1e-9


def primitive_direction(dx, dy):
    """Classify an edge vector (dx, dy).

    Returns ``(prim, length, rational)`` where ``prim`` is a primitive
    integer vector with (dx, dy) = length * prim and ``length`` the affine
    length, or ``(None, zero, False)`` when no positive real multiple of
    (dx, dy) is an integer vector.
    """
    if isinstance(dx, (Eps, float)) or isinstance(dy, (Eps, float)):
        return _primitive_float(Eps._lift(dx), Eps._lift(dy))
    if isinstance(dx, Quad) or isinstance(dy, Quad):
        return _primitive_quad(dx, dy)
    return _primitive_rational(Fraction(dx), Fraction(dy))


def _primitive_rational(dx: Fraction, dy: Fraction):
    if dx == 0 and dy == 0:
        raise DegenerateEdge("zero edge vector")
    g = fraction_gcd(dx, dy)
    prim = (int(dx / g), int(dy / g))
    return prim, g, True


def _primitive_quad(dx, dy):
    d = dx.d if isinstance(dx, Quad) else dy.d
    dx = dx if isinstance(dx, Quad) else Quad.rational(dx, d)
    dy = dy if isinstance(dy, Quad) else Quad.rational(dy, d)
    zero = Quad.rational(0, d)
    if dx.is_rational and dy.is_rational:
        prim, g, _ = _primitive_rational(dx.to_fraction(), dy.to_fraction())
        return prim, Quad.rational(g, d), True
    if not dx:
        prim = (0, 1 if dy.sign() > 0 else -1)
        return prim, abs(dy), True
    if not dy:
        prim = (1 if dx.sign() > 0 else -1, 0)
        return prim, abs(dx), True
    slope = dy / dx
    if not slope.is_rational:
        return None, zero, False
    s = slope.to_fraction()
    n, m = s.denominator, s.numerator  # direction (n, m), slope m/n
    t = dx / n
    if t.sign() < 0:
        n, m, t = -n, -m, -t
    return (n, m), t, True


def _primitive_float(dx: Eps, dy: Eps):
    tol = dx.eps + dy.eps + 1e-12 * (1 + abs(dx.value) + abs(dy.value))
    if abs(dx.value) <= tol and abs(dy.value) <= tol:
        raise DegenerateEdge(f"edge vector ({dx.value!r}, {dy.value!r}) is zero within "
                             f"the float tolerance {tol:.3g}")
    if abs(dx.value) <= tol:
        prim = (0, 1 if dy.value > 0 else -1)
        return prim, abs(dy), True
    if abs(dy.value) <= tol:
        prim = (1 if dx.value > 0 else -1, 0)
        return prim, abs(dx), True
    s = dy.value / dx.value
    cand = Fraction(s).limit_denominator(_FLOAT_SLOPE_QMAX)
    if abs(s - float(cand)) <= max(tol / abs(dx.value), _FLOAT_SLOPE_RTOL * (1 + abs(s))):
        n, m = cand.denominator, cand.numerator
        t = dx / n
        if t.value < 0:
            n, m, t = -n, -m, -t
        return (n, m), t, True
    return None, Eps(0.0, tol), False


_QUAD_RE = re.compile(
    r"^\s*(?P<p>[+-]?\d+(?:/\d+)?)?\s*"
    r"(?P<sq>(?P<sgn>[+-])?\s*(?P<r>\d+(?:/\d+)?)\s*\*\s*sqrt)?\s*$"
)


def parse_scalar(text, backend: str = "exact", field_d: int | None = None,
                 eps: float = 0.0):
    """Parse "p/q" or "p/q+r/s*sqrt" per the JSON conventions.

    In the float backend every number carries the tolerance `eps`, the
    JSON integers too."""
    if isinstance(text, (Quad, Eps)):
        return text
    if isinstance(text, (int, Fraction, float)):
        if backend == "float":
            return Eps(float(text), eps)
        if isinstance(text, float):
            raise MixedBackend(f"float literal {text!r} in {backend} backend")
        return text
    s = str(text).strip()
    if backend == "float":
        return Eps(float(Fraction(s)) if "/" in s else float(s), eps)
    if "sqrt" in s:
        if field_d is None:
            raise ValueError(f"scalar {s!r} needs a field_d")
        m = _QUAD_RE.match(s)
        if not m or m.group("sq") is None:
            raise ValueError(f"cannot parse quadratic scalar {s!r}")
        p = Fraction(m.group("p")) if m.group("p") else Fraction(0)
        r = Fraction(m.group("r"))
        if m.group("sgn") == "-":
            r = -r
        return Quad(p, r, field_d)
    val = Fraction(s)
    if field_d is not None:
        return Quad(val, 0, field_d)
    return val


def format_scalar(x) -> str:
    if isinstance(x, Quad):
        if x.q == 0:
            return str(x.p)
        head = f"{x.p}" if x.p else ""
        sgn = "-" if x.q < 0 else ("+" if head else "")
        return f"{head}{sgn}{abs(x.q)}*sqrt"
    if isinstance(x, Eps):
        return repr(x.value)
    if isinstance(x, float):
        return repr(float(x))  # collapse numpy scalars
    return str(Fraction(x))


def format_ratios(num: np.ndarray, den: int) -> list[str]:
    """str(Fraction(n, den)) for every n of an integer array, from one gcd
    pass over the ints."""
    if den == 1:
        return list(map(str, num.tolist()))
    if den >= 2**63:  # past int64: gcd on Python ints
        num = num.astype(object)
    g = np.gcd(num, den)
    return [f"{n}/{q}" if q != 1 else str(n)
            for n, q in zip((num // g).tolist(), (den // g).tolist())]
