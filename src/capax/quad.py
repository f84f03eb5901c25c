"""Exact elements of a real quadratic field Q(sqrt d): :class:`Quad`.

The shared scalar helpers of `capax.scalars` test int, Fraction and float
first and import this module only for other values, or for the sqrt:d
backend, so rational and float data never execute it.  Arithmetic between
a Quad and a float, or two Quads over different fields, raises
:class:`~capax.errors.MixedBackend`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache, total_ordering

from .errors import MixedBackend
from .scalars import _primitive_rational, bounded, format_scalar

_ZERO = Fraction(0)


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

    @classmethod
    def _of(cls, p: Fraction, q: Fraction, d: int) -> Quad:
        """A Quad from Fraction parts over a field already checked."""
        x = object.__new__(cls)
        x._p, x._q, x._d = p, q, d
        return x

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
    def rational(cls, x: int | Fraction, d: int) -> Quad:
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
            return self, Quad._of(Fraction(other), _ZERO, self._d)
        if isinstance(other, float):
            raise MixedBackend("cannot mix exact Q(sqrt d) scalars with floats")
        return None

    def __add__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Quad._of(a._p + b._p, a._q + b._q, a._d)

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Quad._of(a._p - b._p, a._q - b._q, a._d)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> Quad:
        return Quad._of(-self._p, -self._q, self._d)

    def __abs__(self) -> Quad:
        return -self if self.sign() < 0 else self

    def __mul__(self, other):
        if type(other) is int:
            return Quad._of(self._p * other, self._q * other, self._d)
        pair = self._align(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Quad._of(a._p * b._p + a._q * b._q * a._d, a._p * b._q + a._q * b._p, a._d)

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
        p, q = self._p, self._q
        if (p > 0) == (q > 0) or p == 0 or q == 0:
            return float(p) + float(q) * math.sqrt(self._d)
        # p and q of opposite sign cancel: route through the conjugate, whose
        # terms reinforce, via p + q*sqrt(d) = (p^2 - q^2 d)/(p - q*sqrt(d)).
        # p and q are scaled by 2^-e to their binade first, so that p^2 - q^2 d
        # does not underflow; a power of two commutes with rounding
        e = max(x.numerator.bit_length() - x.denominator.bit_length() for x in (p, q))
        p, q = p * Fraction(2) ** -e, q * Fraction(2) ** -e
        conj = float(p) - float(q) * math.sqrt(self._d)
        return math.ldexp(float(p * p - q * q * self._d) / conj, e)

    def __repr__(self) -> str:
        return f"Quad({self._p}, {self._q}, {self._d})"

    def __str__(self) -> str:
        return format_scalar(self)


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


_QUAD_RE = re.compile(
    r"^\s*(?P<p>[+-]?\d+(?:/\d+)?)?\s*"
    r"(?P<sq>(?P<sgn>[+-])?\s*(?P<r>\d+(?:/\d+)?)\s*\*\s*sqrt)?\s*$"
)


def parse_quad(s: str, field_d: int) -> Quad:
    """The Quad of a literal "p/q+r/s*sqrt" over Q(sqrt field_d)."""
    m = _QUAD_RE.match(s)
    if not m or m.group("sq") is None:
        raise ValueError(f"cannot parse quadratic scalar {s!r}")
    p = Fraction(m.group("p")) if m.group("p") else Fraction(0)
    r = Fraction(m.group("r"))
    if m.group("sgn") == "-":
        r = -r
    return Quad(bounded(p), bounded(r), field_d)
