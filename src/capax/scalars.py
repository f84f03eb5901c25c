"""Numeric backends for all real-valued quantities.

Three backends, one per kind of input data:

* exact rationals -- plain ``fractions.Fraction`` (and ``int``),
* exact elements of a real quadratic field Q(sqrt d) -- :class:`Quad`,
* plain Python floats.

Plain ints and Fractions are universal constants and coerce into any
backend.  Arithmetic between a Quad and a float, or two Quads over
different fields, raises :class:`~capax.errors.MixedBackend`.  Float
data carry no tolerance of their own: the domain descriptor holds one
absolute tolerance per input coordinate, and validation applies it
where float input is compared.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import chain, compress, filterfalse, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add, ne, sub

from .errors import DegenerateEdge, InvalidSpec, MixedBackend

RationalLike = int | Fraction
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


def binade(x) -> int:
    """An e with 1 <= |x|*2^-e < 2, up to rounding, for a nonzero scalar:
    floats of x*2^-e are normal.  An exact x is scaled before it rounds."""
    e = 0
    while not 2.0 ** -1000 < (f := abs(float(x * Fraction(2) ** -e))):
        e -= 1000
    return e + math.frexp(f)[1] - 1


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, Quad))


def backend_of(x) -> str:
    if isinstance(x, Quad):
        return f"sqrt:{x.d}"
    if isinstance(x, float):
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


def primitive_direction(dx, dy, tol):
    """Classify an edge vector (dx, dy).

    Returns ``(prim, length, rational)`` where ``prim`` is a primitive
    integer vector with (dx, dy) = length * prim and ``length`` the affine
    length, or ``(None, zero, False)`` when no positive real multiple of
    (dx, dy) is an integer vector.  ``tol``, the summed absolute tolerance
    of dx and dy, is read for float data only.
    """
    if isinstance(dx, float) or isinstance(dy, float):
        return _primitive_float(dx, dy, tol)
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


def _primitive_float(dx: float, dy: float, tol: float):
    tol = tol + 1e-12 * (1 + abs(dx) + abs(dy))
    if abs(dx) <= tol and abs(dy) <= tol:
        raise DegenerateEdge(f"edge vector ({dx!r}, {dy!r}) is zero within "
                             f"the float tolerance {tol:.3g}")
    if abs(dx) <= tol:
        prim = (0, 1 if dy > 0 else -1)
        return prim, abs(dy), True
    if abs(dy) <= tol:
        prim = (1 if dx > 0 else -1, 0)
        return prim, abs(dx), True
    s = dy / dx
    cand = Fraction(s).limit_denominator(_FLOAT_SLOPE_QMAX)
    if abs(s - float(cand)) <= max(tol / abs(dx), _FLOAT_SLOPE_RTOL * (1 + abs(s))):
        n, m = cand.denominator, cand.numerator
        t = dx / n
        if t < 0:
            n, m, t = -n, -m, -t
        return (n, m), t, True
    return None, 0.0, False


_QUAD_RE = re.compile(
    r"^\s*(?P<p>[+-]?\d+(?:/\d+)?)?\s*"
    r"(?P<sq>(?P<sgn>[+-])?\s*(?P<r>\d+(?:/\d+)?)\s*\*\s*sqrt)?\s*$"
)


def parse_scalar(text, backend: str = "exact", field_d: int | None = None):
    """Parse "p/q" or "p/q+r/s*sqrt" per the JSON conventions.

    The float backend gives a float for every number, the JSON integers
    too.  A value out of range for `bounded` raises InvalidSpec."""
    if isinstance(text, Quad):
        return text
    if isinstance(text, (int, Fraction, float)):
        if backend == "float":
            return bounded(float(text))
        if isinstance(text, float):
            raise MixedBackend(f"float literal {text!r} in {backend} backend")
        return bounded(text)
    s = str(text).strip()
    if backend == "float":
        return bounded(float(Fraction(s)) if "/" in s else float(s))
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
        return Quad(bounded(p), bounded(r), field_d)
    val = bounded(Fraction(s))
    if field_d is not None:
        return Quad(val, 0, field_d)
    return val


MAX_MAGNITUDE = 2 ** 480  # a product of two input values is still a finite float


def bounded(x):
    """x, unless it is a non-finite float or an exact value with |x| >=
    MAX_MAGNITUDE: the float conversions downstream would overflow."""
    if not (math.isfinite(x) if isinstance(x, float) else abs(x) < MAX_MAGNITUDE):
        raise InvalidSpec("scalar out of range: exact values need |x| < 2^480, "
                          "floats must be finite")
    return x


def format_scalar(x) -> str:
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, Quad):
        if x.q == 0:
            return str(x.p)
        head = f"{x.p}" if x.p else ""
        sgn = "-" if x.q < 0 else ("+" if head else "")
        return f"{head}{sgn}{abs(x.q)}*sqrt"
    return str(Fraction(x))


def format_ratio(n: int, den: int) -> str:
    """str(Fraction(n, den)) for ints n and den >= 1."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


# ---------------------------------------------------------------------------
# streamed output
# ---------------------------------------------------------------------------

# entries per window of a Column: each window is formatted and written as one
# chunk, so output holds a few thousand entries' text at a time
CHUNK = 4096


class Column:
    """A long array written a window at a time, never held as text.

    `text` formats one entry, once per run of equal consecutive entries:
    capacity series are step functions, and the entries of one column share
    a type.  With `text` None they are written as repr(float(x)) (JSON
    numbers, which must be finite); any other column is written as JSON
    strings."""

    __slots__ = ("items", "text")

    def __init__(self, items, text=None):
        self.items = items
        self.text = text

    def csv_text(self, x) -> str:
        return repr(float(x)) if self.text is None else self.text(x)

    def json_text(self, x) -> str:
        return repr(float(x)) if self.text is None else encode_basestring_ascii(self.text(x))

    def check(self) -> None:
        """Raise json's ValueError for the first non-finite float entry."""
        if self.text is None and not math.isfinite(sum(map(float, self.items), 0.0)):
            bad = next(filterfalse(math.isfinite, map(float, self.items)), None)
            if bad is not None:  # else a finite sum that overflowed
                raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")

    def heads(self, starts: list, fmt):
        """fmt of the entry at each index of `starts`."""
        return map(fmt, map(self.items.__getitem__, starts))

    def json_chunks(self, indent: str):
        """The array at `indent` ("\n" and its enclosing level's spaces)."""
        items, sep = self.items, f",{indent}  "
        if not items:
            yield "[]"
            return
        for lo in range(0, len(items), CHUNK):
            hi = min(lo + CHUNK, len(items))
            starts = _starts([self], lo, hi)
            chunk = sep + sep.join(_spread(self.heads(starts, self.json_text), starts, hi))
            yield "[" + chunk[1:] if lo == 0 else chunk
        yield indent + "]"


def _starts(columns, lo: int, hi: int) -> list[int]:
    """The indices of [lo, hi) where a run of some column starts, in order."""
    cuts, parts = [lo], 0
    for c in columns:
        seg = c.items[lo:hi]
        cuts += compress(range(lo + 1, hi), map(ne, seg, islice(seg, 1, None)))
        parts += 1
        if (c.text is None or isinstance(seg[0], float)) and 0 in seg:
            # 0.0 and -0.0 are equal but print apart
            signs = list(map(math.copysign, repeat(1.0), seg))
            cuts += compress(range(lo + 1, hi), map(ne, signs, islice(signs, 1, None)))
            parts += 1
    return cuts if parts < 2 else sorted(set(cuts))


def _spread(texts, starts: list, hi: int):
    """Each text repeated over its run: the runs start at `starts` and the
    last one ends at hi."""
    lengths = map(sub, chain(islice(starts, 1, None), (hi,)), starts)
    return chain.from_iterable(map(repeat, texts, lengths))


def write_csv(write, head: str, ks, fields, tail: str = "") -> None:
    """`head`, then the row "k,f_1,...,f_m" + `tail` for each k of `ks`,
    CHUNK rows per `write`.  A field is a Column aligned with `ks` or one
    string for every row."""
    columns = [f for f in fields if isinstance(f, Column)]
    end = tail + "\n"
    write(head)
    for lo in range(0, len(ks), CHUNK):
        hi = min(lo + CHUNK, len(ks))
        kw = ks[lo:hi] if isinstance(ks, range) else list(map(int, ks[lo:hi]))
        starts = _starts(columns, lo, hi)
        heads = [repeat(f) if isinstance(f, str) else f.heads(starts, f.csv_text) for f in fields]
        rests = map(",".join, zip(repeat(""), *heads))  # ",f_1,...,f_m" once per run
        write(end.join(map(add, map(str, kw), _spread(rests, starts, hi))) + end)


# write_json's stand-in for a Column inside json.dumps.  Only a string equal
# to _MARK encodes to _MARK_JSON, and no capax document holds a NUL
_MARK = "\0capax.Column"
_MARK_JSON = json.dumps(_MARK)


def write_json(obj, write) -> None:
    """json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n",
    with each Column written as an array a window at a time.  json.dumps
    lays out the rest whole, a marker in each Column's place, so every
    check runs before the first write: a non-finite float raises json's
    ValueError, and a value JSON cannot hold its TypeError."""
    columns = []

    def mark(x):
        if not isinstance(x, Column):
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        x.check()
        columns.append(x)
        return _MARK

    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=mark)
    pieces = text.split(_MARK_JSON)
    for column, piece in zip(columns, pieces):
        write(piece)
        line = piece[piece.rfind("\n") + 1:]  # the marker's line up to the marker
        indent = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        for chunk in column.json_chunks(indent):
            write(chunk)
    write(pieces[-1] + "\n")
