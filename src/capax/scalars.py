"""Numeric backends for all real-valued quantities.

Three backends, one per kind of input data:

* exact rationals -- plain ``fractions.Fraction`` (and ``int``),
* exact elements of a real quadratic field Q(sqrt d) --
  :class:`capax.quad.Quad`,
* plain Python floats.

Plain ints and Fractions are universal constants and coerce into any
backend.  The helpers here test int, Fraction and float first and import
`capax.quad` only for other values or the sqrt:d backend.  Float data
carry no tolerance of their own: the domain descriptor holds one
absolute tolerance per input coordinate, and validation applies it
where float input is compared.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain, compress, filterfalse, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import add, ne, sub

from .errors import DegenerateEdge, InvalidSpec, MixedBackend


def _is_quad(x) -> bool:
    """x is a Quad.  int, Fraction, float and str are tested first, so
    rational and float data never execute capax.quad."""
    if isinstance(x, (int, Fraction, float, str)):
        return False
    from .quad import Quad
    return isinstance(x, Quad)


def binade(x) -> int:
    """An e with 1 <= |x|*2^-e < 2, up to rounding, for a nonzero scalar:
    floats of x*2^-e are normal.  An exact x is scaled before it rounds."""
    e = 0
    while not 2.0 ** -1000 < (f := abs(float(x * Fraction(2) ** -e))):
        e -= 1000
    return e + math.frexp(f)[1] - 1


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) or _is_quad(x)


def backend_of(x) -> str:
    if isinstance(x, float):
        return "float"
    if _is_quad(x):
        return f"sqrt:{x.d}"
    return "exact"


def rational_parts(x) -> tuple[Fraction, Fraction]:
    """Coordinates of x over (1, sqrt d); the second entry is 0 for rationals."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    if _is_quad(x):
        return x.p, x.q
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
    if _is_quad(dx) or _is_quad(dy):
        from .quad import _primitive_quad
        return _primitive_quad(dx, dy)
    return _primitive_rational(Fraction(dx), Fraction(dy))


def _primitive_rational(dx: Fraction, dy: Fraction):
    if dx == 0 and dy == 0:
        raise DegenerateEdge("zero edge vector")
    g = fraction_gcd(dx, dy)
    prim = (int(dx / g), int(dy / g))
    return prim, g, True


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


def parse_scalar(text, backend: str = "exact", field_d: int | None = None):
    """Parse "p/q" or "p/q+r/s*sqrt" per the JSON conventions.

    The float backend gives a float for every number, the JSON integers
    too.  A value out of range for `bounded` raises InvalidSpec."""
    if isinstance(text, (int, Fraction, float)):
        if backend == "float":
            return bounded(float(text))
        if isinstance(text, float):
            raise MixedBackend(f"float literal {text!r} in {backend} backend")
        return bounded(text)
    if _is_quad(text):
        return text
    s = str(text).strip()
    if backend == "float":
        return bounded(float(Fraction(s)) if "/" in s else float(s))
    if "sqrt" in s:
        if field_d is None:
            raise ValueError(f"scalar {s!r} needs a field_d")
        from .quad import parse_quad
        return parse_quad(s, field_d)
    val = bounded(Fraction(s))
    if field_d is not None:
        from .quad import Quad
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
    if _is_quad(x):
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
