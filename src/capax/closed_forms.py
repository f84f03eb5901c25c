"""Closed forms: the capacities of balls, ellipsoids, polydisks and squares.

These domains skip both routes of `capax.capacities`: a ball is c_k = a*d(k),
an ellipsoid the sorted values of a lattice, a polydisk a minimum over
pairs (m, n).  Rational data run on Python ints over their common
denominator; float and Q(sqrt d) data keep their own arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, repeat

from .errors import CapaxError
from .scalars import backend_of
from .capacities import CapacitySeries, _scaled, d_index, union_of_balls


def _in_float_range(top, form: str, K: int) -> None:
    """Refuse float data whose closed form leaves the float range: `top`
    is at least every value the form computes, in the form's own float
    operations.  Exact data never round, so they pass."""
    if isinstance(top, float) and not math.isfinite(top):
        raise CapaxError(f"{form}: capacities up to kmax {K} leave the float range")


def ball_capacities(a, K: int) -> CapacitySeries:
    """c_k(B(a)) = a*d with d minimal such that d(d+3)/2 >= k."""
    _in_float_range(a * d_index(K), f"ball({a})", K)
    s = union_of_balls([a], K, a - a)
    return CapacitySeries("ball_closed_form", s.num, s.den, source=f"ball({a})",
                          backend=backend_of(a))


def ellipsoid_capacities(a, b, K: int) -> CapacitySeries:
    """(k+1)-th smallest value of {a*m + b*n : m, n >= 0}, for k = 0..K.

    Every value up to a bound L is collected and sorted once.  The lattice
    points with a*m + b*n <= L number at least their triangle's area
    L^2/(2ab), and at least K+1 once L >= min(a, b)*K, so L starts at the
    smaller of sqrt(2ab(K+1)) and min(a, b)*K, and doubles while float
    rounding leaves fewer than K+1 values up to it.  A value is at least
    every value with one step fewer, so the values up to L are the
    smallest ones, with their multiplicities.  Rational legs run on Python
    ints over their common denominator, as ranges.  Float and Q(sqrt d)
    legs keep fixed step-by-step sums: column n is b added n times, then a
    added m times."""
    # c_K <= min(a, b)*K, L is at most twice that, and a column ends one
    # step of a past L; the factor 2 covers the rounding of the float sums
    _in_float_range(2 * (min(a, b) * K + max(a, b)), f"ellipsoid({a},{b})", K)
    den, (sa, sb) = _scaled([a, b])
    if den is not None:
        L = min(math.isqrt(2 * sa * sb * (K + 1)) + 1, min(sa, sb) * K)
    else:
        fa, fb = float(sa), float(sb)
        L = min(math.sqrt(2 * (K + 1)) * math.sqrt(fa) * math.sqrt(fb), min(fa, fb) * K)
        if not isinstance(sa, float):
            L = Fraction(L)  # Quads compare with it exactly
    while True:
        vals = _lattice_values(sa, sb, L)
        vals.sort()
        if len(vals) > K and vals[K] <= L:
            break
        L *= 2  # the float sums rounded past L
    del vals[K + 1:]
    return CapacitySeries(method="ellipsoid_closed_form", num=vals, den=den,
                          backend=backend_of(a), source=f"ellipsoid({a},{b})")


def _lattice_values(sa, sb, L) -> list:
    """Every sa*m + sb*n <= L (m, n >= 0), and for floats and Quads a few
    more past L."""
    if isinstance(sa, int):
        small, big = sorted((sa, sb))  # exact sums commute: fewer columns
        out = []
        for base in range(0, L + 1, big):
            out += range(base, L + 1, small)
        return out
    out = []
    base = sa - sa
    while base <= L:
        col = list(accumulate(repeat(sa, int(float(L - base) / float(sa)) + 1), initial=base))
        while col[-1] <= L:
            col.append(col[-1] + sa)
        out += col
        base += sb
    return out


def polydisk_capacities(w, h, K: int) -> CapacitySeries:
    """c_k = min{w*m + h*n : (m+1)(n+1) >= k+1}, for every k at once.

    The pair (m, n) serves every k up to (m+1)(n+1) - 1, so it is scored
    at that index, capped at K, and a suffix minimum gives c_k.  Every
    pair with (m+1)(n+1) <= K+1 is scored, and for each m the least n
    that reaches K: a larger n only adds to the same sum.  That is
    O(K log K) pairs.  Rational sides run on ints over their common
    denominator."""
    _in_float_range(w * K + h * K, f"polydisk({w},{h})", K)
    den, (ws, hs) = _scaled([w, h])
    zero = ws * 0
    best = [zero + hs * n for n in range(K + 1)]  # m = 0 scores n at index n
    for m in range(1, K + 1):
        wm, step = ws * m, m + 1
        top = -(-(K + 1) // step) - 1  # the least n with (m+1)(n+1) - 1 >= K
        for n in range(top):
            v = wm + hs * n
            if v < best[m + step * n]:
                best[m + step * n] = v
        v = wm + hs * top
        if v < best[K]:
            best[K] = v
    for k in range(K - 1, -1, -1):
        if best[k + 1] < best[k]:
            best[k] = best[k + 1]
    return CapacitySeries(method="polydisk_closed_form", num=best, den=den,
                          backend=backend_of(w), source=f"polydisk({w},{h})")


def square_capacities(s, K: int) -> CapacitySeries:
    """c_k([0,s]^2) = s * min{m+n : (m+1)(n+1) >= k+1}."""
    out = polydisk_capacities(s, s, K)
    out.source = f"square({s})"
    return out
