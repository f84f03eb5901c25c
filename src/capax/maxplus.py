"""The vectorised kernels: max-plus ball tables and the convex infimum scan.

These are the only numpy code in capax.  `capacities` imports this module
only for a convex scan whose work passes `capacities._PY_SCAN_WORK`, or
for a union of balls whose staircase work passes
`capacities._PY_FOLD_WORK`, whatever the data kind: `_ball_table` serves
those scans and those unions.  Smaller ones run in Python
(`capacities._convex_scan_py`, `capacities._ball_list`), as do the closed
forms, the series and the output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .capacities import CapacitySeries, _ScanData, _quad_pairs, d_index, d_values
from .errors import PruningBoundExceeded
from .scalars import Quad, quad_sign


def _fold_ball_np(below: np.ndarray, w) -> np.ndarray:
    """Vectorized max-plus with one ball series over the whole table.

    Within each level set {j : d_j = t} the best split gives the ball the
    smallest index, because `below` is non-decreasing: one shifted slice
    per d-value."""
    S = len(below) - 1
    out = below.copy()
    t = 1
    while True:
        base = (t - 1) * (t + 2) // 2 + 1  # smallest index with d = t
        if base > S:
            return out
        cand = below[: S + 1 - base] + w * t
        np.maximum(out[base:], cand, out=out[base:])
        t += 1


# relative error bounds of the pair fold's float filter, each at least twice
# the first-order rounding error: float(Quad) is within 6*2^-53 of the weight
# and its product with t adds 2^-53 (_PAIR_REL, per unit of t); one rounded
# sum adds 2^-53 of its result (_SUM_REL)
_PAIR_REL = 2.0 ** -48
_SUM_REL = 2.0 ** -51


def _fold_ball_pairs(below: tuple, w: tuple, field: int) -> tuple:
    """_fold_ball_np on a Q(sqrt d) table held as arrays (P, Q, F, E).

    Entry j is (P_j + Q_j*sqrt d)/D exactly; F_j is a float within E_j of
    it.  A candidate wins where the floats separate it from the entry by
    more than both bounds and loses where they separate it the other way;
    the near-ties left are decided by the exact sign of dp + dq*sqrt d."""
    P, Q, F, E = below
    p, q, f = w
    e = _PAIR_REL * abs(f)
    out = tuple(a.copy() for a in below)
    S = len(P) - 1
    t = 1
    while True:
        base = (t - 1) * (t + 2) // 2 + 1  # smallest index with d = t
        if base > S:
            return out
        n = S + 1 - base
        oP, oQ, oF, oE = (a[base:] for a in out)
        cF = F[:n] + f * t
        cE = E[:n] + e * t + _SUM_REL * np.abs(cF)
        gap, tol = cF - oF, cE + oE
        take = gap > tol
        near = np.flatnonzero(np.abs(gap) <= tol)
        if near.size:
            dp = (P[near] + p * t - oP[near]).tolist()
            dq = (Q[near] + q * t - oQ[near]).tolist()
            take[near] = [quad_sign(a, b, field) > 0 for a, b in zip(dp, dq)]
        idx = np.flatnonzero(take)
        oP[idx] = P[idx] + p * t
        oQ[idx] = Q[idx] + q * t
        oF[idx] = cF[idx]
        oE[idx] = cE[idx]
        t += 1


def _pair_table(field: int, den: int, pairs: list, ds: np.ndarray) -> np.ndarray:
    """_ball_table of the weights that _quad_pairs returned, as Quads."""
    p, q, f = pairs[0]
    F = ds * f
    table = (ds * p, ds * q, F, ds * (_PAIR_REL * abs(f)) + _SUM_REL * np.abs(F))
    for w in pairs[1:]:
        table = _fold_ball_pairs(table, w, field)
    return np.array([Quad(Fraction(a, den), Fraction(b, den), field)
                     for a, b in zip(table[0].tolist(), table[1].tolist())], dtype=object)


def _dtype(xs: list, n_max: int, limit: int = 2**62):
    """The array dtype for sums of n_max multiples of the scaled data xs:
    int64 for ints while sum|x| * n_max stays below `limit`, float64 for
    floats, Python objects for anything else."""
    if all(isinstance(x, int) for x in xs) and sum(map(abs, xs)) * n_max < limit:
        return np.int64
    if all(isinstance(x, float) for x in xs):
        return float
    return object


def _ball_table(ws: list, ds) -> np.ndarray:
    """Max-plus union of the ball series w*d over the d-values `ds`.

    The array's dtype follows the data: int64 for scaled rationals while
    no entry can reach 2^62, float64 for floats, int64 pairs with a float
    filter for Q(sqrt d) under the same bound (entries come back as Quads),
    Python objects for larger data.  Every entry is at most sum(ws) * d_max."""
    ds = np.asarray(ds, dtype=np.int64)
    d_max = max(int(ds[-1]), 1)  # every weight itself must fit as well
    dtype = _dtype(ws, d_max)
    if dtype is object:
        quad = _quad_pairs(ws, d_max)
        if quad is not None:
            return _pair_table(*quad, ds)
    d = ds.astype(dtype)
    if not ws:
        return np.zeros_like(d)
    table = d * ws[0]
    for w in ws[1:]:
        table = _fold_ball_np(table, w)
    return table


def _convex_scan(data: _ScanData, K: int, s_ceiling: int = 200_000) -> CapacitySeries:
    """c_k = min_s c*d(k+s) - M(s) for k = 0..K, with the certified lower slack.

    For each k the scan ends at the first s at which a lower bound for
    every candidate beyond s clears the best candidate so far
    (`_ScanData.clears`).  Inside a level {s : d(k+s) = t} the candidate
    c*t - M(s) and its lower version cand - d(s)*tail do not increase with
    s, and the stopping test is monotone in s.  So one probe at the end of
    each level, plus a bisection of the level where the test first holds,
    give the values of the index-by-index scan.  Every k runs in lockstep:
    step j probes the next level of each row still active, and the rows
    that stop bisect together.

    The candidates' dtype follows the data: int64 for scaled rationals
    while every candidate and the denominator stay below 2^53, so that
    cand / den rounds as int / int does; float64 for floats; Python
    objects for Quads and larger data."""
    c, ws, den, e, unit, tail = data.c, data.ws, data.den, data.e, data.unit, data.tail
    dt = _dtype([c] + ws, d_index(K + s_ceiling), 2**53) if (den or 1) < 2**53 else object
    ops = (np.minimum, np.maximum, np.sqrt)

    def table(S):
        ds = np.array(d_values(S))
        return _ball_table(ws, ds).astype(dt, copy=False), ds

    def cand(t, s):
        return c * (t.astype(object) if dt is object else t) - M[s]

    def floats(x):  # the candidates x (over den) times 2^-e
        if dt is not object:
            return np.ldexp((x / den if den not in (None, 1) else x).astype(float), -e)
        if den is None:  # Quads
            return (x * unit if e else x).astype(float)
        return (x * unit.numerator / (den * unit.denominator)).astype(float)

    M, ds = table(64)
    k = np.arange(1, K + 1)
    t = np.array(d_values(K)[1:], dtype=np.int64)  # the level each row probes next
    t_star = data.t_star(k)
    s0 = np.zeros(K, np.int64)  # the test fails at every index of the level below s0
    best, has = np.full(K, c - c, dt), np.zeros(K, bool)  # has: best is a candidate
    fbest, best_lo = np.full(K, math.inf), np.full(K, math.inf)
    a = np.arange(K)  # the rows still scanning, in increasing k
    failed = None  # the smallest row that reached s_ceiling
    while a.size:
        end = min(len(M) - 1, s_ceiling)  # the last index probed for now
        s1 = t[a] * (t[a] + 3) // 2 - k[a]  # the level d(k+s) = t ends at s1
        p = np.minimum(s1, end)
        cp = cand(t[a], p)
        cf = floats(cp)
        stop = data.clears(k[a], t_star[a], p, cf, fbest[a], ops)
        i = np.flatnonzero(stop)
        if i.size:  # bisect the stopping levels together
            lo, hi = s0[a[i]], p[i]
            while (j := np.flatnonzero(lo < hi)).size:
                ij, mid = a[i[j]], (lo[j] + hi[j]) // 2
                ok = data.clears(k[ij], t_star[ij], mid, floats(cand(t[ij], mid)), fbest[ij], ops)
                hi[j] = np.where(ok, mid, hi[j])
                lo[j] = np.where(ok, lo[j], mid + 1)
            p[i] = lo
            cp[i] = cand(t[a[i]], lo)
            cf[i] = floats(cp[i])
        upd = ~has[a] | (cp < best[a])
        best[a[upd]], fbest[a[upd]], has[a] = cp[upd], cf[upd], True
        short = ~stop & (p < s1)  # the table ends inside the level: grow it
        x = cf - ds[p] * tail
        low = ~short & (x < best_lo[a])
        best_lo[a[low]] = x[low]
        s0[a] = np.where(short, p + 1, s1 + 1)
        t[a[~short]] += 1
        hit = ~stop & (p == s_ceiling)
        if hit.any():
            failed = a[hit][0]
        keep = ~stop & ~hit & (a < failed if failed is not None else True)
        if (short & keep).any():
            M, ds = table(2 * len(M))
        a = a[keep]
    if failed is not None:
        b = best[failed:failed + 1].tolist()[0]
        raise PruningBoundExceeded(f"no certificate after {s_ceiling} complement indices",
                                   best=b if den is None else Fraction(b, den))
    return CapacitySeries(
        method="decomposition",
        num=[c - c if den is None else 0] + best.tolist(),
        den=den, lower_slack=[0.0] + np.ldexp(fbest - best_lo, e).tolist())
