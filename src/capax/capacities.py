"""Capacity sequences: decomposition DP, nef enumeration, closed forms.

Two independent routes compute the same numbers:

* the decomposition route expresses a domain through its weight
  expansion as balls, combines them with max-plus convolution, and for
  convex domains evaluates the corner-complement infimum
  ``inf_{k2,k3} c_{k+k2+k3}(B(c)) - c_{k2} - c_{k3}`` with a certified
  stopping rule;
* the enumeration route minimizes D.A over nef integer classes with
  D.(D-K) >= 2k on a tower surface, by depth-first search with residual
  caps per boundary curve.

Exact backends flow through both routes unchanged, so agreement is
exact, which is what the oracle-equivalence tests assert.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import (
    BelowThreshold,
    CapaxError,
    CeilingExceeded,
    PruningBoundExceeded,
    SearchSpaceEmpty,
)
from .scalars import (Quad, backend_of, format_ratios, format_scalar, quad_sign,
                      rational_parts, sfloat)
from .domains import DomainDescriptor, validate
from .weights import TruncationLimits, WeightTree, concave_weights, convex_weights
from . import tower as tower_mod
from .tower import PicBasisSurface, Tower, _dot, k_plus_dot_A


def d_index(k: int) -> int:
    """Smallest d >= 0 with d(d+3)/2 >= k (the ball capacity multiplier)."""
    if k <= 0:
        return 0
    d = (math.isqrt(9 + 8 * k) - 3) // 2
    while d * (d + 3) < 2 * k:
        d += 1
    while d > 0 and (d - 1) * (d + 2) >= 2 * k:
        d -= 1
    return d


@dataclass
class CapacitySeries:
    """c_0..c_K with per-entry slack; values stay in the input backend.

    Rational values are one denominator `den` and a numerator array `num`
    (int64, or Python ints where int64 could overflow): c_k = num[k]/den.
    Quad and float values have `den` None and sit in `num` as a list."""

    method: str
    num: np.ndarray | list
    den: int | None = None
    lower_slack: list | None = None
    upper_slack: list | None = None
    source: str = ""
    backend: str = "exact"
    meta: dict = field(default_factory=dict)

    @property
    def kmax(self) -> int:
        return len(self.num) - 1

    @property
    def values(self) -> list:
        if self.den is None:
            return list(self.num)
        return [Fraction(n, self.den) for n in self.num.tolist()]

    def value(self, k: int):
        return self.num[k] if self.den is None else Fraction(int(self.num[k]), self.den)

    def lo(self, k: int) -> float:
        s = self.lower_slack[k] if self.lower_slack else 0.0
        return sfloat(self.value(k)) - sfloat(s)

    def hi(self, k: int) -> float:
        s = self.upper_slack[k] if self.upper_slack else 0.0
        return sfloat(self.value(k)) + sfloat(s)

    def float_values(self) -> np.ndarray:
        """c_k as correctly rounded floats: below 2^53 numerator and
        denominator are exact float64s and numpy's division rounds once, as
        Python's int / int does; larger entries take int / int."""
        if self.den is None:
            return np.array([sfloat(v) for v in self.num], dtype=float)
        if self.num.dtype != object and self.den < 2**53 and np.abs(self.num).max() < 2**53:
            return self.num / self.den
        return np.array([n / self.den for n in self.num.tolist()], dtype=float)

    def assert_nondecreasing(self):
        c = self.float_values()
        if c[0] != 0.0:
            raise AssertionError("series must start at c_0 = 0")
        down = np.flatnonzero(c[1:] < c[:-1] - 1e-12)
        if down.size:
            raise AssertionError(f"series decreases at k={down[0] + 1}")

    def _formatted(self) -> list[str]:
        if self.den is None:
            return [format_scalar(v) for v in self.num]
        return format_ratios(self.num, self.den)

    def to_json(self) -> dict:
        return {
            "schema": "capax.capacities.v1",
            "method": self.method,
            "backend": self.backend,
            "source": self.source,
            "kmax": self.kmax,
            "values": self._formatted(),
            "lower_slack": [sfloat(s) for s in self.lower_slack] if self.lower_slack else None,
            "upper_slack": [sfloat(s) for s in self.upper_slack] if self.upper_slack else None,
            "meta": self.meta,
        }

    def to_csv(self) -> str:
        lines = [f"# capax-csv v1 capacities method={self.method} source={self.source}",
                 "k,c_k,lower_slack,upper_slack,method"]
        for k, v in enumerate(self._formatted()):
            lo = sfloat(self.lower_slack[k]) if self.lower_slack else 0.0
            hi = sfloat(self.upper_slack[k]) if self.upper_slack else 0.0
            lines.append(f"{k},{v},{lo!r},{hi!r},{self.method}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def ball_capacities(a, K: int) -> CapacitySeries:
    """c_k(B(a)) = a*d with d minimal such that d(d+3)/2 >= k."""
    return replace(union_of_balls([a], K, a - a), method="ball_closed_form",
                   backend=backend_of(a), source=f"ball({a})")


def ellipsoid_capacities(a, b, K: int) -> CapacitySeries:
    """(k+1)-th smallest value of {a*m + b*n}, heap-merged without a grid.

    Rational legs run on Python ints over their common denominator; float
    legs keep the step-by-step sums v + a, which fix the float values."""
    den, (sa, sb) = _scaled([a, b])
    heap = [(sa - sa, 0, 0)]
    vals = []
    while len(vals) <= K:
        v, m, n = heapq.heappop(heap)
        vals.append(v)
        heapq.heappush(heap, (v + sa, m + 1, n))
        if m == 0:
            heapq.heappush(heap, (v + sb, m, n + 1))
    return CapacitySeries(method="ellipsoid_closed_form",
                          num=vals if den is None else np.array(vals, _dtype([sa, sb], K + 1)),
                          den=den, backend=backend_of(a), source=f"ellipsoid({a},{b})")


def polydisk_capacities(w, h, K: int) -> CapacitySeries:
    """c_k = min{w*m + h*n : (m+1)(n+1) >= k+1}, for every k at once.

    Some optimal pair has its smaller coordinate m with m*m <= 4(k+1), and
    n = ceil((k+1)/(m+1)) - 1 is the least partner of m, so one array pass
    per m scores both orientations on the rows it covers.  The dtype is
    _ball_table's: rational sides run on ints over their common
    denominator."""
    den, (ws, hs) = _scaled([w, h])
    dtype = _dtype([ws, hs], 2 * K + 2)  # every candidate has m + n <= 2K + 2
    need = np.arange(1, K + 2)
    best = None
    m = 0
    while m * m <= 4 * (K + 1):
        lo = max(0, -(-m * m // 4) - 1)  # the first row with m*m <= 4(k+1)
        nmin = ((need[lo:] + m) // (m + 1) - 1).astype(dtype)
        for c in (ws * m + hs * nmin, hs * m + ws * nmin):
            if best is None:
                best = c
            else:
                best[lo:] = np.where(c < best[lo:], c, best[lo:])
        m += 1
    return CapacitySeries(method="polydisk_closed_form",
                          num=best.tolist() if den is None else best, den=den,
                          backend=backend_of(w), source=f"polydisk({w},{h})")


def square_capacities(s, K: int) -> CapacitySeries:
    """c_k([0,s]^2) = s * min{m+n : (m+1)(n+1) >= k+1}."""
    out = polydisk_capacities(s, s, K)
    out.source = f"square({s})"
    return out


# ---------------------------------------------------------------------------
# max-plus convolution and the concave route
# ---------------------------------------------------------------------------

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


def _scaled(xs: list) -> tuple[int | None, list]:
    """Rational data as Python ints over their common denominator; floats
    and Quads come back as they are, with denominator None."""
    if all(isinstance(x, (int, Fraction)) for x in xs):
        den = math.lcm(*(Fraction(x).denominator for x in xs))
        return den, [int(x * den) for x in xs]
    return None, list(xs)


# relative error bounds of the pair fold's float filter, each at least twice
# the first-order rounding error: float(Quad) is within 6*2^-53 of the weight
# and its product with t adds 2^-53 (_PAIR_REL, per unit of t); one rounded
# sum adds 2^-53 of its result (_SUM_REL)
_PAIR_REL = 2.0 ** -48
_SUM_REL = 2.0 ** -51


def _quad_pairs(ws: list, d_max: int):
    """Weights over one field Q(sqrt d) as int pairs over a common
    denominator D, w = (p + q*sqrt d)/D, rationals lifted with q = 0.

    Returns (d, D, [(p, q, float(w))]), or None for other data or when an
    entry sum |p_i|*t_i + |q_i|*t_i (t_i <= d_max) could reach 2^62."""
    fields = {w.d for w in ws if isinstance(w, Quad)}
    if len(fields) != 1 or not all(isinstance(w, (int, Fraction, Quad)) for w in ws):
        return None
    parts = [rational_parts(w) for w in ws]
    den = math.lcm(*(x.denominator for pq in parts for x in pq))
    pairs = [(int(p * den), int(q * den), float(w)) for (p, q), w in zip(parts, ws)]
    if sum(abs(p) + abs(q) for p, q, _ in pairs) * d_max >= 2**62:
        return None
    return fields.pop(), den, pairs


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


def _ball_table(ws: list, ds: np.ndarray) -> np.ndarray:
    """Max-plus union of the ball series w*d over the d-values `ds`.

    The array's dtype follows the data: int64 for scaled rationals while
    no entry can reach 2^62, float64 for floats, int64 pairs with a float
    filter for Q(sqrt d) under the same bound (entries come back as Quads),
    Python objects for larger data.  Every entry is at most sum(ws) * d_max."""
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


def union_of_balls(weights: list, K: int, zero) -> CapacitySeries:
    """Max-plus union of ball series, one ball folded at a time."""
    if not weights:
        return CapacitySeries(method="decomposition", num=[zero] * (K + 1))
    den, ws = _scaled(weights)
    table = _ball_table(ws, d_values_np(np.arange(K + 1)))
    return CapacitySeries(method="decomposition", num=table.tolist() if den is None else table,
                          den=den)


def d_values_np(ks: np.ndarray) -> np.ndarray:
    """d_index over an array of indices, as int64."""
    k = ks.astype(np.int64)
    d = np.maximum(0, (np.sqrt(9.0 + 8.0 * k.astype(float)).astype(np.int64) - 3) // 2)
    for _ in range(3):
        d = np.where(d * (d + 3) < 2 * k, d + 1, d)
        d = np.where((d > 0) & ((d - 1) * (d + 2) >= 2 * k), d - 1, d)
    assert np.all(d * (d + 3) >= 2 * k)
    return d


def concave_capacity(d: DomainDescriptor, K: int,
                     limits: TruncationLimits | None = None,
                     tree: WeightTree | None = None) -> CapacitySeries:
    """Ball decomposition of a concave domain, with one-sided tail slack.

    Dropped balls only lower the values, so the computed series is a
    certified lower envelope; the tail bound feeds the upper slack.
    """
    t = tree if tree is not None else concave_weights(d, limits)
    weights = sorted(t.weight_multiset(), key=sfloat, reverse=True)
    zero = (t.head if t.head is not None else (weights[0] if weights else Fraction(0)))
    tail = sfloat(t.truncation.dropped_tail_sum)
    upper = (d_values_np(np.arange(K + 1)) * tail).tolist() if tail > 0 else None
    return replace(union_of_balls(weights, K, zero - zero),
                   upper_slack=upper, backend=t.backend, source=f"concave:{d.kind}",
                   meta={"dropped_tail_sum": tail})


# ---------------------------------------------------------------------------
# convex route: corner-complement infimum with certified pruning
# ---------------------------------------------------------------------------

def _convex_scan(tree: WeightTree, v: float, w: float, K: int,
                 s_ceiling: int = 200_000) -> CapacitySeries:
    """c_k = min_s c*d(k+s) - M(s) for k = 0..K, with the certified lower slack.

    v is the area between the domain and its circumscribed triangle, w
    the full weight sum including the dropped tail.

    For each k the scan ends at the first s at which a lower bound for
    every candidate beyond s clears the best candidate so far.  Inside a
    level {s : d(k+s) = t} the candidate c*t - M(s) and its lower version
    cand - d(s)*tail do not increase with s, and the stopping test is
    monotone in s.  So one probe at the end of each level, plus a
    bisection of the level where the test first holds, give the values of
    the index-by-index scan.  Every k runs in lockstep: step j probes the
    next level of each row still active, and the rows that stop bisect
    together.

    The candidates' dtype follows the data: int64 for scaled rationals
    while every candidate and the denominator stay below 2^53, so that
    cand / den rounds as int / int does; float64 for floats; Python
    objects for Quads and larger data."""
    weights = sorted(tree.weight_multiset(), key=sfloat, reverse=True)
    den, (c, *ws) = _scaled([tree.head] + weights)
    tail, c_f = sfloat(tree.truncation.dropped_tail_sum), sfloat(tree.head)
    dt = _dtype([c] + ws, d_index(K + s_ceiling), 2**53) if (den or 1) < 2**53 else object

    def table(S):
        ds = d_values_np(np.arange(S + 1))
        return _ball_table(ws, ds).astype(dt, copy=False), ds

    def cand(t, s):
        return c * (t.astype(object) if dt is object else t) - M[s]

    def floats(x):
        return (x / den if den not in (None, 1) else x).astype(float)

    # lb(u) = c_f*(sqrt(2(k+u)) - 1.5) - sqrt(4 v u) - w bounds every
    # candidate at index u and is smallest at t_star, so
    # lb(max(s+1, t_star)) bounds every candidate beyond s
    def clears(k, t_star, s, cand_f, fbest):
        b = np.where(cand_f < fbest, cand_f, fbest)
        u = np.where(s + 1 >= t_star, s + 1, t_star)
        floor = c_f * (np.sqrt(2 * (k + u)) - 1.5) - np.sqrt(4 * v * u) - w
        return floor >= b + 1e-9 * np.abs(b)  # b > 0 for every k >= 1

    M, ds = table(64)
    k = np.arange(1, K + 1)
    t = d_values_np(k)  # the level each row probes next
    t_star = 2 * v * k / max(c_f * c_f - 2 * v, 1e-300) if v > 0 else np.zeros(K)
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
        stop = clears(k[a], t_star[a], p, cf, fbest[a])
        i = np.flatnonzero(stop)
        if i.size:  # bisect the stopping levels together
            lo, hi = s0[a[i]], p[i]
            while (j := np.flatnonzero(lo < hi)).size:
                ij, mid = a[i[j]], (lo[j] + hi[j]) // 2
                ok = clears(k[ij], t_star[ij], mid, floats(cand(t[ij], mid)), fbest[ij])
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
        num=[tree.head - tree.head] + best.tolist() if den is None else np.append(0, best),
        den=den, lower_slack=[0.0] + (fbest - best_lo).tolist())


def convex_capacity(d: DomainDescriptor, K: int,
                    limits: TruncationLimits | None = None,
                    tree: WeightTree | None = None) -> CapacitySeries:
    """Capacities of a convex domain from its weight expansion."""
    t = tree if tree is not None else convex_weights(d, limits)
    ws, trunc = t.weight_multiset(), t.truncation
    # the full weight sum w and v = c^2/2 - area, the area between the domain
    # and its circumscribed triangle: by the expansion's length and area
    # identities, the weights and the dropped tail give both
    w = sfloat(sum(ws, t.head - t.head)) + sfloat(trunc.dropped_tail_sum)
    v = (sum((sfloat(x) ** 2 for x in ws), 0.0) + sfloat(trunc.dropped_tail_sq)) / 2.0
    return replace(_convex_scan(t, v, w, K), upper_slack=[0.0] * (K + 1),
                   backend=t.backend, source=f"convex:{d.kind}",
                   meta={"head": sfloat(t.head), "dropped_tail_sum": sfloat(trunc.dropped_tail_sum)})


# ---------------------------------------------------------------------------
# nef enumeration on a tower surface
# ---------------------------------------------------------------------------

def _simplex_max(c: list, rows: list, rhs: list):
    """max c.x subject to rows.x <= rhs and x >= 0, for integer rows and
    rhs >= 0, so the slack basis is feasible and there is no phase 1.

    The tableau stays exact: ints and Fractions in the constraint rows, the
    objective data's own exact type (Fractions or Quads) in the objective
    row, so the maximum is exact.  Bland's rule (the lowest entering index,
    ratio ties to the lowest basic index) keeps the degenerate rhs-0 rows
    from cycling."""
    m, n = len(rows), len(c)
    T = [list(r) + [int(i == j) for j in range(m)] + [b]
         for i, (r, b) in enumerate(zip(rows, rhs))]
    z = [-x for x in c] + [0] * (m + 1)  # reduced costs; z[-1] is the objective
    basis = list(range(n, n + m))
    while True:
        col = next((j for j in range(n + m) if z[j] < 0), None)
        if col is None:
            return z[-1]
        r = min((i for i in range(m) if T[i][col] > 0), default=None,
                key=lambda i: (Fraction(T[i][-1]) / T[i][col], basis[i]))
        if r is None:
            raise AssertionError("nef-floor LP is unbounded")
        p = T[r][col]
        row = T[r] = [Fraction(x) / p if x else 0 for x in T[r]] if p != 1 else T[r]
        nz = [j for j, x in enumerate(row) if x]
        for i in range(m):
            f = T[i][col]
            if i != r and f:
                Ti = T[i]
                for j in nz:
                    Ti[j] -= f * row[j]
        f = z[col]
        for j in nz:
            z[j] -= f * row[j]
        basis[r] = col


def _nef_floor(classes: list, a: list):
    """min{D.A : D nef, D.H = 1}, exactly; the enumeration's per-degree floor.

    D = H - sum m_i e_i is nef when every boundary curve C (padded class
    in `classes`) has D.C >= 0, i.e. sum_i -C_i m_i <= C_0 (an e-curve
    supplies, its owners consume), so the floor is a_0 - max sum a_i m_i
    for the objective data a = (A_0, -A_1, ..., -A_n)."""
    rows, rhs = [], []
    for cls in classes:
        if any(cls[1:]):
            rows.append([-x for x in cls[1:]])
            rhs.append(cls[0])
    return max(a[0] - _simplex_max(a[1:], rows, rhs), 0)


def dkn_upper_data(a2: float, minus_k_dot_a: float, f_value: float,
                   k_plus: float, k: int) -> float:
    """Abstract form of the degree bound: d_{k,n}*A^2 - K+.A from the raw
    pairings, for pseudo-polarised input given without a surface."""
    kappa = sfloat(minus_k_dot_a) / sfloat(a2)
    dkn = -kappa / 2 + math.sqrt(kappa * kappa / 4 + (2 * k + f_value) / sfloat(a2))
    return max(dkn, 0.0) * sfloat(a2) + sfloat(k_plus)


def _bound_pairings(s: PicBasisSurface) -> tuple:
    """A^2, -K.A, F and K+.A of a surface: the degree bound's k-free data."""
    minus_k = tuple(-x for x in s.K)
    return (sfloat(_dot(s.A, s.A)), sfloat(_dot(minus_k, s.A)), tower_mod.F_of_n(s),
            sfloat(k_plus_dot_A(s)))


class _EnumContext:
    """Static structure shared by every degree pass on one surface.

    The objective data a (the head A_0, then a_i = -A_i >= 0) are held
    once, exactly: rational and float data as ints over their common
    denominator `den` (a float enters as the dyadic rational it holds),
    Q(sqrt d) data as Quads with `den` None.  The search adds and compares
    these values only and divides once, at the end; `floor` is in D.A
    units."""

    def __init__(self, s: PicBasisSurface):
        self.n = n = s.n
        a = [s.A[0]] + [-(s.A[i]) for i in range(1, n + 1)]  # head, a_i >= 0
        a = [Fraction(x) if isinstance(x, float) else x for x in a]
        self.den, self.a = _scaled(a)
        self.pairings = _bound_pairings(s)
        # one pass over the boundary classes: each curve's degree, the two
        # owner curves (coefficient -1) and the e-curve (+1) of every blowup
        classes = [c.cls for c in s.curves]
        self.curve_gamma = [cls[0] for cls in classes]
        self.owners = [[] for _ in range(n + 1)]
        self.ecurve = [None] * (n + 1)
        curve_blowup = {}
        for ci, cls in enumerate(classes):
            for i in range(1, n + 1):
                if cls[i] == -1:
                    self.owners[i].append(ci)
                elif cls[i] == 1:
                    self.ecurve[i] = ci
                    curve_blowup[ci] = i
        for i in range(1, n + 1):
            if len(self.owners[i]) != 2:
                raise AssertionError(f"blowup {i} has {len(self.owners[i])} owner curves")
        self.floor = _nef_floor(classes, a)
        # the parent blowup index
        self.parent = [None] * (n + 1)
        for i in range(1, n + 1):
            js = [curve_blowup[ci] for ci in self.owners[i] if ci in curve_blowup]
            self.parent[i] = max(js) if js else None
        # per-unit yield of the optimal descendant chain from each node
        children = [[] for _ in range(n + 1)]
        for i in range(1, n + 1):
            if self.parent[i] is not None:
                children[self.parent[i]].append(i)
        self.psi = [0] * (n + 2)
        for i in range(n, 0, -1):
            self.psi[i] = self.a[i] + max((self.psi[c] for c in children[i]), default=0)
        # at position i, nodes >= i whose cap is set by current residuals
        self.entries_at = [[] for _ in range(n + 2)]
        for i in range(1, n + 2):
            self.entries_at[i] = [j for j in range(i, n + 1)
                                  if self.parent[j] is None or self.parent[j] < i]


_D_CEILING = 10_000  # the degree at which the enumeration gives up


def alg_capacity_enum(s: PicBasisSurface, k: int, ub=None,
                      ctx: _EnumContext | None = None):
    """Exact minimum of D.A over nef integer classes with D.(D-K) >= 2k.

    `ub`, if given, is an exact upper bound on it in D.A units; without
    one, the first leaf of the search, reached by greedy descent, sets the
    bound.  Float data give the exact value of the dyadic rationals they
    hold, a Fraction."""
    if k == 0:
        return Fraction(0) if isinstance(s.A[0], float) else s.A[0] - s.A[0]
    ctx = ctx or _EnumContext(s)
    if _dot(ctx.a, ctx.a) <= 0:  # A^2 times den^2
        raise SearchSpaceEmpty("polarisation is not big (A^2 <= 0)")
    den = ctx.den or 1
    floor = ctx.floor * den
    # objectives are ints over den (or Quads), so the floor of ub * den bounds them
    bound = None if ub is None else (ub if ctx.den is None else math.floor(ub * den))
    incumbent = None
    d = d_index(k)  # d(d+3) >= 2k from here on
    while bound is None or d * floor <= bound:
        if d > _D_CEILING:
            if incumbent is None:
                raise CeilingExceeded(f"degree search passed {_D_CEILING}")
            break
        found = _dfs_min(ctx, d, d * (d + 3) - 2 * k, bound)
        if found is not None:
            incumbent = bound = found
        d += 1
    if incumbent is None:
        # only a ub below the minimum lets the floor end the search here
        raise CeilingExceeded("no feasible divisor found below the ceiling")
    return incumbent if ctx.den is None else Fraction(incumbent, ctx.den)


def _dfs_min(ctx: _EnumContext, d: int, budget: int, bound):
    """Least objective at degree d, in ctx.a's units, among those at most
    `bound` (any, when bound is None); None if there is none."""
    n = ctx.n
    a, owners, ecurve, psi = ctx.a, ctx.owners, ctx.ecurve, ctx.psi
    residual = [d * g for g in ctx.curve_gamma]
    best, found = bound, None
    obj0 = d * a[0]

    def potential(i, mcap):
        # entry nodes own independent residual caps; each unit assigned in an
        # entry's subtree yields at most psi (its best descendant chain)
        pot = 0
        for j in ctx.entries_at[i]:
            cap = residual[owners[j][0]]
            r2 = residual[owners[j][1]]
            if r2 < cap:
                cap = r2
            if cap > mcap:
                cap = mcap
            if cap > 0:
                pot += cap * psi[j]
        return pot

    def rec(i, budget_left, sum_m, subtracted):
        nonlocal best, found
        if i > n:
            obj = obj0 - subtracted
            if best is None or obj <= best:
                best = found = obj
            return
        # (isqrt(4b + 1) - 1) // 2 is the largest m with m(m+1) <= b
        mcap_global = min(d, (math.isqrt(4 * budget_left + 1) - 1) // 2, 3 * d - sum_m)
        if best is not None and obj0 - subtracted - potential(i, mcap_global) > best:
            return
        cap = min(residual[owners[i][0]], residual[owners[i][1]], mcap_global)
        for mi in range(cap, -1, -1):
            residual[owners[i][0]] -= mi
            residual[owners[i][1]] -= mi
            residual[ecurve[i]] += mi
            rec(i + 1, budget_left - mi * (mi + 1), sum_m + mi, subtracted + mi * a[i])
            residual[owners[i][0]] += mi
            residual[owners[i][1]] += mi
            residual[ecurve[i]] -= mi

    rec(1, budget, 0, 0)
    return found


def alg_capacity_series(s: PicBasisSurface, kmax: int,
                        ctx: _EnumContext | None = None) -> list:
    """Exact capacities for k = 0..kmax on one enumeration context, walked
    down from kmax: c_{k-1} <= c_k, so the exact c_k bounds the next search."""
    ctx = ctx or _EnumContext(s)
    out = [None] * (kmax + 1)
    ub = None
    for k in range(kmax, -1, -1):
        out[k] = ub = alg_capacity_enum(s, k, ub=ub, ctx=ctx)
    return out


@dataclass
class TowerCapacityResult:
    value: object
    bracket: tuple[float, float]
    per_level: list | None = None


def _tower_result(tw: Tower, k: int, value, ctx: _EnumContext,
                  per_level: list | None = None) -> TowerCapacityResult:
    """The certified bracket (value - d_cap * tail_sum, value) of the tower
    limit from the final level's c_k: any deeper optimizer truncates to a
    feasible divisor at this level whose pairing with A grows by at most
    its degree cap times the dropped weight sum; `ctx` is the final level's."""
    v = sfloat(value)
    tail = sfloat(tw.tail_sum())
    slack = 0.0
    if tail != 0:
        floor = sfloat(ctx.floor)
        d_cap = (dkn_upper_data(*ctx.pairings, k) / floor) if floor > 0 else math.inf
        slack = d_cap * tail
    return TowerCapacityResult(value=value, bracket=(v - slack, v), per_level=per_level)


def tower_capacity(tw: Tower, k: int, all_levels: bool = False) -> TowerCapacityResult:
    """Capacity of the tower limit, evaluated on the realized levels.

    Exact complete trees stabilize exactly at the last level (further
    blowups carry weight zero and leave every pairing unchanged); with a
    truncated tail the result carries the certified bracket of
    `_tower_result`."""
    ctx = _EnumContext(tw.final)
    levels = tw.surfaces[:-1] if all_levels else []
    values = [alg_capacity_enum(surf, k) for surf in levels]
    values.append(alg_capacity_enum(tw.final, k, ctx=ctx))
    for i in range(1, len(values)):
        if values[i] > values[i - 1]:
            raise AssertionError("tower capacities must be non-increasing in n")
    return _tower_result(tw, k, values[-1], ctx, per_level=values if all_levels else None)


def tower_capacities(tw: Tower, kmax: int) -> list[TowerCapacityResult]:
    """tower_capacity for k = 0..kmax from one walk on the final level."""
    ctx = _EnumContext(tw.final)
    values = alg_capacity_series(tw.final, kmax, ctx)
    return [_tower_result(tw, k, v, ctx) for k, v in enumerate(values)]


# ---------------------------------------------------------------------------
# closed-form lower bound c_k^+ and its oracle
# ---------------------------------------------------------------------------

def c_plus(k_dot_a: float, a2: float, k2: float, k: int) -> float:
    """(1/2)K.A + sqrt((1/4)K^2 A^2 + 2 A^2 k), valid above the threshold
    k > ((K.A)^2/A^2 - K^2)/8."""
    threshold = (k_dot_a * k_dot_a / a2 - k2) / 8.0
    if not k > threshold:
        raise BelowThreshold(f"k = {k} is not above the threshold {threshold:.6g}")
    return 0.5 * k_dot_a + math.sqrt(0.25 * k2 * a2 + 2.0 * a2 * k)


def c_plus_reference(k_dot_a: float, a2: float, k2: float, k: int,
                     tol: float = 1e-12) -> float:
    """Independent evaluation: bisect the smallest a >= 0 with
    a(a+kappa) >= (2k - sum(delta_i^2 r_i)/4)/A^2, then return a*A^2."""
    kappa = -k_dot_a / a2
    sum_delta = k_dot_a * k_dot_a / a2 - k2  # orthogonal-part contribution of K
    rhs = (2.0 * k - sum_delta / 4.0) / a2
    if rhs <= 0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi * (hi + kappa) < rhs:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid * (mid + kappa) >= rhs:
            hi = mid
        else:
            lo = mid
        if hi - lo < tol * (1 + hi):
            break
    return hi * a2


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def _is_box(d: DomainDescriptor) -> tuple | None:
    if d.kind != "polygon" or d.orientation != "convex":
        return None
    profile = validate(d)
    if len(profile.chain) == 3:
        (x0, y0), (x1, y1), (x2, y2) = profile.chain
        if d.zero(x0) and d.equal(y1, y0) and d.equal(x1, x2) and d.zero(y2):
            return (x1, y0)  # width, height
    return None


def series_for_domain(d: DomainDescriptor, K: int,
                      limits: TruncationLimits | None = None) -> CapacitySeries:
    """Pick the natural route for the descriptor, after validating it."""
    if K < 0:
        raise CapaxError(f"kmax must be >= 0, got {K}")
    validate(d)
    if d.kind == "ellipsoid":
        if d.is_ball():
            return ball_capacities(d.a, K)
        return ellipsoid_capacities(d.a, d.b, K)
    if d.kind == "polygon":
        box = _is_box(d)
        if box is not None:
            return polydisk_capacities(box[0], box[1], K)
        if d.orientation == "convex":
            return convex_capacity(d, K, limits)
        return concave_capacity(d, K, limits)
    if d.kind == "weight_list":
        if d.head is not None:
            return convex_capacity(d, K, limits)
        return concave_capacity(d, K, limits)
    if d.kind == "curve":
        from .domains import inner_grid_polygon
        # coarse grid denominators keep the recursion tree small; the
        # Hausdorff bound flows into the per-entry slack
        poly, hb = inner_grid_polygon(d, M=max(16, min(48, K)))
        limits = limits or TruncationLimits(max_depth=512, eps=1e-9)
        series = convex_capacity(poly, K, limits)
        r = sfloat(d.params[-1])
        lam = hb / max(r - hb, 1e-9)
        base = series.upper_slack or [0.0] * (K + 1)
        series.upper_slack = (np.array(base) + lam * series.float_values()).tolist()
        series.source = f"curve:{d.curve}"
        series.backend = "float"
        return series
    raise ValueError(f"unknown domain kind {d.kind!r}")
