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
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    BelowThreshold,
    CapaxError,
    CeilingExceeded,
    NoStabilization,
    PruningBoundExceeded,
    SearchSpaceEmpty,
    TruncationTooCoarse,
)
from .scalars import Eps, Quad, format_scalar, parse_scalar, quad_sign, rational_parts, sfloat
from .domains import DomainDescriptor, area, validate
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
    """c_0..c_K with per-entry slack; values stay in the input backend."""

    method: str
    values: list
    lower_slack: list | None = None
    upper_slack: list | None = None
    source: str = ""
    backend: str = "exact"
    meta: dict = field(default_factory=dict)

    @property
    def kmax(self) -> int:
        return len(self.values) - 1

    def value(self, k: int):
        return self.values[k]

    def lo(self, k: int) -> float:
        s = self.lower_slack[k] if self.lower_slack else 0.0
        return sfloat(self.values[k]) - sfloat(s)

    def hi(self, k: int) -> float:
        s = self.upper_slack[k] if self.upper_slack else 0.0
        return sfloat(self.values[k]) + sfloat(s)

    def float_values(self) -> np.ndarray:
        return np.array([sfloat(v) for v in self.values], dtype=float)

    def assert_nondecreasing(self):
        if sfloat(self.values[0]) != 0.0:
            raise AssertionError("series must start at c_0 = 0")
        for k in range(1, len(self.values)):
            if sfloat(self.values[k]) < sfloat(self.values[k - 1]) - 1e-12:
                raise AssertionError(f"series decreases at k={k}")

    def to_json(self) -> dict:
        return {
            "schema": "capax.capacities.v1",
            "method": self.method,
            "backend": self.backend,
            "source": self.source,
            "kmax": self.kmax,
            "values": [format_scalar(v) for v in self.values],
            "lower_slack": [sfloat(s) for s in self.lower_slack] if self.lower_slack else None,
            "upper_slack": [sfloat(s) for s in self.upper_slack] if self.upper_slack else None,
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CapacitySeries":
        field_d = None
        backend = obj.get("backend", "exact")
        if backend.startswith("sqrt:"):
            field_d = int(backend.split(":")[1])
        base = "float" if backend == "float" else "exact"
        values = [parse_scalar(v, base, field_d) for v in obj["values"]]
        return cls(method=obj["method"], values=values,
                   lower_slack=obj.get("lower_slack"),
                   upper_slack=obj.get("upper_slack"),
                   source=obj.get("source", ""), backend=backend,
                   meta=obj.get("meta", {}))

    def to_csv(self) -> str:
        lines = [f"# capax-csv v1 capacities method={self.method} source={self.source}",
                 "k,c_k,lower_slack,upper_slack,method"]
        for k, v in enumerate(self.values):
            lo = sfloat(self.lower_slack[k]) if self.lower_slack else 0.0
            hi = sfloat(self.upper_slack[k]) if self.upper_slack else 0.0
            lines.append(f"{k},{format_scalar(v)},{lo!r},{hi!r},{self.method}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def ball_capacities(a, K: int) -> CapacitySeries:
    """c_k(B(a)) = a*d with d minimal such that d(d+3)/2 >= k."""
    vals = [a * d_index(k) for k in range(K + 1)]
    return CapacitySeries(method="ball_closed_form", values=vals,
                          backend=_backend_of_value(a), source=f"ball({a})")


def ellipsoid_capacities(a, b, K: int) -> CapacitySeries:
    """(k+1)-th smallest value of {a*m + b*n}, heap-merged without a grid."""
    zero = a - a
    heap = [(zero, 0, 0)]
    vals = []
    while len(vals) <= K:
        v, m, n = heapq.heappop(heap)
        vals.append(v)
        heapq.heappush(heap, (v + a, m + 1, n))
        if m == 0:
            heapq.heappush(heap, (v + b, m, n + 1))
    return CapacitySeries(method="ellipsoid_closed_form", values=vals,
                          backend=_backend_of_value(a), source=f"ellipsoid({a},{b})")


def ellipsoid_values_np(a: float, b: float, K: int) -> np.ndarray:
    """Float ellipsoid series to large K via a lattice grid and one sort."""
    # choose V with #{am+bn <= V} comfortably above K+1
    V = math.sqrt(2 * a * b * (K + 1)) + 2 * (a + b)
    ms = np.arange(0, int(V / a) + 2, dtype=float) * a
    ns = np.arange(0, int(V / b) + 2, dtype=float) * b
    grid = (ms[:, None] + ns[None, :]).ravel()
    grid = grid[grid <= V]
    if grid.size < K + 1:
        raise AssertionError("value cutoff too small")
    grid.sort()
    return grid[: K + 1]


def square_capacities(s, K: int) -> CapacitySeries:
    """c_k([0,s]^2) = s * min{m+n : (m+1)(n+1) >= k+1}."""
    vals = []
    for k in range(K + 1):
        vals.append(s * _square_multiplier(k))
    return CapacitySeries(method="polydisk_closed_form", values=vals,
                          backend=_backend_of_value(s), source=f"square({s})")


def _square_multiplier(k: int) -> int:
    need = k + 1
    t = max(0, math.isqrt(4 * need) - 2)
    while ((t + 2) * (t + 2)) // 4 < need:
        t += 1
    while t > 0 and ((t + 1) * (t + 1)) // 4 >= need:
        t -= 1
    return t


def square_values_np(s: float, ks: np.ndarray) -> np.ndarray:
    need = ks.astype(np.int64) + 1
    t = np.maximum(0, (2 * np.sqrt(need.astype(float))).astype(np.int64) - 2)
    for _ in range(4):
        t = np.where(((t + 2) * (t + 2)) // 4 < need, t + 1, t)
        over = (t > 0) & (((t + 1) * (t + 1)) // 4 >= need)
        t = np.where(over, t - 1, t)
    assert np.all(((t + 2) * (t + 2)) // 4 >= need)
    assert np.all((((t + 1) * (t + 1)) // 4 < need) | (t == 0))
    return s * t.astype(float)


def ball_values_np(a: float, ks: np.ndarray) -> np.ndarray:
    return a * d_values_np(ks).astype(float)


def e12_values_np(ks: np.ndarray) -> np.ndarray:
    """c_k(E(1,2)) by inverting the counting function
    N(2t) = (t+1)^2, N(2t+1) = (t+1)(t+2)."""
    need = ks.astype(np.int64) + 1
    v = np.maximum(0, (2 * np.sqrt(need.astype(float))).astype(np.int64) - 3)
    for _ in range(6):
        v = np.where(_e12_count(v) < need, v + 1, v)
        v = np.where((v > 0) & (_e12_count(v - 1) >= need), v - 1, v)
    assert np.all(_e12_count(v) >= need)
    assert np.all((v == 0) | (_e12_count(v - 1) < need))
    return v.astype(float)


def _e12_count(v: np.ndarray) -> np.ndarray:
    t = v // 2
    return np.where(v % 2 == 0, (t + 1) * (t + 1), (t + 1) * (t + 2))


def _backend_of_value(x) -> str:
    from .scalars import backend_of
    return backend_of(x)


def _as_num(w):
    """Raw float for tolerance-tagged scalars (folds track slack separately)."""
    return w.value if isinstance(w, Eps) else w


# ---------------------------------------------------------------------------
# max-plus convolution and the concave route
# ---------------------------------------------------------------------------

def _maxplus_pair(f: list, g: list, K: int) -> list:
    out = []
    for k in range(K + 1):
        best = None
        lo = max(0, k - (len(g) - 1))
        hi = min(k, len(f) - 1)
        for i in range(lo, hi + 1):
            v = f[i] + g[k - i]
            if best is None or v > best:
                best = v
        out.append(best)
    return out


def union_capacities(series: list[CapacitySeries], K: int) -> CapacitySeries:
    """Iterated c_k(X | X') = max_{i+j=k} c_i + c_j over the inputs."""
    if not series:
        return CapacitySeries(method="decomposition", values=[Fraction(0)] * (K + 1))
    for s in series:
        s.assert_nondecreasing()
    vals = list(series[0].values[: K + 1])
    los = [series[0].lo(k) for k in range(min(K, series[0].kmax) + 1)]
    his = [series[0].hi(k) for k in range(min(K, series[0].kmax) + 1)]
    for s in series[1:]:
        vals = _maxplus_pair(vals, list(s.values[: K + 1]), K)
        los = _maxplus_pair(los, [s.lo(k) for k in range(min(K, s.kmax) + 1)], K)
        his = _maxplus_pair(his, [s.hi(k) for k in range(min(K, s.kmax) + 1)], K)
    lower = [sfloat(v) - lo for v, lo in zip(vals, los)]
    upper = [hi - sfloat(v) for v, hi in zip(vals, his)]
    out = CapacitySeries(method="decomposition", values=vals,
                         lower_slack=lower, upper_slack=upper,
                         backend=series[0].backend,
                         source="|".join(s.source for s in series))
    return out


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


def _scaled(xs: list) -> tuple[int, list]:
    """Rational data as Python ints over their common denominator; floats
    and Quads come back as they are, over 1."""
    if all(isinstance(x, (int, Fraction)) for x in xs):
        den = math.lcm(*(Fraction(x).denominator for x in xs))
        return den, [int(x * den) for x in xs]
    return 1, list(xs)


def _unscaled(v, den: int):
    """The exact value of a scaled entry: ints stand for rationals over den."""
    return Fraction(v, den) if isinstance(v, int) else v


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


def _pair_table(field: int, den: int, pairs: list, ds: np.ndarray) -> list:
    """_ball_table of the weights that _quad_pairs returned, as Quads."""
    p, q, f = pairs[0]
    F = ds * f
    table = (ds * p, ds * q, F, ds * (_PAIR_REL * abs(f)) + _SUM_REL * np.abs(F))
    for w in pairs[1:]:
        table = _fold_ball_pairs(table, w, field)
    return [Quad(Fraction(a, den), Fraction(b, den), field)
            for a, b in zip(table[0].tolist(), table[1].tolist())]


def _ball_table(ws: list, ds: np.ndarray) -> list:
    """Max-plus union of the ball series w*d over the d-values `ds`.

    The array's dtype follows the data: int64 for scaled rationals while
    no entry can reach 2^62, float64 for floats, int64 pairs with a float
    filter for Q(sqrt d) under the same bound (entries come back as Quads),
    Python objects for larger data.  Every entry is at most sum(ws) * d_max."""
    d_max = max(int(ds[-1]), 1)  # every weight itself must fit as well
    if all(isinstance(w, int) for w in ws) and sum(map(abs, ws)) * d_max < 2**62:
        dtype = np.int64
    elif all(isinstance(w, float) for w in ws):
        dtype = float
    else:
        quad = _quad_pairs(ws, d_max)
        if quad is not None:
            return _pair_table(*quad, ds)
        dtype = object
    d = ds.astype(dtype)
    if not ws:
        return np.zeros_like(d).tolist()
    table = d * ws[0]
    for w in ws[1:]:
        table = _fold_ball_np(table, w)
    return table.tolist()


def union_of_balls(weights: list, K: int, zero) -> list:
    """Max-plus union of ball series, one ball folded at a time."""
    if not weights:
        return [zero] * (K + 1)
    den, ws = _scaled(weights)
    return [_unscaled(v, den) for v in _ball_table(ws, d_values_np(np.arange(K + 1)))]


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
                     tree: WeightTree | None = None,
                     certificate_tol: float | None = None) -> CapacitySeries:
    """Ball decomposition of a concave domain, with one-sided tail slack.

    Dropped balls only lower the values, so the computed series is a
    certified lower envelope; the tail bound feeds the upper slack.  When
    `certificate_tol` is set and the slack at K exceeds it, the truncation
    was too coarse for the request.
    """
    t = tree if tree is not None else concave_weights(d, limits)
    if certificate_tol is not None:
        worst = d_index(K) * sfloat(t.truncation.dropped_tail_sum)
        if worst > certificate_tol:
            raise TruncationTooCoarse(
                f"tail slack {worst:.3g} exceeds requested {certificate_tol:.3g}")
    weights = sorted(t.weight_multiset(), key=sfloat, reverse=True)
    zero = (t.head if t.head is not None else (weights[0] if weights else Fraction(0)))
    zero = zero - zero
    vals = union_of_balls([_as_num(w) for w in weights], K, zero)
    out = CapacitySeries(method="decomposition", values=vals,
                         lower_slack=None, upper_slack=None)
    tail = sfloat(t.truncation.dropped_tail_sum)
    if tail > 0:
        extra = [d_index(k) * tail for k in range(K + 1)]
        base = out.upper_slack or [0.0] * (K + 1)
        out.upper_slack = [b + e for b, e in zip(base, extra)]
    out.method = "decomposition"
    out.backend = t.backend
    out.source = f"concave:{d.kind}"
    out.meta["dropped_tail_sum"] = tail
    return out


# ---------------------------------------------------------------------------
# convex route: corner-complement infimum with certified pruning
# ---------------------------------------------------------------------------

class _ConvexDP:
    """Shared state for the corner-complement infimum over one tree.

    Rational data is scaled by its common denominator, so the max-plus
    table and the candidates are Python ints; float and Quad data are
    used as they are.
    """

    def __init__(self, tree: WeightTree, vol23: float, w_total: float,
                 s_ceiling: int = 200_000):
        self.head = tree.head
        weights = [_as_num(w) for w in
                   sorted(tree.weight_multiset(), key=sfloat, reverse=True)]
        self.den, (self.c, *self.weights) = _scaled([_as_num(tree.head)] + weights)
        self.tail = sfloat(tree.truncation.dropped_tail_sum)
        self.vol23 = vol23  # area between the domain and its circumscribed triangle
        self.w_total = w_total  # full weight sum incl. tail, exact from the profile
        self.c_f = sfloat(self.head)
        self.s_ceiling = s_ceiling
        self._extend(64)

    def _extend(self, S: int):
        """Max-plus table M(0..S) and d(0..S), as Python lists."""
        ds = d_values_np(np.arange(S + 1))
        self.M = _ball_table(self.weights, ds)
        self.ds = ds.tolist()

    def capacity(self, k: int):
        """c_k = min_s c*d(k+s) - M(s), and its certified lower slack.

        The scan stops at the first s at which a lower bound for every
        candidate beyond s clears the best candidate so far.  Inside a
        level {s : d(k+s) = t} the candidate c*t - M(s) and its lower
        version cand - d(s)*tail do not increase with s, and the stopping
        test is monotone in s.  So one probe at the end of each level,
        plus a bisection of the level where the test first holds, give
        the values of the index-by-index scan."""
        if k == 0:
            return self.head - self.head, 0.0
        c, den, tail = self.c, self.den, self.tail
        to_float = sfloat if den == 1 else (lambda x: x / den)
        best, best_f, best_lo = None, math.inf, math.inf
        c_f, v, w = self.c_f, self.vol23, self.w_total
        # lb(u) = c_f*(sqrt(2(k+u)) - 1.5) - sqrt(4 v u) - w bounds every
        # candidate at index u and is smallest at t_star, so
        # lb(max(s+1, t_star)) bounds every candidate beyond s
        t_star = 2 * v * k / max(c_f * c_f - 2 * v, 1e-300) if v > 0 else 0.0

        def stops(s: int, cand_f: float) -> bool:
            b = cand_f if cand_f < best_f else best_f
            u = s + 1 if s + 1 >= t_star else t_star
            floor = c_f * (math.sqrt(2 * (k + u)) - 1.5) - math.sqrt(4 * v * u) - w
            return floor >= b + 1e-9 * (1 + abs(b))

        M, ds = self.M, self.ds
        end = min(len(M) - 1, self.s_ceiling)  # the last index probed for now
        t, s0 = d_index(k), 0  # the test fails at every index below s0
        while True:
            s1 = t * (t + 3) // 2 - k  # the level d(k+s) = t ends at s1
            s = s1 if s1 < end else end
            cand = c * t - M[s]
            cand_f = to_float(cand)
            if stops(s, cand_f):
                lo, hi = s0, s
                while lo < hi:
                    mid = (lo + hi) // 2
                    if stops(mid, to_float(c * t - M[mid])):
                        hi = mid
                    else:
                        lo = mid + 1
                cand = c * t - M[lo]
                cand_f = to_float(cand)
                if best is None or cand < best:
                    best, best_f = cand, cand_f
                best_lo = min(best_lo, cand_f - ds[lo] * tail)
                return _unscaled(best, den), best_f - best_lo
            if best is None or cand < best:
                best, best_f = cand, cand_f
            if s == self.s_ceiling:
                raise PruningBoundExceeded(
                    f"no certificate after {self.s_ceiling} complement indices",
                    best=_unscaled(best, den))
            if s < s1:  # grow the table only when the scan runs past its end
                self._extend(2 * len(M))
                M, ds = self.M, self.ds
                end = min(len(M) - 1, self.s_ceiling)
                s0 = s + 1
                continue
            best_lo = min(best_lo, cand_f - ds[s] * tail)
            s0, t = s1 + 1, t + 1


def convex_capacity(d: DomainDescriptor, K: int,
                    limits: TruncationLimits | None = None,
                    tree: WeightTree | None = None) -> CapacitySeries:
    """Capacities of a convex domain from its weight expansion."""
    t = tree if tree is not None else convex_weights(d, limits)
    if d.kind == "weight_list":
        w_total = sfloat(sum_scalars(t.weight_multiset())) + sfloat(t.truncation.dropped_tail_sum)
        sq = sum((sfloat(w) ** 2 for w in t.weight_multiset()), 0.0)
        vol23 = (sq + sfloat(t.truncation.dropped_tail_sq)) / 2.0
    else:
        profile = validate(d)
        ell = sfloat(profile.total_affine_plus)
        w_total = 3 * sfloat(t.head) - (sfloat(profile.a) + sfloat(profile.b) + ell)
        # rounding can take the zero gap of a triangle below zero
        vol23 = max(sfloat(t.head) ** 2 / 2.0 - sfloat(area(d)), 0.0)
    dp = _ConvexDP(t, vol23, w_total)
    vals, lowers = [], []
    for k in range(K + 1):
        v, lo = dp.capacity(k)
        vals.append(v)
        lowers.append(lo)
    out = CapacitySeries(method="decomposition", values=vals,
                         lower_slack=lowers, upper_slack=[0.0] * (K + 1),
                         backend=t.backend, source=f"convex:{d.kind}",
                         meta={"head": sfloat(t.head),
                               "dropped_tail_sum": sfloat(t.truncation.dropped_tail_sum)})
    return out


def sum_scalars(xs):
    out = None
    for x in xs:
        out = x if out is None else out + x
    return out if out is not None else Fraction(0)


# ---------------------------------------------------------------------------
# nef enumeration on a tower surface
# ---------------------------------------------------------------------------

def _owners(s: PicBasisSurface):
    """owners[i] = indices (into s.curves) of the two curves through blowup i."""
    owners = [[] for _ in range(s.n + 1)]
    for ci, c in enumerate(s.curves):
        cls = tower_mod._pad(c.cls, s.n)
        for i in range(1, s.n + 1):
            if cls[i] == -1:
                owners[i].append(ci)
    for i in range(1, s.n + 1):
        if len(owners[i]) != 2:
            raise AssertionError(f"blowup {i} has {len(owners[i])} owner curves")
    return owners


def _simplex_max(c: list, rows: list, rhs: list) -> float:
    """max c.x subject to rows.x <= rhs and x >= 0, for integer rows and
    rhs >= 0, so the slack basis is feasible and there is no phase 1.

    The constraint tableau stays exact (ints and Fractions); the objective
    row is float.  Bland's rule (the lowest entering index, ratio ties to
    the lowest basic index) keeps the degenerate rhs-0 rows from cycling."""
    m, n = len(rows), len(c)
    T = [list(r) + [int(i == j) for j in range(m)] + [b]
         for i, (r, b) in enumerate(zip(rows, rhs))]
    z = [-x for x in c] + [0.0] * (m + 1)  # reduced costs; z[-1] is the objective
    basis = list(range(n, n + m))
    tol = 1e-12 * (1.0 + max(map(abs, c), default=0.0))
    while True:
        col = next((j for j in range(n + m) if z[j] < -tol), None)
        if col is None:
            return math.fsum(c[b] * float(T[i][-1]) for i, b in enumerate(basis) if b < n)
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
            z[j] -= f * float(row[j])
        basis[r] = col


def _nef_floor(s: PicBasisSurface) -> float:
    """min{D.A : D nef, D.H = 1} > 0; the enumeration's per-degree floor.

    D = H - sum m_i e_i is nef when every boundary curve C has D.C >= 0,
    i.e. sum_i -C_i m_i <= C_0 (an e-curve supplies, its owners consume),
    so the floor is A_0 - max sum a_i m_i with a_i = -A_i >= 0."""
    n = s.n
    rows, rhs = [], []
    for c in s.curves:
        cls = tower_mod._pad(c.cls, n)
        if any(cls[1:]):
            rows.append([-x for x in cls[1:]])
            rhs.append(cls[0])
    a = [-sfloat(s.A[i]) for i in range(1, n + 1)]
    return max(sfloat(s.A[0]) - _simplex_max(a, rows, rhs), 0.0)


def f_from_self_intersections(self_ints) -> int:
    """The degree-bound correction from a boundary self-intersection list."""
    minus_ones = sum(1 for s in self_ints if s == -1)
    correction = sum(1 + s for s in self_ints if s < -1)
    return minus_ones - 2 * correction


def dkn_upper_data(a2: float, minus_k_dot_a: float, f_value: float,
                   k_plus: float, k: int) -> float:
    """Abstract form of the degree bound: d_{k,n}*A^2 - K+.A from the raw
    pairings, for pseudo-polarised input given without a surface."""
    kappa = sfloat(minus_k_dot_a) / sfloat(a2)
    dkn = -kappa / 2 + math.sqrt(kappa * kappa / 4 + (2 * k + f_value) / sfloat(a2))
    return max(dkn, 0.0) * sfloat(a2) + sfloat(k_plus)


def dkn_upper(s: PicBasisSurface, k: int) -> float:
    """Certified upper bound d_{k,n}*A^2 - K+.A for the k-th capacity."""
    a2 = sfloat(_dot(s.A, s.A))
    minus_k = tuple(-x for x in s.K)
    return dkn_upper_data(a2, sfloat(_dot(minus_k, s.A)), tower_mod.F_of_n(s),
                          sfloat(k_plus_dot_A(s)), k)


class _EnumContext:
    """Static structure shared by every degree pass on one surface."""

    def __init__(self, s: PicBasisSurface):
        self.n = n = s.n
        self.a = [s.A[0]] + [-(s.A[i]) for i in range(1, n + 1)]  # head, a_i >= 0
        self.a_f = [sfloat(x) for x in self.a]
        self.owners = _owners(s)
        self.curve_gamma = [tower_mod._pad(c.cls, n)[0] for c in s.curves]
        self.floor = _nef_floor(s)
        self.floor1 = self.floor * (1 - 1e-9)
        # e-curve position per blowup and the parent blowup index
        self.ecurve = [None] * (n + 1)
        curve_blowup = {}
        for ci, c in enumerate(s.curves):
            cls = tower_mod._pad(c.cls, n)
            for i in range(1, n + 1):
                if cls[i] == 1:
                    self.ecurve[i] = ci
                    curve_blowup[ci] = i
        self.parent = [None] * (n + 1)
        for i in range(1, n + 1):
            js = [curve_blowup[ci] for ci in self.owners[i] if ci in curve_blowup]
            self.parent[i] = max(js) if js else None
        # per-unit yield of the optimal descendant chain from each node
        children = [[] for _ in range(n + 1)]
        for i in range(1, n + 1):
            if self.parent[i] is not None:
                children[self.parent[i]].append(i)
        self.psi = [0.0] * (n + 2)
        for i in range(n, 0, -1):
            best_child = max((self.psi[c] for c in children[i]), default=0.0)
            self.psi[i] = self.a_f[i] + best_child
        # at position i, nodes >= i whose cap is set by current residuals
        self.entries_at = [[] for _ in range(n + 2)]
        for i in range(1, n + 2):
            self.entries_at[i] = [j for j in range(i, n + 1)
                                  if self.parent[j] is None or self.parent[j] < i]


def alg_capacity_enum(s: PicBasisSurface, k: int, ub: float | None = None,
                      d_ceiling: int = 10_000, ctx: _EnumContext | None = None):
    """Exact minimum of D.A over nef integer classes with D.(D-K) >= 2k."""
    zero = s.A[0] - s.A[0]
    if k == 0:
        return zero
    a2 = sfloat(_dot(s.A, s.A))
    if a2 <= 0:
        raise SearchSpaceEmpty("polarisation is not big (A^2 <= 0)")
    ctx = ctx or _EnumContext(s)
    ub0 = ub if ub is not None else dkn_upper(s, k) + 1e-9

    incumbent = None  # exact scalar
    incumbent_f = ub0

    d = d_index(k)
    while True:
        if ctx.floor1 > 0 and d * ctx.floor1 > incumbent_f + 1e-9:
            break
        if d > d_ceiling:
            if incumbent is None:
                raise CeilingExceeded(f"degree search passed {d_ceiling}")
            break
        budget = d * (d + 3) - 2 * k
        if budget >= 0:
            found = _dfs_min(ctx, d, budget, incumbent, incumbent_f)
            if found is not None:
                incumbent = found
                incumbent_f = sfloat(found)
        d += 1
    if incumbent is None:
        # the dkn bound itself certifies feasibility at some ceil(d_{k,n});
        # reaching here means the ceiling cut the search
        raise CeilingExceeded("no feasible divisor found below the ceiling")
    return incumbent


def _msqrt(b: int) -> int:
    """max m with m(m+1) <= b"""
    if b <= 0:
        return 0
    r = math.isqrt(b)
    while r * (r + 1) > b:
        r -= 1
    return r


def _dfs_min(ctx: _EnumContext, d: int, budget: int, incumbent, incumbent_f):
    """Best objective at fixed degree d, or None if nothing beats incumbent."""
    n = ctx.n
    a, a_f, owners, ecurve, psi = ctx.a, ctx.a_f, ctx.owners, ctx.ecurve, ctx.psi
    residual = [d * g for g in ctx.curve_gamma]
    best = incumbent
    best_f = incumbent_f
    obj0_f = d * a_f[0]

    def potential(i, mcap):
        # entry nodes own independent residual caps; each unit assigned in an
        # entry's subtree yields at most psi (its best descendant chain)
        pot = 0.0
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

    def rec(i, budget_left, subtracted_f, sum_m, subtracted_exact):
        nonlocal best, best_f
        if i > n:
            obj = d * a[0] - subtracted_exact
            if best is None:
                if sfloat(obj) <= best_f + 1e-9:
                    best, best_f = obj, sfloat(obj)
            elif obj < best:
                best, best_f = obj, sfloat(obj)
            return
        mcap_global = min(d, _msqrt(budget_left), 3 * d - sum_m)
        if obj0_f - subtracted_f - potential(i, mcap_global) > best_f + 1e-9:
            return
        cap = min(residual[owners[i][0]], residual[owners[i][1]], mcap_global)
        for mi in range(cap, -1, -1):
            residual[owners[i][0]] -= mi
            residual[owners[i][1]] -= mi
            residual[ecurve[i]] += mi
            rec(i + 1, budget_left - mi * (mi + 1),
                subtracted_f + mi * a_f[i], sum_m + mi,
                subtracted_exact + mi * a[i])
            residual[owners[i][0]] += mi
            residual[owners[i][1]] += mi
            residual[ecurve[i]] -= mi

    zero = a[0] - a[0]
    rec(1, budget, 0.0, 0, zero)
    if best is not None and (incumbent is None or best_f < incumbent_f or best < incumbent):
        return best
    return None


def alg_capacity_series(s: PicBasisSurface, kmax: int) -> list:
    """Exact capacities for k = 0..kmax, chaining incumbents downward."""
    out = [None] * (kmax + 1)
    ctx = _EnumContext(s)
    ub = None
    for k in range(kmax, 0, -1):
        val = alg_capacity_enum(s, k, ub=ub, ctx=ctx)
        out[k] = val
        ub = sfloat(val) + 1e-9  # c_{k-1} <= c_k
    out[0] = s.A[0] - s.A[0]
    return out


@dataclass
class TowerCapacityResult:
    value: object
    level: int
    bracket: tuple[float, float]
    stabilized: bool
    per_level: list | None = None


def tower_capacity(tw: Tower, k: int, stab_tol: float = 1e-9,
                   all_levels: bool = False,
                   require_stable: bool = False, ub: float | None = None,
                   ctx: _EnumContext | None = None) -> TowerCapacityResult:
    """Capacity of the tower limit, evaluated on the realized levels.

    Exact complete trees stabilize exactly at the last level (further
    blowups carry weight zero and leave every pairing unchanged).  With a
    truncated tail the result carries the certified bracket
    (value - d_cap * tail_sum, value): any deeper optimizer truncates to a
    feasible divisor at this level whose pairing with A grows by at most
    its degree cap times the dropped weight sum.  `ctx` and `ub` are the
    enumeration context and upper bound for the final level, as in
    `alg_capacity_enum`.
    """
    ctx = ctx or _EnumContext(tw.final)
    levels = tw.surfaces[:-1] if all_levels else []
    values = [alg_capacity_enum(surf, k) for surf in levels]
    values.append(alg_capacity_enum(tw.final, k, ub=ub, ctx=ctx))
    for i in range(1, len(values)):
        if sfloat(values[i]) > sfloat(values[i - 1]) + 1e-12:
            raise AssertionError("tower capacities must be non-increasing in n")
    value = values[-1]
    tail = sfloat(tw.tail_sum())
    if tail == 0:
        return TowerCapacityResult(value=value, level=tw.final.n,
                                   bracket=(sfloat(value), sfloat(value)),
                                   stabilized=True,
                                   per_level=values if all_levels else None)
    d_cap = (dkn_upper(tw.final, k) / ctx.floor) if ctx.floor > 0 else math.inf
    slack = d_cap * tail
    result = TowerCapacityResult(value=value, level=tw.final.n,
                                 bracket=(sfloat(value) - slack, sfloat(value)),
                                 stabilized=slack <= stab_tol,
                                 per_level=values if all_levels else None)
    if require_stable and not result.stabilized:
        raise NoStabilization("tail too coarse to certify the tower limit",
                              bracket=result.bracket)
    return result


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
        if x0 == 0 and y1 == y0 and x1 == x2 and y2 == 0:
            return (x1, y0)  # width, height
    return None


def polydisk_value(w, h, k: int):
    """min{w*m + h*n : (m+1)(n+1) >= k+1}; some optimal pair has its
    smaller coordinate below sqrt(k+1), so both orientations of a short
    scan suffice."""
    need = k + 1
    best = None
    m = 0
    while m * m <= 4 * need:
        nmin = (need + m) // (m + 1) - 1
        for c in (w * m + h * nmin, h * m + w * nmin):
            if best is None or c < best:
                best = c
        m += 1
    return best


def polydisk_capacities(w, h, K: int) -> CapacitySeries:
    """Rational sides run on Python ints over their common denominator."""
    den, (ws, hs) = _scaled([w, h])
    vals = [_unscaled(polydisk_value(ws, hs, k), den) for k in range(K + 1)]
    return CapacitySeries(method="polydisk_closed_form", values=vals,
                          backend=_backend_of_value(w), source=f"polydisk({w},{h})")


def series_for_domain(d: DomainDescriptor, K: int,
                      limits: TruncationLimits | None = None,
                      fast: bool = True) -> CapacitySeries:
    """Pick the natural route for the descriptor, after validating it."""
    if K < 0:
        raise CapaxError(f"kmax must be >= 0, got {K}")
    validate(d)
    if d.kind == "ellipsoid":
        if d.a == d.b:
            return ball_capacities(d.a, K)
        return ellipsoid_capacities(d.a, d.b, K)
    if d.kind == "polygon":
        if fast:
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
        res = inner_grid_polygon(d, M=max(16, min(48, K)))
        limits = limits or TruncationLimits(max_depth=512, eps=1e-9)
        series = convex_capacity(res.polygon, K, limits)
        r = sfloat(d.params[-1])
        lam = res.hausdorff_bound / max(r - res.hausdorff_bound, 1e-9)
        extra = [lam * sfloat(v) for v in series.values]
        base = series.upper_slack or [0.0] * (K + 1)
        series.upper_slack = [b + e for b, e in zip(base, extra)]
        series.source = f"curve:{d.curve}"
        series.backend = "float"
        return series
    raise ValueError(f"unknown domain kind {d.kind!r}")
