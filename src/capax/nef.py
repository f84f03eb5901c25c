"""The nef route: capacities by enumerating nef divisors on a tower surface.

The enumeration minimizes D.A over nef integer classes with
D.(D-K) >= 2k on a tower surface, by depth-first search with residual
caps per boundary curve and one prune, a Cauchy-Schwarz bound from the
quadratic budget sum m_i(m_i + 1) <= d(d+3) - 2k.  Exact backends flow
through this route and the decomposition route unchanged, so the two
agree exactly, which is what the oracle-equivalence tests assert.  Also
the closed-form lower bound c_k^+ and its independent oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BelowThreshold, CeilingExceeded, SearchSpaceEmpty
from .scalars import binade
from .capacities import _scaled, d_index


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


def _nef_floor(curves: list, a: list):
    """min{D.A : D nef, D.H = 1}, exactly; the enumeration's per-degree floor.

    D = H - sum m_i e_i is nef when every boundary curve C has D.C >= 0,
    i.e. sum_{i in hits} m_i - m_own <= degree (an e-curve supplies, its
    owners consume), so the floor is a_0 - max sum a_i m_i for the
    objective data a = (A_0, -A_1, ..., -A_n)."""
    n = len(a) - 1
    rows, rhs = [], []
    for c in curves:
        if c.own or c.hits:
            row = [0] * n
            if c.own:
                row[c.own - 1] = -1
            for i in c.hits:
                row[i - 1] = 1
            rows.append(row)
            rhs.append(c.degree)
    return max(a[0] - _simplex_max(a[1:], rows, rhs), 0)


def dkn_upper_data(a2: float, minus_k_dot_a: float, f_value: float,
                   k_plus: float, k: int) -> float:
    """Abstract form of the degree bound: d_{k,n}*A^2 - K+.A from the raw
    pairings, for pseudo-polarised input given without a surface."""
    kappa = float(minus_k_dot_a) / float(a2)
    dkn = -kappa / 2 + math.sqrt(kappa * kappa / 4 + (2 * k + f_value) / float(a2))
    return max(dkn, 0.0) * float(a2) + float(k_plus)


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
        # each curve's degree, the two owner curves of every blowup (those
        # whose hits hold it) and its e-curve (the one it owns)
        self.curve_gamma = [c.degree for c in s.curves]
        self.owners = [[] for _ in range(n + 1)]
        self.ecurve = [None] * (n + 1)
        for ci, c in enumerate(s.curves):
            self.ecurve[c.own] = ci  # a line owns 0, which no blowup reads
            for i in c.hits:
                self.owners[i].append(ci)
        self.floor = _nef_floor(s.curves, a)
        # the degree bound's floats, of A*2^-e with 2^e the head's binade, never underflow
        unit = Fraction(2) ** -binade(s.A[0])
        a2, minus_k_dot_a, f, k_plus = s._replace(A=tuple(x * unit for x in s.A)).pairings()
        self.pairings = (float(a2), float(minus_k_dot_a), f, float(k_plus))
        self.floor_f = float(self.floor * unit)
        # the budget prune's suffix sums: A2_i = sum_{j>=i} a_j^2, S_i = sum_{j>=i} a_j
        self.suffix_sq, self.suffix_sum = [0] * (n + 2), [0] * (n + 2)
        for i in range(n, 0, -1):
            self.suffix_sq[i] = self.suffix_sq[i + 1] + self.a[i] * self.a[i]
            self.suffix_sum[i] = self.suffix_sum[i + 1] + self.a[i]


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
    if ctx.a[0] * ctx.a[0] <= ctx.suffix_sq[1]:  # A^2 <= 0
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
    `bound` (any, when bound is None); None if there is none.

    One prune: at blowup i the r = n - i + 1 open entries m_j >= 0 keep
    sum m_j(m_j + 1) <= B, the budget left, so sum (m_j + 1/2)^2 <= B + r/4
    and, by Cauchy-Schwarz, 2 sum a_j m_j + S_i <= sqrt(A2_i (4B + r)), with
    A2_i = sum_{j>=i} a_j^2 and S_i = sum_{j>=i} a_j.  A leaf below reaches
    `best` only if sum a_j m_j >= lim = obj0 - subtracted - best, so the node
    is cut when lim > 0 and (2 lim + S_i)^2 > A2_i (4B + r), exactly on ints
    and Quads alike.  Residuals stay in [0, d] and sum to 3d - sum m_j, so
    the loop caps need no m_j <= d or sum m_j <= 3d."""
    n = ctx.n
    a, owners, ecurve = ctx.a, ctx.owners, ctx.ecurve
    suffix_sq, suffix_sum = ctx.suffix_sq, ctx.suffix_sum
    residual = [d * g for g in ctx.curve_gamma]
    best, found = bound, None
    obj0 = d * a[0]

    def rec(i, budget_left, subtracted):
        nonlocal best, found
        if i > n:
            obj = obj0 - subtracted
            if best is None or obj <= best:
                best = found = obj
            return
        if best is not None:
            lim = obj0 - subtracted - best
            if lim > 0:
                y = 2 * lim + suffix_sum[i]
                if y * y > suffix_sq[i] * (4 * budget_left + n - i + 1):
                    return
        # (isqrt(4b + 1) - 1) // 2 is the largest m with m(m+1) <= b
        cap = min(residual[owners[i][0]], residual[owners[i][1]],
                  (math.isqrt(4 * budget_left + 1) - 1) // 2)
        for mi in range(cap, -1, -1):
            residual[owners[i][0]] -= mi
            residual[owners[i][1]] -= mi
            residual[ecurve[i]] += mi
            rec(i + 1, budget_left - mi * (mi + 1), subtracted + mi * a[i])
            residual[owners[i][0]] += mi
            residual[owners[i][1]] += mi
            residual[ecurve[i]] -= mi

    rec(1, budget, 0)
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


class TowerCapacityResult:
    __slots__ = ("value", "bracket", "per_level")

    def __init__(self, value, bracket: tuple[float, float], per_level: list | None = None):
        self.value = value
        self.bracket = bracket
        self.per_level = per_level


def _tower_result(tw: Tower, k: int, value, ctx: _EnumContext,
                  per_level: list | None = None) -> TowerCapacityResult:
    """The certified bracket (value - d_cap * tail_sum, value) of the tower
    limit from the final level's c_k: any deeper optimizer truncates to a
    feasible divisor at this level whose pairing with A grows by at most
    its degree cap times the dropped weight sum; `ctx` is the final level's."""
    v = float(value)
    slack = 0.0
    if tw.tail_sum() != 0:
        d_cap = (dkn_upper_data(*ctx.pairings, k) / ctx.floor_f) if ctx.floor > 0 else math.inf
        slack = d_cap * float(tw.tail_sum())
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


_C_PLUS_TOL = 1e-12  # c_plus_reference's relative bisection width


def c_plus_reference(k_dot_a: float, a2: float, k2: float, k: int) -> float:
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
        if hi - lo < _C_PLUS_TOL * (1 + hi):
            break
    return hi * a2
