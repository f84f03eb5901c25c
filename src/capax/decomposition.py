"""The decomposition route: a domain's capacities from its ball packing.

A domain's weight expansion writes it through balls.  A concave domain's
capacities are the max-plus union of the ball series (`concave_capacity`).
A convex domain's are the corner-complement infimum
``inf_{k2,k3} c_{k+k2+k3}(B(c)) - c_{k2} - c_{k3}``, evaluated with a
certified stopping rule (`convex_capacity`; Cristofaro-Gardiner,
"Symplectic embeddings from concave toric domains into convex ones", JDG
2019).

Everything runs on Python ints, floats and Quads: the unions of balls
(`_ball_stairs`, which holds each table by the indices where it rises and
folds each run of equal exact weights as one staircase) and the convex scan
(`_convex_scan`, the lower envelope of the level ends, swept over the
table's breakpoints), both on ints for exact data: Q(sqrt d) values as the
exactly ordered ints of `_quad_ints`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, groupby, repeat

from .errors import PruningBoundExceeded
from .scalars import _is_quad, binade, rational_parts
from .capacities import CapacitySeries, _scaled, d_index, d_values, union_of_balls
from .weights import concave_weights, convex_weights


# ---------------------------------------------------------------------------
# max-plus convolution and the concave route
# ---------------------------------------------------------------------------

def _quad_pairs(ws: list):
    """Weights over one field Q(sqrt d) as int pairs over a common
    denominator D, w = (p + q*sqrt d)/D, rationals lifted with q = 0.

    Returns (d, D, [(p, q)]), or None for other data."""
    quads = [w for w in ws if not isinstance(w, (int, Fraction))]
    if not quads or not all(map(_is_quad, quads)):
        return None
    fields = {w.d for w in quads}
    if len(fields) != 1:
        return None
    parts = [rational_parts(w) for w in ws]
    den = math.lcm(*(x.denominator for pq in parts for x in pq))
    return fields.pop(), den, [(int(p * den), int(q * den)) for p, q in parts]


def _group_costs(m: int, S: int) -> list:
    """The staircase of m balls of one weight w: the least index at which
    their union reaches w*D, for D = 0, 1, ... while it stays <= S.

    c_s of m balls B(w) is w*max{sum t_i : sum t_i(t_i+1)/2 <= s}
    (Hutchings, "Quantitative embedded contact homology", JDG 2011).  The
    cost t(t+1)/2 is convex in t, so the cheapest split of D = qm + r is
    r balls at q + 1 and m - r at q: m*q(q+1)/2 + r(q+1), which rises by
    q + 1 from D to D + 1.  One ball gives t(t+1)/2."""
    costs, D = [0], 0
    while (c := costs[-1] + D // m + 1) <= S:
        costs.append(c)
        D += 1
    return costs


def _steps_kept(idx: list, costs: list, m: int, S: int, ahead: list | None) -> list:
    """For each breakpoint j of a staircase, the number of steps D of a run
    of m equal balls (`_group_costs`) that the fold pairs with it: those
    with idx[j] + costs[D] <= S and, on exact data, D <= m(L - 1).

    There q = ahead[j] is the first breakpoint after j with
    val[q] >= val[j] + w (len(idx) if none, and then every D passes), and
    L = idx[q] - idx[j].  Step D costs (D-1)//m + 1 more than step D - 1,
    at least L once D > m(L - 1): then (q, D - 1), kept or dropped for the
    same reason, lands no later than (j, D) and is worth no less, so the
    running max of the fold is the same without (j, D).  q is searched
    after j, since val[j] itself reaches val[j] + w when w <= 0."""
    tops = [bisect_right(costs, S - b) for b in idx]
    if ahead is None:
        return tops
    n = len(idx)
    return [min(top, m * (idx[q] - b - 1) + 1) if q < n else top
            for top, b, q in zip(tops, idx, ahead)]


def _stairs(idx: list, val: list, w, m: int, S: int) -> tuple[list, list]:
    """Fold the staircase (costs[D], w*D) of a run of m equal balls
    (`_group_costs`) into a table of ints (rationals over a denominator, or
    the Q(sqrt d) images of `_quad_ints`) or floats held as a staircase:
    the indices `idx` at which the table rises and its values `val` there.
    Breakpoint (b, v) and step D give the candidate v + w*D at b + costs[D];
    the candidates go into a scratch list of the indices 0..S, and its
    running max is the new table.  Each breakpoint takes the steps that
    `_steps_kept` leaves it, every step on floats, whose sums round.  For
    one ball these are the sums that a dense fold takes, so float values
    are bit-identical to it."""
    costs = _group_costs(m, S)
    steps = [(base, w * D) for D, base in enumerate(costs)]
    ahead = None if isinstance(w, float) else \
        [bisect_left(val, v + w, j + 1) for j, v in enumerate(val)]
    sc = [val[0] - 1] * (S + 1)  # below every value: val[0] = 0
    for b, v, top in zip(idx, val, _steps_kept(idx, costs, m, S, ahead)):
        for base, x in steps[:top]:
            c = v + x
            if c > sc[b + base]:
                sc[b + base] = c
    idx, val, top = [], [], sc[0] - 1
    for i, c in enumerate(sc):
        if c > top:
            top = c
            idx.append(i)
            val.append(c)
    return idx, val


def _quad_ints(ws: list, S: int):
    """Q(sqrt d) weights as ints that add and compare as their values do,
    or None for data that `_quad_pairs` refuses.

    w = (p + q*sqrt d)/D maps to p*2^F + q*R, R = isqrt(d*4^F) | 1, which
    is off from sqrt(d)*2^F by less than 2.  Two sums of at most S + 2
    weights each then differ in image by 2^F*x + Q*(R - sqrt(d)*2^F), where
    x = P + Q*sqrt d is D times their difference and |P|, |Q| <= 2B for
    B = (S + 2)*max(|p|, |q|).  P^2 - d*Q^2 is an integer, nonzero if x is,
    so then |x| >= 1/(|P| + |Q|*sqrt d) >= 1/(2B(1 + sqrt d)), and
    2^F > 8B^2(isqrt(d) + 2) puts 2^F*|x| above the error, which is below
    4B: the images order as the sums do, and are equal when they are.

    Also returns `back`, a sum's image K to its Quad: q = K*R^-1 mod 2^F,
    taken centred (R is odd, and |q| <= B < 2^(F-1)), p = (K - q*R) >> F."""
    quad = _quad_pairs(ws)
    if quad is None:
        return None
    from .quad import Quad
    d, den, pairs = quad
    B = (S + 2) * max(1, *(abs(x) for pq in pairs for x in pq))
    F = (8 * B * B * (math.isqrt(d) + 2)).bit_length()
    R, mask, half = math.isqrt(d << 2 * F) | 1, (1 << F) - 1, 1 << (F - 1)
    inv = pow(R, -1, 1 << F)

    def back(K: int) -> Quad:
        q = ((K * inv + half) & mask) - half
        return Quad._of(Fraction((K - q * R) >> F, den), Fraction(q, den), d)

    return [(p << F) + q * R for p, q in pairs], back


def _ball_stairs(ws: list, S: int) -> tuple[list, list]:
    """The max-plus union of the ball series w*d over the indices 0..S, as
    a staircase: the indices at which it rises and its values there.  Over
    rational weights a table of S + 1 entries holds only O(sqrt S) distinct
    values.

    Each run of m equal exact weights folds as one staircase
    (`_group_costs`), since its sums are exact, and pairs each breakpoint
    only with the steps that no later breakpoint dominates (`_steps_kept`).
    Floats fold one ball at a time and pair every step:
    w*(t_1 + ... + t_m) can round otherwise than the sum of the w*t_i.
    Q(sqrt d) weights fold as the ints of `_quad_ints`, and only the
    breakpoints come back as Quads."""
    if not ws:
        return [0], [0]
    quad = _quad_ints(ws, S)
    if quad:
        ws, back = quad
    if any(isinstance(w, float) for w in ws):
        runs = [(w, 1) for w in ws]
    else:
        runs = [(w, len(list(g))) for w, g in groupby(ws)]
    (w, m), *rest = runs
    idx = _group_costs(m, S)
    val = [w * D for D in range(len(idx))]
    for w, m in rest:
        idx, val = _stairs(idx, val, w, m, S)
    return idx, list(map(back, val)) if quad else val


def _dense(idx: list, val: list, S: int) -> list:
    """A staircase's table at every index 0..S."""
    out = []
    for i, j, v in zip(idx, idx[1:] + [S + 1], val):
        out += repeat(v, j - i)
    return out


def _ball_list(ws: list, S: int) -> list:
    """The table of `_ball_stairs` at every index 0..S."""
    return _dense(*_ball_stairs(ws, S), S)



def concave_capacity(d: DomainDescriptor, K: int,
                     limits: TruncationLimits | None = None,
                     tree: WeightTree | None = None) -> CapacitySeries:
    """Ball decomposition of a concave domain, with one-sided tail slack.

    Dropped balls only lower the values, so the computed series is a
    certified lower envelope; the tail bound feeds the upper slack.
    """
    t = tree if tree is not None else concave_weights(d, limits)
    weights = t.weight_multiset()  # h-order: weights descending
    zero = (t.head if t.head is not None else (weights[0] if weights else Fraction(0)))
    tail = t.truncation.dropped_tail_sum
    upper = None
    if tail > 0:  # d(k)*tail at the tail's binade, rounded up, never 0.0 below the float range
        e = binade(tail)
        unit = math.ldexp(tail, -e) if isinstance(tail, float) else float(tail * Fraction(2) ** -e)
        upper = [_ldexp_up(dk * unit, e) for dk in d_values(K)]
    s = union_of_balls(weights, K, zero - zero)
    return CapacitySeries(s.method, s.num, s.den, upper_slack=upper,
                          source=f"concave:{d.kind}", backend=t.backend,
                          meta={"dropped_tail_sum": float(tail)})


# ---------------------------------------------------------------------------
# convex route: corner-complement infimum with certified pruning
# ---------------------------------------------------------------------------

class _ScanData:
    """What the convex scan reads of a weight tree.

    The head c and the kept weights ws, sorted down, are ints over one
    denominator `den` for rational data; floats and Quads stay as they are,
    with den None (the scan runs Quads as the ints of `_quad_ints`).  Every
    float the stopping test reads is an exact value times 2^-e, 2^e the
    binade of the head, rounded once: a power of two commutes with rounding
    in the normal range, so at any scale the test and the slack are those
    of the unit-size domain.

    The stopping bound.  A ball has c_j(B(w)) = w*d(j), and
    d(j) < sqrt(2j + 9/4) - 1/2 since (d-1)(d+2)/2 < j, so a ball of the
    dropped tail has d(j) < sqrt(2j) + 1.  Split s among the n kept balls
    and the tail's, and Cauchy-Schwarz over all of them, with sum w^2 = 2v
    (v = c^2/2 - area, the area between the domain and its circumscribed
    triangle), bounds the table of the complete tree:
    M(s) <= sqrt(4v(s + 9n/8)) - w_kept/2 + w_tail.  With
    d(k+s) >= sqrt(2(k+s)) - 3/2, every candidate c*d(k+u) - M(u) of the
    complete tree is at least
    lb(u) = c(sqrt(2(k+u)) - 1.5) - sqrt(4v(u + 9n/8)) + w_kept/2 - w_tail.
    The derivative of lb has the sign of u(c^2 - 2v) + 9nc^2/8 - 2vk, so lb
    falls to its minimum at t_star = (2vk - 9nc^2/8)/(c^2 - 2v) and rises
    after it: lb(max(s+1, t_star)) bounds every candidate beyond s."""

    def __init__(self, tree: WeightTree):
        multiset = tree.weight_multiset()
        self.den, (self.c, *self.ws) = _scaled([tree.head] + multiset)  # h-order: descending
        self.e = binade(tree.head)
        self.unit = Fraction(2) ** -self.e
        trunc = tree.truncation
        self.c_f, self.tail = self.sf(tree.head), self.sf(trunc.dropped_tail_sum)
        self.v = (sum((self.sf(x) ** 2 for x in multiset), 0.0)
                  + self.sf(trunc.dropped_tail_sq, 2)) / 2.0
        self.m = 9 * len(multiset) / 8
        self.lift = self.sf(sum(multiset, tree.head - tree.head)) / 2 - self.tail
        self.gap = max(self.c_f * self.c_f - 2 * self.v, 1e-300)

    def sf(self, x, power=1) -> float:
        """float(x * 2^(-e * power))"""
        if isinstance(x, float):
            return math.ldexp(x, -self.e * power)
        return float(x * self.unit ** power)

    def t_star(self, k):
        return (2 * self.v * k - self.c_f * self.c_f * self.m) / self.gap

    def clears(self, k, t_star, s, cand_f, fbest) -> bool:
        """The stopping test after the candidate at s: lb(max(s+1, t_star))
        clears the best candidate by a margin relative to it (b > 0 for
        every k >= 1)."""
        b = min(cand_f, fbest)
        u = max(s + 1, t_star)
        floor = (self.c_f * (math.sqrt(2 * (k + u)) - 1.5) - math.sqrt(4 * self.v * (u + self.m))
                 + self.lift)
        return floor >= b + 1e-9 * abs(b)

    def stop_bound(self, k: int, target: float) -> float:
        """A u by which row k stops once its best is at most `target`, in
        the test's units: lb(u) >= target*(1 + 1e-6) for every u >= t_star
        past the root of that equation, a quadratic in x = sqrt(u + 9n/8)."""
        r = target * (1 + 1e-6) + 1.5 * self.c_f - self.lift
        D = 2 * self.gap
        disc = r * r - D * (k - self.m)
        u = self.t_star(k)
        if disc >= 0:
            x = (2 * math.sqrt(self.v) * r + math.sqrt(2) * self.c_f * math.sqrt(disc)) / D
            u = max(u, x * x - self.m)
        return u


def _envelope(c, idx: list, val: list, S: int, K: int) -> list:
    """c_1..c_K as the least of the level ends f_t(k) = c*t - M[T_t - k],
    T_t = t(t+3)/2, over the levels t >= d(k) whose end lies in a table M
    of the indices 0..S, held as a staircase (idx, val).

    Sweep k from K down to 1.  Each f_t can only fall as k does, and only at
    the k where T_t - k is a breakpoint of M; level t joins at k = T_t,
    where T_t - k = 0 is one.  So c_k is the least of c_{k+1} and the levels
    that fall or join at k, and the sweep visits these events alone: the
    breakpoints in each level's window [T_t - K, T_t - 1], cut at S.  Past
    the cut a level's last value stays in the running minimum.  It is no
    lower than a candidate of each row below, so a row's value lies between
    its c_k and the least of its own level ends, which the row's
    certificate makes equal."""
    t_max = d_index(S + K + 1) - 1  # the last level that row K reads
    low = [c * (t_max + 1)] * (K + 1)  # above every candidate
    for t in range(1, t_max + 1):
        T, x = t * (t + 3) // 2, c * t
        i, j = bisect_right(idx, T - K), bisect_right(idx, min(T - 1, S))
        if i:  # the level's value at k = K, before its first event
            low[K] = min(low[K], x - val[i - 1])
        for b, v in zip(idx[i:j], val[i:j]):
            y = x - v
            if y < low[T - b]:
                low[T - b] = y
    return list(accumulate(low[:0:-1], min))[::-1]


def _ldexp_up(x: float, e: int) -> float:
    """x*2^e rounded up for x > 0: ldexp rounds to nearest, and below the
    float range to 0.0, where a slack would understate the error."""
    y = math.ldexp(x, e)
    return math.nextafter(y, math.inf) if x > 0 and math.ldexp(y, -e) < x else y


def _convex_scan(data: _ScanData, K: int, s_ceiling: int = 200_000) -> CapacitySeries:
    """c_k = min_s c*d(k+s) - M(s) for k = 0..K, with the certified lower
    slack (Cristofaro-Gardiner, "Symplectic embeddings from concave toric
    domains into convex ones", JDG 2019).

    M does not decrease, so the best candidate of a level {s : d(k+s) = t}
    is its end, and c_k is the lower envelope of the level ends in the
    table (`_envelope`).  One stopping test per level block
    (`_ScanData.clears`) certifies that no later candidate is lower.  A
    block is the rows k0..k1 whose last level in the table is the same t,
    T_t <= S + k < T_{t+1}; row k's test is lb(k, ·) at max(T_t - k + 1,
    t_star(k)) against env[k-1].  lb rises with k at fixed u, every row's u
    is at least T_t - k1 + 1, where lb(k0, ·) is least at
    max(T_t - k1 + 1, t_star(k0)), and env does not decrease: so lb(k0, ·)
    there against env[k1-1] certifies every row of the block.  A block that
    fails is halved, down to the rows one at a time.  The table is sized
    from the volume: c_k^2 / 4k tends to the area, gap/2 in the test's
    units, and `_ScanData.stop_bound` gives the index by which a row of that
    value stops.  The slack is 0 without a dropped tail.

    Q(sqrt d) data run as the ints of `_quad_ints`, sized for candidates of
    up to s_ceiling + K + d(s_ceiling + K) inputs, and turn back into Quads
    for `floats`, the rows and `PruningBoundExceeded.best`.  A row with a
    tail, over Q(sqrt d) (whose floats need not keep the order of the
    values), or that the table does not certify is walked as the stopping
    rule reads it: the end of each level up to the first where the
    test holds, then a bisection of that level, which the test splits in two
    because inside a level the candidate falls and lb rises.  The walk grows
    the table as it needs.  Its stop index sets the slack, and a walk past
    `s_ceiling` raises `PruningBoundExceeded`; rows run in increasing k, so
    it names the smallest such k."""
    c, ws, den, tail, e, unit = data.c, data.ws, data.den, data.tail, data.e, data.unit
    back = None
    if den is not None:  # x/den * 2^-e = x*un/ud, rounded once
        un, ud = unit.numerator, den * unit.denominator

        def floats(x):
            return x * un / ud
    elif isinstance(c, float):
        def floats(x):
            return math.ldexp(x, -e)
    else:  # Q(sqrt d): c and ws as the ints of `_quad_ints`, decoded for floats and output
        (c, *ws), back = _quad_ints([c, *ws], s_ceiling + K + d_index(s_ceiling + K))

        def floats(x):
            x = back(x)
            return float(x * unit if e else x)

    def stop(k, target):  # the end of the level where row k stops once its best is at most target
        u = data.stop_bound(k, target)
        if not u < s_ceiling:  # past the ceiling, or nan
            return s_ceiling
        t = d_index(k + (math.ceil(u) - 1 if u > 1 else 0))
        return min(t * (t + 3) // 2 - k, s_ceiling)

    # every row's first level ends by index d(K)
    S = max(stop(K, math.sqrt(2 * data.gap * K)), d_index(K))
    idx, val = _ball_stairs(ws, S)
    num, slack = [c - c] + [None] * K, [0.0] * (K + 1)
    if not tail and back is None:
        env, k = _envelope(c, idx, val, S, K), 1
        while k <= K:  # rows k..k1 end their last level in the table at T
            t = d_index(S + k + 1) - 1
            T, k1 = t * (t + 3) // 2, min(K, (t + 1) * (t + 4) // 2 - S - 1)
            blocks = [(k, k1)]
            while blocks:
                a, b = blocks.pop()
                fb = floats(env[b - 1])
                if T - a <= s_ceiling and data.clears(a, data.t_star(a), T - b, fb, fb):
                    num[a:b + 1] = env[a - 1:b]
                elif a < b:
                    blocks += [((a + b) // 2 + 1, b), (a, (a + b) // 2)]
            k = k1 + 1
    M = _dense(idx, val, S)

    def walk(k):
        nonlocal M
        t, t_star = d_index(k), data.t_star(k)
        s0, best, fbest, lo = 0, None, math.inf, math.inf
        while True:
            s1 = t * (t + 3) // 2 - k  # the level d(k+s) = t ends at s1
            p = min(s1, len(M) - 1, s_ceiling)
            cp = c * t - M[p]
            cf = floats(cp)
            stop_here = data.clears(k, t_star, p, cf, fbest)
            if stop_here:
                a, b = s0, p
                while a < b:
                    mid = (a + b) // 2
                    if data.clears(k, t_star, mid, floats(c * t - M[mid]), fbest):
                        b = mid
                    else:
                        a = mid + 1
                p = a
                cp = c * t - M[p]
                cf = floats(cp)
            if best is None or cp < best:
                best, fbest = cp, cf
            if stop_here:
                return best, _ldexp_up(fbest - min(lo, cf - d_index(p) * tail), e)
            if p == s_ceiling:
                best = back(best) if back else best if den is None else Fraction(best, den)
                raise PruningBoundExceeded(f"no certificate after {s_ceiling} complement indices",
                                           best=best)
            if p < s1:  # the table ends inside the level: grow it past the row's stop
                s0 = p + 1
                M = _ball_list(ws, max(stop(k, fbest), p + 1))
            else:
                lo = min(lo, cf - d_index(p) * tail)
                s0, t = s1 + 1, t + 1

    for k in range(1, K + 1):
        if num[k] is None:
            num[k], slack[k] = walk(k)
    if back:
        num = list(map(back, num))
    return CapacitySeries(method="decomposition", num=num, den=den, lower_slack=slack)


def convex_capacity(d: DomainDescriptor, K: int,
                    limits: TruncationLimits | None = None,
                    tree: WeightTree | None = None) -> CapacitySeries:
    """Capacities of a convex domain from its weight expansion, by the
    certified scan `_convex_scan`."""
    t = tree if tree is not None else convex_weights(d, limits)
    series = _convex_scan(_ScanData(t), K)
    return CapacitySeries(series.method, series.num, series.den, series.lower_slack,
                          upper_slack=[0.0] * (K + 1), source=f"convex:{d.kind}",
                          backend=t.backend,
                          meta={"head": float(t.head),
                                "dropped_tail_sum": float(t.truncation.dropped_tail_sum)})
