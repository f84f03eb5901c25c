"""Capacity sequences: decomposition DP, nef enumeration, closed forms.

Two independent routes compute the same numbers:

* the decomposition route expresses a domain through its weight
  expansion as balls, combines them with max-plus convolution, and for
  convex domains evaluates the corner-complement infimum
  ``inf_{k2,k3} c_{k+k2+k3}(B(c)) - c_{k2} - c_{k3}`` with a certified
  stopping rule;
* the enumeration route minimizes D.A over nef integer classes with
  D.(D-K) >= 2k on a tower surface, by depth-first search with residual
  caps per boundary curve and one prune, a Cauchy-Schwarz bound from the
  quadratic budget sum m_i(m_i + 1) <= d(d+3) - 2k.

Exact backends flow through both routes unchanged, so agreement is
exact, which is what the oracle-equivalence tests assert.

Everything runs on Python ints, floats and Quads, for rational, float and
Q(sqrt d) data alike: the closed forms, the series and their output, the
unions of balls (`_ball_stairs`, which holds each table by the indices
where it rises and folds each run of equal exact weights as one
staircase) and the convex scan (`_convex_scan`, the lower envelope of the
level ends, swept over the table's breakpoints), both on ints for exact
data: Q(sqrt d) values as the exactly ordered ints of `_quad_ints`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, groupby, repeat

from .errors import (
    BelowThreshold,
    CapaxError,
    CeilingExceeded,
    PruningBoundExceeded,
    SearchSpaceEmpty,
)
from .scalars import (
    Column,
    Quad,
    backend_of,
    binade,
    format_ratio,
    format_scalar,
    rational_parts,
    write_csv,
)
from .domains import BoundaryProfile, DomainDescriptor, validate
from .weights import TruncationLimits, WeightTree, concave_weights, convex_weights


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


def d_values(K: int) -> list[int]:
    """[d_index(k) for k in range(K + 1)]: level t >= 1 covers the t + 1
    indices (t-1)(t+2)/2 < k <= t(t+3)/2."""
    out = [0]
    t = 1
    while len(out) <= K:
        out += [t] * (t + 1)
        t += 1
    del out[K + 1:]
    return out


class CapacitySeries:
    """c_0..c_K with per-entry slack; values stay in the input backend.

    `num` is a list.  Rational values are ints over one denominator `den`:
    c_k = num[k]/den.  Quad and float values have `den` None and sit in
    `num` as they are."""

    __slots__ = ("method", "num", "den", "lower_slack", "upper_slack", "source", "backend",
                 "meta")

    def __init__(self, method: str, num: list, den: int | None = None,
                 lower_slack: list | None = None, upper_slack: list | None = None,
                 source: str = "", backend: str = "exact", meta: dict | None = None):
        self.method = method
        self.num = num
        self.den = den
        self.lower_slack = lower_slack
        self.upper_slack = upper_slack
        self.source = source
        self.backend = backend
        self.meta = {} if meta is None else meta

    @property
    def kmax(self) -> int:
        return len(self.num) - 1

    @property
    def values(self) -> list:
        if self.den is None:
            return list(self.num)
        return [Fraction(n, self.den) for n in self.num]

    def value(self, k: int):
        return self.num[k] if self.den is None else Fraction(self.num[k], self.den)

    def lo(self, k: int) -> float:
        s = self.lower_slack[k] if self.lower_slack else 0.0
        return float(self.value(k)) - float(s)

    def hi(self, k: int) -> float:
        s = self.upper_slack[k] if self.upper_slack else 0.0
        return float(self.value(k)) + float(s)

    def float_values(self) -> list[float]:
        return list(self.iter_floats())

    def iter_floats(self):
        """c_k as correctly rounded floats (int / int rounds once), one at a time."""
        return map(float, self.num) if self.den is None else (n / self.den for n in self.num)

    def assert_nondecreasing(self):
        """c_0 = 0 and c_k >= c_{k-1}, exactly on exact data."""
        c = self.num
        tol = 1e-12 if isinstance(c[-1], float) else 0
        if c[0] != 0:
            raise AssertionError("series must start at c_0 = 0")
        down = next((k for k in range(1, len(c)) if c[k] < c[k - 1] - tol), None)
        if down is not None:
            raise AssertionError(f"series decreases at k={down}")

    def _value_column(self) -> Column:
        if self.den is None:
            return Column(self.num, format_scalar)
        den = self.den
        return Column(self.num, str if den == 1 else lambda n: format_ratio(n, den))

    def to_json(self) -> dict:
        """The JSON document, its arrays as Columns for `write_json`."""
        return {
            "schema": "capax.capacities.v1",
            "method": self.method,
            "backend": self.backend,
            "source": self.source,
            "kmax": self.kmax,
            "values": self._value_column(),
            "lower_slack": Column(self.lower_slack) if self.lower_slack else None,
            "upper_slack": Column(self.upper_slack) if self.upper_slack else None,
            "meta": self.meta,
        }

    def to_csv(self, write) -> None:
        """The CSV rows, in chunks to `write`."""
        write_csv(write, f"# capax-csv v1 capacities method={self.method} source={self.source}\n"
                         "k,c_k,lower_slack,upper_slack,method\n",
                  range(len(self.num)),
                  [self._value_column(),
                   Column(self.lower_slack) if self.lower_slack else "0.0",
                   Column(self.upper_slack) if self.upper_slack else "0.0"],
                  "," + self.method)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

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
        if isinstance(sa, Quad):
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


# ---------------------------------------------------------------------------
# max-plus convolution and the concave route
# ---------------------------------------------------------------------------

def _scaled(xs: list) -> tuple[int | None, list]:
    """Rational data as Python ints over their common denominator; floats
    and Quads come back as they are, with denominator None."""
    if all(isinstance(x, (int, Fraction)) for x in xs):
        den = math.lcm(*(Fraction(x).denominator for x in xs))
        return den, [int(x * den) for x in xs]
    return None, list(xs)


def _quad_pairs(ws: list):
    """Weights over one field Q(sqrt d) as int pairs over a common
    denominator D, w = (p + q*sqrt d)/D, rationals lifted with q = 0.

    Returns (d, D, [(p, q)]), or None for other data."""
    fields = {w.d for w in ws if isinstance(w, Quad)}
    if len(fields) != 1 or not all(isinstance(w, (int, Fraction, Quad)) for w in ws):
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


def union_of_balls(weights: list, K: int, zero) -> CapacitySeries:
    """Max-plus union of ball series, folded as staircases (`_ball_list`)."""
    if not weights:
        return CapacitySeries(method="decomposition", num=[zero] * (K + 1))
    den, ws = _scaled(weights)
    return CapacitySeries(method="decomposition", num=_ball_list(ws, K), den=den)


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
    tail_f = float(tail)
    upper = [dk * tail_f for dk in d_values(K)] if tail > 0 else None
    s = union_of_balls(weights, K, zero - zero)
    return CapacitySeries(s.method, s.num, s.den, upper_slack=upper,
                          source=f"concave:{d.kind}", backend=t.backend,
                          meta={"dropped_tail_sum": tail_f})


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
    if not tail and not isinstance(data.c, Quad):
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
                return best, math.ldexp(fbest - min(lo, cf - d_index(p) * tail), e)
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


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def _polygon_closed_form(d: DomainDescriptor, profile: BoundaryProfile,
                         K: int) -> CapacitySeries | None:
    """The closed form of a polygon that has one: a convex box is a
    polydisk, and a rational triangle (0,0),(a,0),(0,b) is E(a, b).
    Float and Q(sqrt d) triangles keep the weight route."""
    chain = profile.chain
    if len(chain) == 3 and d.orientation == "convex":
        (x0, y0), (x1, y1), (x2, y2) = chain
        if d.zero(x0) and d.equal(y1, y0) and d.equal(x1, x2) and d.zero(y2):
            return polydisk_capacities(x1, y0, K)  # width, height
    if len(chain) == 2 and d.backend == "exact":
        (_, b), (a, _) = chain
        return ellipsoid_capacities(a, b, K)
    return None


# the largest kmax `series_for_domain` computes.  Output is streamed, so the
# lists a command holds set the peak: 39-46 bytes per value of max-RSS over
# the interpreter's 16 MB for the closed forms (ball, ellipsoid, square, at
# kmax 4*10^6, JSON and CSV), and 83 for `errors`, which holds the e_k too.
# At this ceiling `errors` on a ball peaks near 1.0 GB
MAX_KMAX = 12_000_000


def series_for_domain(d: DomainDescriptor, K: int,
                      limits: TruncationLimits | None = None) -> CapacitySeries:
    """Pick the natural route for the descriptor, after validating it."""
    if not 0 <= K <= MAX_KMAX:
        raise CapaxError(f"kmax must be between 0 and {MAX_KMAX}, got {K}")
    profile = validate(d)
    if d.kind == "ellipsoid":
        if d.is_ball():
            return ball_capacities(d.a, K)
        return ellipsoid_capacities(d.a, d.b, K)
    if d.kind == "polygon":
        closed = _polygon_closed_form(d, profile, K)
        if closed is not None:
            return closed
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
        series = convex_capacity(poly, K, limits)
        r = float(d.params[-1])
        lam = hb / max(r - hb, 1e-9)
        base = series.upper_slack or [0.0] * (K + 1)
        series.upper_slack = [u + lam * c for u, c in zip(base, series.float_values())]
        series.source = f"curve:{d.curve}"
        series.backend = "float"
        return series
    raise ValueError(f"unknown domain kind {d.kind!r}")
