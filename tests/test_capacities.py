import functools
import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capax import capacities, domains
from capax.errors import BelowThreshold, CapaxError, PruningBoundExceeded, SearchSpaceEmpty
from capax.capacities import (
    _EnumContext,
    _scaled,
    CapacitySeries,
    alg_capacity_enum,
    alg_capacity_series,
    ball_capacities,
    c_plus,
    c_plus_reference,
    concave_capacity,
    convex_capacity,
    d_index,
    d_values,
    dkn_upper_data,
    ellipsoid_capacities,
    polydisk_capacities,
    series_for_domain,
    square_capacities,
    tower_capacities,
    tower_capacity,
    union_of_balls,
    _ball_list,
    _ball_stairs,
    _convex_scan,
    _envelope,
    _group_costs,
    _quad_ints,
    _quad_pairs,
    _ScanData,
    _stairs,
)
from capax.obstructions import obstruct
from capax.scalars import Quad, _is_squarefree, format_ratio, format_scalar, quad_sign, write_json
from capax.tower import _dot, blowup, build_tower, p2_init
from capax.weights import TruncationLimits, concave_weights, convex_weights
from conftest import convex_hull, dense_class, random_convex_polygon

PHI = (1 + math.sqrt(5)) / 2
FIG = domains.polygon([(0, 0), (4, 0), (4, 1), (2, 3), (0, 4)], "convex")
P6 = domains.polygon([(0, 0), (7, 0), (7, 2), (5, "9/2"), (2, 6), (0, 6)], "convex")
_rng = random.Random(1)
DRAWS = [random_convex_polygon(_rng) for _ in range(2)]  # two rational polygons

# convex_capacity(golden_triangle(), 30, TruncationLimits(eps=1e-10)) as the
# object-array Quad fold computed it: the formatted values and lower_slack
GOLDEN_K30_VALUES = [
    '0', '1', '1/2+1/2*sqrt', '2', '3/2+1/2*sqrt', '3', '1+1*sqrt', '5/2+1/2*sqrt',
    '4', '2+1*sqrt', '7/2+1/2*sqrt', '3/2+3/2*sqrt', '5', '3+1*sqrt', '9/2+1/2*sqrt',
    '5/2+3/2*sqrt', '6', '4+1*sqrt', '2+2*sqrt', '11/2+1/2*sqrt', '7/2+3/2*sqrt', '7',
    '5+1*sqrt', '3+2*sqrt', '13/2+1/2*sqrt', '9/2+3/2*sqrt', '8', '5/2+5/2*sqrt',
    '6+1*sqrt', '4+2*sqrt', '15/2+1/2*sqrt']
GOLDEN_K30_LOWER_SLACK = [
    0.0, 2.435389667709842e-10, 4.870779335419684e-10, 2.435389667709842e-10,
    4.870779335419684e-10, 4.870779335419684e-10, 4.870779335419684e-10,
    7.306169003129526e-10, 7.306169003129526e-10, 4.870779335419684e-10,
    9.741558670839368e-10, 7.306173444021624e-10, 7.306173444021624e-10,
    7.306173444021624e-10, 9.741558670839368e-10, 9.741558670839368e-10,
    9.741558670839368e-10, 9.741558670839368e-10, 1.2176952779441308e-09,
    1.2176952779441308e-09, 1.2176952779441308e-09, 9.741558670839368e-10,
    9.741558670839368e-10, 1.4612338006259051e-09, 1.2176952779441308e-09,
    1.2176952779441308e-09, 1.2176952779441308e-09, 1.217694389765711e-09,
    1.217694389765711e-09, 1.4612346888043248e-09, 1.4612346888043248e-09]


@functools.cache
def golden_ellipsoid_values(K):
    """c_0..c_K of E(1, phi), computed in Q(sqrt 5), as floats."""
    phi = Quad(Fraction(1, 2), Fraction(1, 2), 5)
    return ellipsoid_capacities(Quad(1, 0, 5), phi, K).float_values()


FLOAT_P6 = domains.polygon([(x * PHI, y * PHI) for x, y in P6.vertices], "convex",
                           backend="float", eps=1e-9)


# lower_slack of truncated scans as maxplus._convex_scan and the former
# Python row walk both computed it, before either was replaced by the
# envelope sweep: sha256 of the comma-joined reprs
FORMER_SCAN_SLACK = {
    "float-p6-120": "c489029e2b538afbfdf07162fd68f780bfe23a8e849d0eb64fe9855556c3e93d",
    "float-golden-eps-1e-6": "b1a98744f6f5b9086b2591a5220353e591b001fd7a2570d5856a3fd295269611",
    "float-fig-phi-eps": "b0132277e22d6fc749580d914f1aea67c45e8b1d6da242629e1194bb8245a094",
    "fig-1e-200-depth": "15f1415c025f2862438e99dee86733f65da5fa247b5135e7a6fd1a97e8790bed",
    "p6-1e-200-depth": "c8d28aa45ff34f2cf8d71fd6f1712726750f1ebb2caddded20acaa74a6613a8b",
    "p6-1e-200-eps": "dfefbb9d7a34477e4c61e75c4064ea21e0d450629637705b7c5f26840fb70373",
    "thin-1e-200-eps": "319b716500d752aa2c9f9d15556cf3f7d3055b9472e68c14960782e7930192c9",
    "p6-1e-330-depth": "fa2bd8b2d245fe7dd9e79d9755426228c8e86f0911c0a02b2647f16293a55722",
    "p6-1e-330-eps": "fa2bd8b2d245fe7dd9e79d9755426228c8e86f0911c0a02b2647f16293a55722",
}


def slack_digest(slack):
    return hashlib.sha256(",".join(map(repr, slack)).encode()).hexdigest()


def slack_case(case):
    """The domain, K and limits of a FORMER_SCAN_SLACK case."""
    if case == "float-p6-120":
        return FLOAT_P6, 120, None
    if case == "float-golden-eps-1e-6":
        d = domains.polygon([(0, 0), (1, 0), (0, PHI)], "convex", backend="float", eps=1e-9)
        return d, 200, TruncationLimits(eps=1e-6)
    if case == "float-fig-phi-eps":
        d = domains.polygon([(float(x) * PHI, float(y) * PHI) for x, y in FIG.vertices],
                            "convex", backend="float", eps=1e-9 * PHI)
        return d, 200, TruncationLimits(eps=0.3 * PHI)
    name, rest = case.split("-", 1)
    scale, cut = rest.rsplit("-", 1)
    lam = Fraction(1, 10 ** int(scale[3:]))  # scale is "1e-N"
    d = {"fig": FIG, "p6": P6,
         "thin": domains.polygon([(0, 0), ("1/2", 0), (0, "1/4")], "convex")}[name]
    # P6 drops a tail at eps 1 (2 * lam), the thin triangle at eps 0.3
    # (lam / 2); a float eps that underflows is raised to the least subnormal
    eps = max(float((Fraction(3, 10) if name == "thin" else 1) * lam), 5e-324)
    limits = TruncationLimits(max_depth=1) if cut == "depth" else TruncationLimits(eps=eps)
    return scaled(d, lam), 200, limits


def golden_triangle(orientation="convex"):
    """The triangle (0,0), (1,0), (0,phi) over Q(sqrt 5)."""
    z, one = Quad(0, 0, 5), Quad(1, 0, 5)
    phi = Quad(Fraction(1, 2), Fraction(1, 2), 5)
    return domains.polygon([(z, z), (one, z), (z, phi)], orientation, backend="sqrt:5")


class TestClosedForms:
    def test_ball_sequence(self):
        s = ball_capacities(Fraction(1), 6)
        assert s.values == [0, 1, 1, 2, 2, 2, 3]
        assert ball_capacities(Fraction(5), 1).value(1) == 5
        assert ball_capacities(Fraction(2), 2).value(2) == 2

    def test_ellipsoid_sequence(self):
        s = ellipsoid_capacities(Fraction(1), Fraction(2), 5)
        assert s.values == [0, 1, 2, 2, 3, 3]
        b = ellipsoid_capacities(Fraction(1), Fraction(1), 12)
        assert b.values == ball_capacities(Fraction(1), 12).values
        e = ellipsoid_capacities(1.0, PHI, 3)
        assert float(e.value(3)) == pytest.approx(2.0)

    def test_square_sequence(self, unit_square):
        s = square_capacities(Fraction(1), 8)
        assert s.values == [0, 1, 2, 2, 3, 3, 4, 4, 4]
        assert s.values == convex_capacity(unit_square, 8).values

    def test_polydisk_general(self):
        s = polydisk_capacities(Fraction(1), Fraction(2), 6)
        # min{m + 2n : (m+1)(n+1) >= k+1}
        brute = []
        for k in range(7):
            best = min(m + 2 * n for m in range(20) for n in range(20)
                       if (m + 1) * (n + 1) >= k + 1)
            brute.append(best)
        assert [float(v) for v in s.values] == brute

    @pytest.mark.parametrize("w, h", [(Fraction(1), Fraction(1)),
                                      (Fraction(3, 2), Fraction(5, 7)), (2, Fraction(1, 3)),
                                      (Fraction(1, 10), 3)])
    def test_polydisk_integer_path_is_exact(self, w, h):
        # against every m with its least partner n, in ints over the common
        # denominator D
        s = polydisk_capacities(w, h, 300)
        D = math.lcm(Fraction(w).denominator, Fraction(h).denominator)
        W, H = int(w * D), int(h * D)
        assert s.values == [Fraction(min(W * m + H * (-(-(k + 1) // (m + 1)) - 1)
                                         for m in range(k + 1)), D) for k in range(301)]
        assert all(isinstance(v, Fraction) for v in s.values)

    def test_builders_match_brute_force(self):
        # the builders against brute force at small K: the (m, n) grid for
        # polydisks, the sorted lattice for ellipsoids
        K = 30
        grid = [(m, n) for m in range(K + 1) for n in range(K + 1)]
        for w, h in ((Fraction(1), Fraction(1)), (Fraction(3, 2), Fraction(5, 7)),
                     (Fraction(1, 10), Fraction(1)), (1.0, 1.0), (1.5, 0.7), (0.1, 0.3),
                     (0.1, 1.0)):
            brute = [min(w * m + h * n for m, n in grid if (m + 1) * (n + 1) >= k + 1)
                     for k in range(K + 1)]
            assert polydisk_capacities(w, h, K).values == pytest.approx(brute, rel=1e-15)
            assert square_capacities(w, K).values == pytest.approx(
                [min(w * (m + n) for m, n in grid if (m + 1) * (n + 1) >= k + 1)
                 for k in range(K + 1)], rel=1e-15)
        for a, b in ((Fraction(1), Fraction(2)), (Fraction(3, 2), Fraction(5, 7)), (1.0, PHI)):
            lattice = sorted(a * m + b * n for m, n in grid)[: K + 1]
            assert ellipsoid_capacities(a, b, K).values == pytest.approx(lattice, rel=1e-15)

    def test_float_golden_ellipsoid_is_sorted(self):
        # float legs compare exactly in the sort; sums within the input
        # tolerance of each other once came out in the wrong order
        d = domains.ellipsoid(1.0, PHI, backend="float", eps=1e-3)
        got = np.asarray(series_for_domain(d, 1000).float_values())
        assert np.all(np.diff(got) >= 0)
        lattice = sorted(m + n * PHI for m in range(100) for n in range(100))[:1001]
        assert np.max(np.abs(got - lattice)) <= 1e-12

    def test_d_values_matches_d_index(self):
        assert d_values(2 * 10**5) == [d_index(k) for k in range(2 * 10**5 + 1)]
        assert ball_capacities(Fraction(3, 2), 300).values == [
            Fraction(3, 2) * d_index(k) for k in range(301)]


def union_capacities(series: list, K: int) -> CapacitySeries:
    """The generic max-plus union c_k = max_{i+j=k} c_i + c_j of the
    inputs, one pair at a time: the oracle for union_of_balls' fold."""
    vals = series[0].values[: K + 1]
    for s in series[1:]:
        g = s.values[: K + 1]
        vals = [max(vals[i] + g[k - i]
                    for i in range(max(0, k - len(g) + 1), min(k, len(vals) - 1) + 1))
                for k in range(K + 1)]
    return CapacitySeries(method="decomposition", num=vals)


class TestUnion:
    def test_two_unit_balls_give_e12(self):
        b = ball_capacities(Fraction(1), 8)
        u = union_capacities([b, b], 8)
        assert u.values == ellipsoid_capacities(Fraction(1), Fraction(2), 8).values
        assert u.value(4) == 3 and u.value(2) == 2

    def test_identity_with_empty(self):
        b = ball_capacities(Fraction(2), 5)
        assert union_capacities([b], 5).values == b.values

    def test_associative(self):
        b1 = ball_capacities(Fraction(1), 10)
        b2 = ball_capacities(Fraction(2), 10)
        b3 = ball_capacities(Fraction(1, 2), 10)
        left = union_capacities([union_capacities([b1, b2], 10), b3], 10)
        right = union_capacities([b1, union_capacities([b2, b3], 10)], 10)
        assert left.values == right.values

    def test_fast_fold_matches_generic(self):
        ws = [Fraction(3, 2), Fraction(1), Fraction(1, 2), Fraction(1, 2)]
        fast = union_of_balls(ws, 30, Fraction(0)).values
        slow = union_capacities([ball_capacities(w, 30) for w in ws], 30).values
        assert fast == slow


class TestConcave:
    def test_triangle_matches_ellipsoid(self, e12_triangle):
        got = concave_capacity(e12_triangle, 10)
        want = ellipsoid_capacities(Fraction(1), Fraction(2), 10)
        assert got.values == want.values

    def test_standard_triangle_is_ball(self):
        got = concave_capacity(domains.ellipsoid(3, 3), 8)
        assert got.values == ball_capacities(Fraction(3), 8).values

    def test_truncation_slack_covers_tail(self):
        E = domains.ellipsoid(1.0, PHI, backend="float")
        coarse = concave_capacity(E, 60, TruncationLimits(eps=1e-3))
        fine = concave_capacity(E, 60, TruncationLimits(eps=1e-12))
        for k in range(61):
            assert coarse.lo(k) - 1e-9 <= fine.value(k) <= coarse.hi(k) + 1e-9



class TestConvex:
    def test_fig_first_value(self, fig_polygon):
        s = convex_capacity(fig_polygon, 1)
        assert s.value(1) == 4  # B(4) sits inside the domain

    def test_square_spot(self, unit_square):
        assert convex_capacity(unit_square, 2).value(2) == 2

    def test_triangle_equals_ball(self):
        got = convex_capacity(domains.ellipsoid(2, 2), 12)
        assert got.values == ball_capacities(Fraction(2), 12).values

    def test_weight_list_route(self):
        wl = domains.weight_list("5", ["1", "1", "1"])
        fig = domains.polygon([(0, 0), (4, 0), (4, 1), (2, 3), (0, 4)], "convex")
        assert convex_capacity(wl, 12).values == convex_capacity(fig, 12).values

    def test_e12_convex_equals_concave(self):
        # the triangle with legs 1,2 read as a convex domain
        conv = domains.polygon([(0, 0), (2, 0), (0, 1)], "convex")
        got = convex_capacity(conv, 15)
        want = ellipsoid_capacities(Fraction(1), Fraction(2), 15)
        assert got.values == want.values

    def test_quad_backend_convex_route(self):
        # golden-ratio triangle through the exact quadratic-field DP
        d = golden_triangle()
        got = convex_capacity(d, 30, TruncationLimits(eps=1e-10))
        assert [format_scalar(v) for v in got.values] == GOLDEN_K30_VALUES
        assert got.lower_slack == GOLDEN_K30_LOWER_SLACK
        oracle = ellipsoid_capacities(1.0, PHI, 30)
        for k in range(31):
            assert float(got.value(k)) == pytest.approx(
                float(oracle.value(k)), abs=got.lower_slack[k] + 1e-9)

    def test_truncated_tower_bracket(self):
        d = golden_triangle()
        tree = convex_weights(d, TruncationLimits(eps=1e-5))
        tw = build_tower(tree)
        oracle = ellipsoid_capacities(1.0, PHI, 9)
        for k in (1, 4, 9):
            res = tower_capacity(tw, k)
            lo, hi = res.bracket
            assert lo - 1e-9 <= float(oracle.value(k)) <= hi + 1e-9


def scan_data(d, limits=None):
    """The weight tree of a convex polygon, the area between it and its
    circumscribed triangle, and its full weight sum: the scan's inputs."""
    tree = convex_weights(d, limits)
    profile = domains.validate(d)
    c_f = float(tree.head)
    w_total = 3 * c_f - (float(profile.a) + float(profile.b)
                         + float(profile.total_affine_plus))
    return tree, max(c_f ** 2 / 2.0 - float(domains.area(d)), 0.0), w_total


def reference_scan(d, K, limits=None, s_ceiling=None):
    """The index-by-index certified infimum scan of the convex route.

    c_k = min_s c*d(k+s) - M(s) over s up to the first index at which the
    lower bound for all later candidates clears the best one; the lower
    slack is the best value minus min_s cand(s) - d(s)*tail.  A k whose
    scan passes s_ceiling raises PruningBoundExceeded, with that k as the
    error's `k`."""
    tree, v, w_total = scan_data(d, limits)
    c, c_f = tree.head, float(tree.head)
    tail = float(tree.truncation.dropped_tail_sum)
    weights = sorted(tree.weight_multiset(), key=float, reverse=True)
    # M(s) <= sqrt(4v(s + 9n/8)) - w_kept/2 + w_tail over the n kept balls
    m, lift = 9 * len(weights) / 8, (w_total - tail) / 2 - tail
    M = []
    values, slack = [c - c], [0.0]
    for k in range(1, K + 1):
        best, best_f, lo, s = None, math.inf, math.inf, 0
        while True:
            if s >= len(M):
                M = union_of_balls(weights, 2 * len(M) or 64, c - c).values
            cand = c * d_index(k + s) - M[s]
            cand_f = float(cand)
            if best is None or cand < best:
                best, best_f = cand, cand_f
            lo = min(lo, cand_f - d_index(s) * tail)
            u = max(s + 1, (2 * v * k - c_f * c_f * m) / (c_f * c_f - 2 * v))
            floor = c_f * (math.sqrt(2 * (k + u)) - 1.5) - math.sqrt(4 * v * (u + m)) + lift
            if floor >= best_f + 1e-9 * abs(best_f):
                break
            if s == s_ceiling:
                err = PruningBoundExceeded("no certificate", best=best)
                err.k = k
                raise err
            s += 1
        values.append(best)
        slack.append(best_f - lo)
    return values, slack


def golden_legs(legs):
    """The golden triangle with its irrational leg on either axis."""
    one, phi = Quad(1, 0, 5), Quad(Fraction(1, 2), Fraction(1, 2), 5)
    a, b = (one, phi) if legs == "1,phi" else (phi, one)
    z = one - one
    return domains.polygon([(z, z), (a, z), (z, b)], "convex", backend="sqrt:5")


@functools.cache
def golden_reference(legs, eps):
    """reference_scan of golden_legs(legs) at eps to k = 60: each row's
    scan is its own, so a smaller K reads a prefix."""
    return reference_scan(golden_legs(legs), 60, TruncationLimits(eps=eps))


@st.composite
def rational_convex_polygons(draw):
    """Convex polygons with axis contacts: legs a, b = p/q with p <= 8 and
    q <= 4, and up to three more vertices strictly inside [0,a) x [0,b)."""
    leg = st.builds(Fraction, st.integers(1, 8), st.sampled_from([1, 2, 3, 4]))
    a, b = draw(leg), draw(leg)
    eighths = st.builds(Fraction, st.integers(1, 7), st.just(8))
    inner = draw(st.lists(st.tuples(eighths, eighths), max_size=3))
    zero = Fraction(0)
    hull = convex_hull([(zero, zero), (a, zero), (zero, b)]
                       + [(a * x, b * y) for x, y in inner])
    return domains.polygon(hull, "convex")


class TestConvexScan:
    """The level-set scan against the index-by-index reference."""

    def test_golden_triangle_matches_reference(self):
        d = golden_triangle()
        limits = TruncationLimits(eps=1e-3)
        got = convex_capacity(d, 20, limits)
        values, slack = reference_scan(d, 20, limits)
        assert got.values == values
        assert got.lower_slack == slack

    @pytest.mark.parametrize("limits", [None, TruncationLimits(eps=0.3),
                                        TruncationLimits(max_depth=1, eps=1e-9)],
                             ids=["complete", "eps", "depth"])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(d=rational_convex_polygons())
    def test_rational_polygons_match_reference(self, limits, d):
        got = convex_capacity(d, 20, limits)
        values, slack = reference_scan(d, 20, limits)
        assert got.values == values
        assert got.lower_slack == slack

    # the reference costs 1-6 s per random draw at K = 400, hence 120
    @pytest.mark.parametrize("d, K", [(FIG, 400), (P6, 400), (DRAWS[0], 120), (DRAWS[1], 120)],
                             ids=["fig", "p6", "draw-0", "draw-1"])
    def test_past_the_first_table(self, monkeypatch, d, K):
        sizes = []

        def count(ws, S):
            sizes.append(S)
            return _ball_stairs(ws, S)

        monkeypatch.setattr(capacities, "_ball_stairs", count)
        values, slack = reference_scan(d, K)
        got = _convex_scan(_ScanData(convex_weights(d)), K)
        assert max(sizes) > 64  # the scan read past the reference's first 64 indices
        assert got.values == values
        assert got.lower_slack == slack

    def test_float_backend_matches_reference(self):
        d = domains.polygon([(float(x), float(y)) for x, y in P6.vertices], "convex",
                            backend="float", eps=1e-9)
        got = convex_capacity(d, 200)
        values, slack = reference_scan(d, 200)
        assert all(isinstance(v, float) for v in got.values[1:])
        assert got.values == [float(v) for v in values]
        assert got.lower_slack == slack

    @pytest.mark.parametrize("d, K, limits", [(FIG, 200, None), (P6, 200, None),
                                              (golden_triangle(), 20, TruncationLimits(eps=1e-6))],
                             ids=["fig", "p6", "golden"])
    def test_rows_a_short_table_leaves_are_walked(self, monkeypatch, d, K, limits):
        # the first table holds each row's first level alone: the envelope's
        # rows fail their certificate and are walked, and a walked row that
        # runs off the table's end grows it
        sizes, bound = [], _ScanData.stop_bound

        def count(ws, S):
            sizes.append(S)
            return _ball_stairs(ws, S)

        monkeypatch.setattr(capacities, "_ball_stairs", count)
        monkeypatch.setattr(_ScanData, "stop_bound",
                            lambda data, k, target: bound(data, k, target) if sizes else 0.0)
        got = convex_capacity(d, K, limits)
        assert sizes[0] == d_index(K) < sizes[1]
        assert (got.values, got.lower_slack) == reference_scan(d, K, limits)

    @pytest.mark.parametrize("d, K, most", [(FIG, 20000, 400), (P6, 5000, 100)],
                             ids=["fig", "p6"])
    def test_one_certificate_per_level_block(self, monkeypatch, d, K, most):
        # the rows that end their last level in the table at one index are
        # certified by one stopping test, not one per row (K of them); a
        # block that fails is halved, down to the rows one at a time
        results, clears = [], _ScanData.clears

        def count(*args):
            results.append(clears(*args))
            return results[-1]

        monkeypatch.setattr(_ScanData, "clears", count)
        got = _convex_scan(_ScanData(convex_weights(d)), K)
        assert len(results) <= most
        assert not all(results)  # a block was halved
        assert got.lower_slack == [0.0] * (K + 1)
        got.assert_nondecreasing()

    @pytest.mark.parametrize("d, ceiling", [(FIG, 20), (FIG, 40), (P6, 80)],
                             ids=["fig-20", "fig-40", "p6-80"])
    def test_ceiling_raises_for_the_smallest_k(self, d, ceiling):
        with pytest.raises(PruningBoundExceeded) as ref:
            reference_scan(d, 400, s_ceiling=ceiling)
        values, slack = reference_scan(d, ref.value.k - 1)
        data = _ScanData(convex_weights(d))
        with pytest.raises(PruningBoundExceeded) as got:
            _convex_scan(data, 400, s_ceiling=ceiling)
        assert got.value.best == ref.value.best
        assert str(got.value) == f"no certificate after {ceiling} complement indices"
        # every k below the reference's passes
        got = _convex_scan(data, ref.value.k - 1, s_ceiling=ceiling)
        assert (got.values, got.lower_slack) == (values, slack)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(d=rational_convex_polygons(), eps=st.sampled_from([0.05, 0.3, 1.0]))
    def test_truncated_bracket_contains_complete_value(self, d, eps):
        exact = convex_capacity(d, 60)
        truncated = convex_capacity(d, 60, TruncationLimits(eps=eps))
        for k in range(61):
            c = float(exact.value(k))
            assert truncated.lo(k) - 1e-9 <= c <= truncated.hi(k) + 1e-9

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([1e-2, 1e-4, 1e-6]),
           tag=st.sampled_from([1e-9, 1e-5, 1e-3]))
    def test_float_bracket_contains_exact_value(self, seed, eps, tag):
        # a rational polygon through the float backend, with vertex tags
        # (the CLI's --eps-backend) up to 1e-3
        d = random_convex_polygon(random.Random(seed))
        exact = convex_capacity(d, 40)
        f = domains.polygon([(float(x), float(y)) for x, y in d.vertices], "convex",
                            backend="float", eps=tag)
        got = convex_capacity(f, 40, TruncationLimits(eps=eps))
        for k in range(41):
            c = float(exact.value(k))
            assert got.lo(k) - 1e-9 * (1 + c) <= c <= got.hi(k) + 1e-9 * (1 + c)

    @pytest.mark.parametrize("tag", [1e-9, 1e-5, 1e-4, 1e-3])
    def test_float_golden_triangle_brackets_quad_values(self, tag):
        # the vertex tags grow level by level until the contact tolerance
        # absorbs both ends of a piece; the sliver above the cut line must
        # enter the tail, or the lower bounds pass the exact values
        d = domains.polygon([(0, 0), (1, 0), (0, PHI)], "convex", backend="float", eps=tag)
        got = convex_capacity(d, 2000, TruncationLimits(eps=1e-6))
        assert got.meta["dropped_tail_sum"] > 0
        for k, c in enumerate(golden_ellipsoid_values(2000)):
            assert got.lo(k) - 1e-9 * (1 + c) <= c <= got.hi(k) + 1e-9 * (1 + c)

    def test_float_backend_golden_triangle(self):
        d = domains.polygon([(0, 0), (1, 0), (0, PHI)], "convex", backend="float")
        got = convex_capacity(d, 30, TruncationLimits(eps=1e-10))
        oracle = ellipsoid_capacities(1.0, PHI, 30)
        for k in range(31):
            assert float(got.value(k)) == pytest.approx(
                float(oracle.value(k)), abs=got.lower_slack[k] + 1e-9)


    def test_thin_triangle_certifies_as_a_polygon(self):
        # E(10, 1/10) given as a polygon: under the bound sqrt(4vs) + w the
        # scan walked all 200,000 complement indices at k = 1 and gave up
        d = domains.polygon([(0, 0), (10, 0), (0, "1/10")], "convex")
        got = convex_capacity(d, 20)
        assert got.values == ellipsoid_capacities(Fraction(10), Fraction(1, 10), 20).values
        assert got.lower_slack == [0.0] * 21


class TestPythonScan:
    """The one convex scan runs in Python on every data kind: rational,
    Q(sqrt d) and float polygons, complete and truncated, at any scale,
    each against the index-by-index reference."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=rational_convex_polygons(), cut=st.sampled_from(["complete", "eps", "depth"]),
           lam=st.sampled_from([Fraction(1), Fraction(1, 10**200), Fraction(1, 10**330)]),
           K=st.integers(0, 60))
    def test_matches_reference_scan(self, d, cut, lam, K):
        eps = float(Fraction(3, 10) * lam)
        limits = {"complete": None, "eps": TruncationLimits(eps=eps),
                  "depth": TruncationLimits(max_depth=1)}[cut]
        got = convex_capacity(scaled(d, lam), K, limits)
        if lam == 1:
            assert (got.values, got.lower_slack) == reference_scan(d, K, limits)
            return
        # the reference reads plain floats of the values, which underflow at
        # 1e-330.  The scan reads its floats in the units of the head's
        # binade, so its values are lam times those of the unit domain, cut
        # as the scaled one is (an eps that rounds to 0.0 drops nothing), and
        # its slack lam times theirs, up to rounding (`test_slack_is_pinned`
        # holds the slack exactly on fixed cases at these scales)
        unit = {"complete": None, "eps": TruncationLimits(eps=0.3) if eps else None,
                "depth": limits}[cut]
        want = convex_capacity(d, K, unit)
        assert got.values == [lam * v for v in want.values]
        assert got.lower_slack == pytest.approx([float(lam) * x for x in want.lower_slack],
                                                rel=1e-6, abs=1e-300)

    @pytest.mark.parametrize("d, K", [(FIG, 60), (P6, 120), (DRAWS[1], 30)],
                             ids=["fig", "p6", "draw-1"])
    def test_small_rational_scans_run_in_python(self, d, K):
        got = convex_capacity(d, K)
        assert (got.values, got.lower_slack) == reference_scan(d, K)

    @pytest.mark.parametrize("d, K", [(golden_triangle(), 20), (FLOAT_P6, 120)],
                             ids=["golden-20", "float-p6-120"])
    def test_small_quad_and_float_scans_run_in_python(self, d, K):
        limits = TruncationLimits(eps=1e-6) if d.backend == "sqrt:5" else None
        got = convex_capacity(d, K, limits)
        values, slack = reference_scan(d, K, limits)
        assert got.values == values
        if d.backend == "sqrt:5":
            assert got.lower_slack == slack
            return
        # the float polygon drops a tail of 2*phi, and the reference's bound,
        # read from the area, stops its rows at other indices than the
        # scan's, read from the weights: the slack is the pinned one, and
        # both brackets hold phi * c_k(P6)
        assert slack_digest(got.lower_slack) == FORMER_SCAN_SLACK["float-p6-120"]
        exact = convex_capacity(P6, K)
        for k in range(K + 1):
            c = PHI * float(exact.value(k))
            assert got.lo(k) - 1e-9 * (1 + c) <= c <= got.hi(k) + 1e-9 * (1 + c)
            assert values[k] - slack[k] - 1e-9 * (1 + c) <= c

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(legs=st.sampled_from(["1,phi", "phi,1"]),
           eps=st.sampled_from([1e-3, 1e-6, 1e-8, 1e-10]), K=st.integers(0, 60))
    def test_matches_reference_scan_on_quads(self, legs, eps, K):
        d, limits = golden_legs(legs), TruncationLimits(eps=eps)
        got = _convex_scan(_ScanData(convex_weights(d, limits)), K)
        values, slack = golden_reference(legs, eps)
        assert (got.num, got.lower_slack) == (values[:K + 1], slack[:K + 1])
        assert got.den is None and all(isinstance(x, Quad) for x in got.num)

    # float data keep an absolute edge tolerance, so the scales stay near 1
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=rational_convex_polygons(), lam=st.sampled_from([1.0, PHI, 1e6]),
           cut=st.sampled_from(["complete", "eps"]), K=st.integers(0, 60))
    def test_matches_reference_scan_on_floats(self, d, lam, cut, K):
        f = domains.polygon([(float(x) * lam, float(y) * lam) for x, y in d.vertices],
                            "convex", backend="float", eps=1e-9 * lam)
        limits = TruncationLimits(eps=0.3 * lam) if cut == "eps" else None
        got = _convex_scan(_ScanData(convex_weights(f, limits)), K)
        values, _ = reference_scan(f, K, limits)
        assert got.num == [float(v) for v in values]
        assert got.den is None and all(isinstance(x, float) for x in got.num)
        # a float polygon can drop a tail (scaled by phi, its coordinates
        # stand for rationals of large denominator), and the reference's
        # bound, read from the area, then stops at other indices than the
        # scan's, read from the weights: the slack brackets lam * c_k(d)
        # (`test_slack_is_pinned` holds it exactly on fixed cases)
        exact = convex_capacity(d, K)
        for k in range(K + 1):
            c = lam * float(exact.value(k))
            assert 0.0 <= got.lower_slack[k] < math.inf
            assert got.num[k] - got.lower_slack[k] - 1e-9 * (1 + c) <= c

    @pytest.mark.parametrize("case", sorted(FORMER_SCAN_SLACK))
    def test_slack_is_pinned(self, case):
        # scans with a dropped tail, whose slack the reference does not
        # reproduce: float data, where its bound stops at other indices, and
        # rational data at 10^-200 and 10^-330, where its plain floats round
        # otherwise or underflow
        d, K, limits = slack_case(case)
        got = convex_capacity(d, K, limits)
        assert slack_digest(got.lower_slack) == FORMER_SCAN_SLACK[case]

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(d=rational_convex_polygons(), cut=st.sampled_from(["complete", "eps", "depth"]),
           K=st.integers(61, 100))
    def test_long_scans_match_reference_scan(self, d, cut, K):
        # past the sizes above: the envelope of the level ends, the
        # certificate of each row and the walk of the rows that a dropped
        # tail leaves
        limits = {"complete": None, "eps": TruncationLimits(eps=0.3),
                  "depth": TruncationLimits(max_depth=1)}[cut]
        got = convex_capacity(d, K, limits)
        assert (got.values, got.lower_slack) == reference_scan(d, K, limits)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(steps=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 5)), max_size=30),
           c=st.integers(1, 9), S=st.integers(0, 120), K=st.integers(1, 120))
    def test_envelope_is_the_least_level_end(self, steps, c, S, K):
        # a staircase M through index S, rising by 1..5 at gaps of 1..6.  Row
        # k's value is at most its least level end in the table and at least
        # its least candidate c*d(k+s) - M(s), s <= S: a level cut at S
        # leaves the running minimum a value no lower than a candidate.  So
        # it is exact where the two meet, and at k = K, where nothing is cut
        M = [0]
        for gap, rise in steps:
            M += [M[-1]] * (gap - 1) + [M[-1] + rise]
        M = (M + [M[-1]] * S)[:S + 1]
        idx = [0] + [j for j in range(1, S + 1) if M[j] > M[j - 1]]
        got = _envelope(c, idx, [M[j] for j in idx], S, K)
        d = d_values(K + S + 1)
        for k in range(1, K + 1):
            ends = [c * t - M[t * (t + 3) // 2 - k] for t in range(d[k], d[S + k + 1])]
            least = min(c * d[k + s] - M[s] for s in range(S + 1))
            assert least <= got[k - 1] <= min(ends, default=math.inf)
            if ends and (k == K or least == min(ends)):
                assert got[k - 1] == min(ends)


class TestFloatRecursion:
    """Float polygons run the exact recursion on the rationals their floats
    stand for."""

    def test_float_golden_triangle_narrows_with_eps(self):
        # the CLI's vertex tags, 1e-9, no longer stop the expansion early
        d = domains.polygon([(0, 0), (1, 0), (0, PHI)], "convex", backend="float", eps=1e-9)
        golden = golden_ellipsoid_values(1000)
        tails, slacks = [], []
        for eps in (1e-6, 1e-8, 1e-10):
            got = convex_capacity(d, 1000, TruncationLimits(eps=eps))
            tails.append(got.meta["dropped_tail_sum"])
            slacks.append(max(got.lower_slack))
            for k, c in enumerate(golden):
                assert got.lo(k) - 1e-9 * (1 + c) <= c <= got.hi(k) + 1e-9 * (1 + c)
        assert tails[0] > tails[1] > tails[2] > 0
        assert 1e-4 >= slacks[0] > slacks[1] > slacks[2] > 0

    def test_sevenths_polygon_is_complete(self):
        # a float's own dyadic value would make every 1/7 edge a sliver
        q = Fraction(1, 7)
        verts = [(0, 0), (1, 0), (5 * q, 5 * q), (3 * q, 6 * q), (0, 1)]
        exact = convex_weights(domains.polygon(verts, "convex"))
        f = domains.polygon([(float(x), float(y)) for x, y in verts], "convex",
                            backend="float", eps=1e-9)
        t = convex_weights(f)
        assert t.truncation.complete
        assert float(t.head) == float(exact.head)
        assert [float(w) for w in t.weight_multiset()] == \
            [float(w) for w in exact.weight_multiset()]
        assert convex_capacity(f, 300, tree=t).lower_slack == [0.0] * 301


@functools.cache
def reference_table(ws: tuple, K: int) -> list:
    """reference_ball_table(ws, d_values(K)), kept for the tests that fold
    the same drawn lists."""
    return reference_ball_table(list(ws), np.array(d_values(K)))


def reference_ball_table(ws, ds):
    """The object-array fold: np.maximum over the Quads themselves, one
    shifted slice of the previous ball's table per level d = t."""
    S = len(ds) - 1
    table = ds.astype(object) * ws[0]
    for w in ws[1:]:
        below, table = table, table.copy()
        for t in range(1, int(ds[-1]) + 1):
            base = (t - 1) * (t + 2) // 2 + 1  # smallest index with d = t
            np.maximum(table[base:], below[: S + 1 - base] + w * t, out=table[base:])
    return table.tolist()


def golden_power(n):
    """phi^-n = |F_n*phi - F_(n+1)| in Q(sqrt 5): Fibonacci-sized p and q
    that cancel to a small value."""
    a, b = 0, 1  # F_n, F_(n+1)
    for _ in range(n):
        a, b = b, a + b
    x = Quad(Fraction(a, 2) - b, Fraction(a, 2), 5)
    return x if x.sign() > 0 else -x


@st.composite
def quad_weight_lists(draw):
    """Positive Q(sqrt d) weight lists, d in {2, 3, 5, 7}: irrational and
    rational (some as Fractions, some lifted with q = 0) entries, golden
    powers for d = 5, and repeats, which give exact ties."""
    d = draw(st.sampled_from([2, 3, 5, 7]))
    small = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))

    def irrational(pq):
        x = Quad(pq[0], pq[1], d)
        return x if x.sign() > 0 else -x

    kinds = [st.tuples(small, small.filter(bool)).map(irrational),
             small.filter(bool).map(abs),
             small.filter(bool).map(lambda x: Quad.rational(abs(x), d))]
    if d == 5:
        kinds.append(st.integers(0, 75).map(golden_power))
    base = draw(st.lists(st.one_of(kinds), min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(base), max_size=4))
    ws = draw(st.permutations(base + repeats))
    if not any(isinstance(w, Quad) for w in ws):
        ws.append(Quad.rational(1, d))
    return ws


def pell_solutions(d: int, top: int) -> list:
    """Every (x, y) with x^2 - d*y^2 = +-1 and x <= top: the convergents of
    sqrt d that solve it, whose x - y*sqrt d is the least nonzero value of
    its size."""
    a0 = math.isqrt(d)
    m, q, a = 0, 1, a0
    (h0, h1), (k0, k1) = (1, a0), (0, 1)
    out = []
    while h1 <= top:
        if abs(h1 * h1 - d * k1 * k1) == 1:
            out.append((h1, k1))
        m = a * q - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
    return out


@st.composite
def multiplicities(draw, n: int, total: int) -> list:
    """n counts >= 0 that sum to `total`."""
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


@st.composite
def quad_int_cases(draw):
    """(ws, S, n, m): Q(sqrt d) weights and two multiplicity vectors, each
    summing to at most S + 2, mostly to S + 2 itself.  d is squarefree in
    2..1000, the weights' coordinates reach 2^100 over a denominator, and
    Pell solutions x^2 - d*y^2 = +-1 plant the least nonzero differences of
    their size: x against y*sqrt d, x - y*sqrt d against 0, and x copies
    of 1 against y copies of sqrt d, at multiplicities up to S + 2."""
    d = draw(st.integers(2, 1000).filter(_is_squarefree))
    den = draw(st.integers(1, 2 ** 100))
    coord = st.integers(-2 ** 100, 2 ** 100)
    pairs = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4))
    kind = draw(st.sampled_from(["random", "pell-weights", "pell-counts"]))
    pells = pell_solutions(d, 2 ** 100)
    x, y = draw(st.sampled_from(pells)) if pells and kind != "random" else (0, 0)
    if kind == "pell-counts" and x < 2 ** 20:  # x copies of 1/den, y of sqrt(d)/den
        S = draw(st.integers(max(x - 2, 0), x + 100))
        ws = [Quad(Fraction(1, den), 0, d), Quad(0, Fraction(1, den), d)]
        return ws, S, [x, 0], [0, y]
    S = draw(st.integers(0, 2 ** 20))
    total = st.one_of(st.just(S + 2), st.integers(0, S + 2))
    if x:
        pairs += [(x, 0), (0, y), (x, -y)]
    ws = [Quad(Fraction(p, den), Fraction(q, den), d) for p, q in pairs]
    n = draw(multiplicities(len(ws), draw(total)))
    m = draw(multiplicities(len(ws), draw(total)))
    if x and draw(st.booleans()):  # k*x against k*y*sqrt d, or k(x - y*sqrt d) against 0
        k, zeros = draw(total), [0] * (len(ws) - 3)
        n, m = draw(st.sampled_from([(zeros + [k, 0, 0], zeros + [0, k, 0]),
                                     (zeros + [0, 0, k], zeros + [0, 0, 0])]))
    return ws, S, n, m


POSITIVE_FRACTIONS = st.fractions(min_value=Fraction(1, 12), max_value=1000,
                                  max_denominator=12).filter(bool)
POSITIVE_FLOATS = st.floats(min_value=1e-3, max_value=1e3)


class TestPlainForms:
    """The closed forms and series helpers run on Python ints and floats;
    each against a reference computed another way."""

    # equal sides and sides in ratio 2 make exact ties between pairs
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(sides=st.one_of(st.tuples(POSITIVE_FRACTIONS, POSITIVE_FRACTIONS),
                           st.tuples(POSITIVE_FLOATS, POSITIVE_FLOATS),
                           st.one_of(POSITIVE_FRACTIONS, POSITIVE_FLOATS).flatmap(
                               lambda x: st.sampled_from([(x, x), (x, 2 * x), (2 * x, x)]))),
           K=st.integers(0, 30))
    def test_polydisk_matches_brute_force(self, sides, K):
        w, h = sides
        pairs = [(w * m + h * n, (m + 1) * (n + 1)) for m in range(K + 1) for n in range(K + 1)]
        want = [min(v for v, area in pairs if area >= k + 1) for k in range(K + 1)]
        got = polydisk_capacities(w, h, K).values
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(K=st.integers(0, 3000))
    def test_d_values_end_at_any_kmax(self, K):
        assert d_values(K) == [d_index(k) for k in range(K + 1)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(num=st.lists(st.integers(-2**80, 2**80), max_size=8),
           den=st.one_of(st.integers(1, 10**6), st.integers(2**63, 2**80),
                         st.sampled_from([1, 2, 2**63, 2**64])))
    def test_format_ratios_match_fractions(self, num, den):
        num += [0, -den, den, -1, 2 * den]
        assert [format_ratio(n, den) for n in num] == [str(Fraction(n, den)) for n in num]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(w=st.one_of(POSITIVE_FRACTIONS, POSITIVE_FLOATS,
                       st.sampled_from([Fraction(2**70, 3), 2**61 + 1])),
           K=st.integers(0, 300))
    def test_single_ball_is_the_ball_table(self, w, K):
        self.check_single_ball(w, K)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ws=quad_weight_lists(), K=st.integers(0, 300))
    def test_single_quad_ball_is_the_ball_table(self, ws, K):
        w = next(x for x in ws if isinstance(x, Quad))
        self.check_single_ball(w, K)
        self.check_single_ball(w + Quad(2**70, 0, w.d), K)  # past the int64 pairs

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ws=st.one_of(st.lists(POSITIVE_FRACTIONS, min_size=2, max_size=6),
                        st.lists(POSITIVE_FLOATS, min_size=2, max_size=6)),
           K=st.integers(0, 80))
    def test_list_fold_is_the_ball_table(self, ws, K):
        _, ws = _scaled(sorted(ws, reverse=True))
        table = reference_ball_table(ws, np.array(d_values(K)))
        got = union_of_balls(ws, K, ws[0] - ws[0])
        assert got.num == _ball_list(ws, K) == table
        assert [type(x) for x in got.num] == [type(x) for x in table]

    @staticmethod
    def check_single_ball(w, K):
        den, ws = _scaled([w])
        table = reference_ball_table(ws, np.array(d_values(K)))
        got = union_of_balls([w], K, w - w)
        assert (got.num, got.den) == (table, den)
        assert [type(x) for x in got.num] == [type(x) for x in table]


class TestQuadPairFold:
    """The int-pair fold of Q(sqrt d) tables against the object fold."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ws=quad_weight_lists(), K=st.integers(0, 60))
    def test_matches_object_fold(self, ws, K):
        # the staircase holds the table's breakpoints and its values there
        assert _quad_pairs(ws) is not None
        want = reference_table(tuple(ws), K)
        idx, val = _ball_stairs(ws, K)
        assert all(isinstance(x, Quad) for x in val)
        assert idx == breakpoints(want)
        assert val == [want[j] for j in idx]

    def test_golden_ties_use_the_exact_test(self):
        # phi^-n + phi^-(n+1) = phi^-(n-1): candidates tie exactly, and a tie
        # is no rise of the staircase.  On the flat stretches of the unit
        # ball's table, adding phi^-72 ~ 1e-15 gives near-ties of distinct
        # values, which are rises
        for ws in ([golden_power(n) for n in range(12)] + [golden_power(3)] * 2,
                   [Quad.rational(1, 5), golden_power(72)]):
            want = reference_ball_table(ws, np.array(d_values(120)))
            idx, val = _ball_stairs(ws, 120)
            assert idx == breakpoints(want)
            assert val == [want[j] for j in idx]

    @pytest.mark.parametrize("w", [Quad(1, Fraction(29, 7), 5), Quad(-2, Fraction(11, 2), 5),
                                   Quad(Fraction(13, 4), 14, 5)], ids=str)
    @pytest.mark.parametrize("sign", [1, -1])
    def test_weights_a_rounding_apart(self, w, sign):
        # w and w +- phi^-72 differ below the floats' rounding of the table
        # entries: a comparison of floats picks the wrong entry
        ws = [w, w + sign * golden_power(72)]
        assert _ball_list(ws, 40) == reference_ball_table(ws, np.array(d_values(40)))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=quad_int_cases())
    def test_quad_ints_order_and_decode_sums_at_the_bound(self, case):
        # two sums of at most S + 2 weights each: their ints differ with the
        # sign of the exact difference, and `back` gives each sum's Quad
        ws, S, n, m = case
        ints, back = _quad_ints(ws, S)
        a, b = (sum((w * c for w, c in zip(ws, counts)), ws[0] - ws[0]) for counts in (n, m))
        ia, ib = (sum(i * c for i, c in zip(ints, counts)) for counts in (n, m))
        diff = a - b
        assert (ia > ib) - (ia < ib) == quad_sign(diff.p, diff.q, diff.d)
        assert back(ia) == a and back(ib) == b

    def test_quad_walk_runs_on_ints(self):
        # the scan adds and compares the ints of `_quad_ints`: no Quad
        # subtraction or comparison.  The weight tree and `_ScanData` sort
        # their Quads, so the count starts at the scan
        d, limits = golden_triangle(), TruncationLimits(eps=1e-6)
        tree, scan = convex_weights(d, limits), capacities._convex_scan
        spies = [mock.patch.object(Quad, name, autospec=True, side_effect=getattr(Quad, name))
                 for name in ("__sub__", "__lt__")]

        def counted_scan(data, K):
            with spies[0] as sub, spies[1] as lt:
                out = scan(data, K)
            calls.extend([sub.call_count, lt.call_count])
            return out

        calls = []
        with mock.patch.object(capacities, "_convex_scan", counted_scan):
            got = convex_capacity(d, 100, limits, tree=tree)
        assert calls == [0, 0]
        assert all(isinstance(x, Quad) for x in got.values)
        oracle = golden_ellipsoid_values(100)
        for k in range(101):
            assert got.lo(k) - 1e-9 <= oracle[k] <= float(got.value(k)) + 1e-9

    def test_huge_weights_at_k0(self):
        assert union_of_balls([Fraction(10 ** 23), Fraction(1)], 0, Fraction(0)).values == [0]
        assert union_of_balls([Quad(2 ** 70, 1, 5)], 0, Fraction(0)).values == [0]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ws=quad_weight_lists(), K=st.integers(0, 60))
    def test_python_fold_matches_object_fold(self, ws, K):
        got = _ball_list(ws, K)
        assert all(isinstance(x, Quad) for x in got)
        assert got == reference_table(tuple(ws), K)

    @pytest.mark.parametrize("ws", [
        [golden_power(n) for n in range(12)] + [golden_power(3)] * 2,  # exact ties
        [Quad.rational(1, 5), golden_power(72)],  # near-ties of distinct values
        [Quad(1, Fraction(29, 7), 5), Quad(1, Fraction(29, 7), 5) - golden_power(72)],
        [Quad(2 ** 58, 3, 5), Quad(Fraction(1, 2), Fraction(1, 2), 5),
         Quad(2 ** 58, -2 ** 57, 5), Fraction(7, 3)],  # pairs past 2^62
    ], ids=["golden-ties", "unit-plus-phi^-72", "phi^-72-apart", "huge"])
    def test_python_fold_decides_ties_exactly(self, ws):
        assert _ball_list(ws, 120) == reference_ball_table(ws, np.array(d_values(120)))

    def test_golden_concave_triangle(self):
        d = golden_triangle("concave")
        tree = concave_weights(d, TruncationLimits(eps=1e-8))
        ws = sorted(tree.weight_multiset(), key=float, reverse=True)
        ds = np.array(d_values(60))
        assert concave_capacity(d, 60, tree=tree).values == reference_ball_table(ws, ds)


@st.composite
def tied_lists(draw, elements):
    """Weight lists with repeats and small multiples of their entries, which
    give exact ties between candidates, in any order."""
    base = draw(st.lists(elements, min_size=1, max_size=6))
    ties = draw(st.lists(st.tuples(st.sampled_from(base), st.sampled_from([1, 2, 3])),
                         max_size=3))
    return draw(st.permutations(base + [w * m for w, m in ties]))


# ints with a common factor (the bound divides by the gcd) and non-dyadic
# floats, whose rounded sums give near-ties
INT_LISTS = st.integers(1, 6).flatmap(
    lambda g: tied_lists(st.integers(1, 30).map(lambda w: g * w)))
FLOAT_LISTS = tied_lists(st.one_of(POSITIVE_FLOATS, st.sampled_from([0.1, 0.2, 0.3, 0.7])))


def breakpoints(table: list) -> list:
    """The indices at which a table rises, 0 first."""
    return [0] + [j for j in range(1, len(table)) if table[j] > table[j - 1]]


@st.composite
def repeated_lists(draw, elements):
    """Up to three runs of 1-4 equal weights, the runs in any order (equal weights may
    fall in two runs): the shape that `_ball_stairs` folds as one
    staircase per run."""
    runs = draw(st.lists(st.tuples(elements, st.integers(1, 4)), min_size=1, max_size=3))
    return [w for w, m in runs for _ in range(m)]


REPEATED_INTS = repeated_lists(st.integers(1, 30))
REPEATED_QUADS = quad_weight_lists().flatmap(
    lambda base: repeated_lists(st.sampled_from(base)).map(
        lambda ws: ws + [next(w for w in base if isinstance(w, Quad))]))
# one large weight before runs of small ones: the breakpoints of the first
# staircase lie far apart, so most steps of the runs are dominated.  Some
# runs are of zeros or negative weights, whose breakpoint j reaches
# val[j] + w itself
LARGE_THEN_SMALL = st.tuples(st.integers(20, 300), repeated_lists(st.integers(-2, 6))).map(
    lambda wr: [wr[0], *wr[1]])


@st.composite
def signed_quad_lists(draw):
    """quad_weight_lists with zeros, negated entries and 2^58 + s*2^57*sqrt d
    (s = +-1, of either sign by d) after the first, positive entry, as in
    the "huge" case of test_python_fold_decides_ties_exactly: a breakpoint
    whose value already reaches val + w"""
    ws = draw(quad_weight_lists())
    d = next(w.d for w in ws if isinstance(w, Quad))
    extra = draw(st.lists(st.one_of(st.just(Fraction(0)), st.sampled_from(ws).map(lambda w: -w),
                                    st.sampled_from([1, -1]).map(
                                        lambda s: Quad(2 ** 58, s * 2 ** 57, d))),
                          min_size=1, max_size=3))
    rest = draw(st.permutations(ws[1:] + extra))
    return [ws[0], *rest]


def unpruned_float_stairs(ws: list, S: int) -> tuple[list, list]:
    """`_ball_stairs` of float weights by every (breakpoint, step) pair, one
    ball at a time, steps in the outer loop."""
    costs = _group_costs(1, S)
    idx, val = costs, [ws[0] * D for D in range(len(costs))]
    for w in ws[1:]:
        sc = [-1.0] * (S + 1)
        for D, base in enumerate(costs):
            for b, v in zip(idx, val):
                if b + base <= S and v + w * D > sc[b + base]:
                    sc[b + base] = v + w * D
        idx, val = [], []
        for i, c in enumerate(sc):
            if not val or c > val[-1]:
                idx.append(i)
                val.append(c)
    return idx, val


class TestStaircaseFold:
    """`_ball_stairs` holds each table by its breakpoints and folds each run
    of equal exact weights as one staircase; the dense object fold, one
    ball at a time, is its reference."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ws=st.one_of(INT_LISTS, FLOAT_LISTS, quad_weight_lists()), K=st.integers(0, 150))
    def test_matches_the_dense_fold(self, ws, K):
        got = _ball_list(ws, K)
        want = reference_ball_table(ws, np.array(d_values(K)))
        assert got == want
        if any(isinstance(w, Quad) for w in ws):
            assert all(isinstance(x, Quad) for x in got)
        else:
            assert [type(x) for x in got] == [type(x) for x in want]

    # ints up to K = 150, as test_matches_the_dense_fold; Q(sqrt d) lists stop
    # at K = 40, since their reference adds Quads with Fibonacci-sized parts
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ws_K=st.one_of(st.tuples(REPEATED_INTS, st.integers(0, 150)),
                          st.tuples(REPEATED_QUADS, st.integers(0, 40))))
    def test_runs_of_equal_weights_fold_as_one(self, ws_K):
        ws, K = ws_K
        # Q(sqrt d) runs fold through the int `_stairs` too, as `_quad_ints`
        runs = len([w for w, _ in groupby(ws)])
        with mock.patch.object(capacities, "_stairs", wraps=capacities._stairs) as fold:
            got = _ball_list(ws, K)
        assert fold.call_count == runs - 1
        assert got == reference_ball_table(ws, np.array(d_values(K)))

    # the sizes of test_matches_the_dense_fold (ints) and TestQuadPairFold
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ws_K=st.one_of(st.tuples(LARGE_THEN_SMALL, st.integers(0, 150)),
                          st.tuples(signed_quad_lists(), st.integers(0, 60))))
    def test_dominated_steps_leave_the_table(self, ws_K):
        # the fold skips step D of a breakpoint once a later breakpoint's step
        # D - 1 lands no later and is worth no less: the table is unchanged
        ws, K = ws_K
        want = reference_ball_table(ws, np.array(d_values(K)))
        idx, val = _ball_stairs(ws, K)
        assert idx == breakpoints(want)
        assert val == [want[j] for j in idx]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(ws=FLOAT_LISTS, K=st.integers(0, 150))
    def test_floats_pair_every_step(self, ws, K):
        # float sums round, so the float fold skips no pair: bit-identical
        # to the unpruned fold
        idx, val = _ball_stairs(ws, K)
        want_idx, want_val = unpruned_float_stairs(ws, K)
        assert idx == want_idx
        assert [x.hex() for x in val] == [x.hex() for x in want_val]

    def test_p6_scan_folds_fewer_pairs(self, monkeypatch):
        # P6's scan table at kmax 5000 (S = 2874): every (breakpoint, step)
        # pair is 100,839 pairs, of which the fold visits 18,704
        pairs, kept = [], capacities._steps_kept

        def count(*args):
            out = kept(*args)
            pairs.append(sum(out))
            return out

        monkeypatch.setattr(capacities, "_steps_kept", count)
        _convex_scan(_ScanData(convex_weights(P6)), 5000)
        assert sum(pairs) <= 20_000

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(m=st.integers(1, 12), S=st.integers(0, 120))
    def test_group_costs_are_the_cheapest_splits(self, m, S):
        # the least sum of t_i(t_i+1)/2 over m balls with sum t_i = D, by a
        # knapsack over the balls one at a time
        cheapest = [0] + [math.inf] * S
        for _ in range(m):
            cheapest = [min(cheapest[D - t] + t * (t + 1) // 2 for t in range(D + 1))
                        for D in range(S + 1)]
        assert _group_costs(m, S) == [x for x in cheapest if x <= S]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(ws=INT_LISTS.filter(lambda ws: len(ws) > 1), K=st.integers(0, 3000))
    def test_int_bound_covers_every_breakpoint(self, ws, K):
        # an int table of the first i weights takes values in multiples of
        # g = gcd(w_1..w_i) up to F = max sum w_j t_j over
        # sum t_j(t_j + 1)/2 <= K, and Cauchy-Schwarz over
        # sum (t_j + 1/2)^2 <= 2K + i/4 gives 2F + sum w_j <= sqrt(A(8K + i)),
        # A = sum w_j^2: so the staircase holds O(sqrt K) breakpoints.  The
        # prefix tables fold one ball at a time
        tri = _group_costs(1, K)
        idx, val = tri, [ws[0] * t for t in range(len(tri))]
        for i in range(1, len(ws)):
            A, g = sum(w * w for w in ws[:i]), math.gcd(*ws[:i])
            top = (math.isqrt(A * (8 * K + i)) - sum(ws[:i])) // 2
            assert len(idx) <= min(K + 1, top // g + 1)
            idx, val = _stairs(idx, val, ws[i], 1, K)

    def test_floats_and_quads_may_rise_everywhere(self):
        # the golden concave triangle's 39 Q(sqrt 5) weights give distinct
        # sums: its table rises at every index.  The float weights 0.4 and
        # twelve 0.1s fold one ball at a time and round their sums apart:
        # more than twice the breakpoints of 4 and twelve 1s
        tree = concave_weights(golden_triangle("concave"), TruncationLimits(eps=1e-8))
        assert len(_ball_stairs(sorted(tree.weight_multiset(), reverse=True), 300)[0]) == 301
        assert len(_ball_stairs([0.4] + [0.1] * 12, 1000)[0]) > \
            2 * len(_ball_stairs([4] + [1] * 12, 1000)[0])

    def test_concave_file_stays_in_python(self):
        # the perfbench concave polygon: 4 weights, O(sqrt K) breakpoints,
        # and the run of three 1s folds as one staircase
        ws = [3, 1, 1, 1]
        with mock.patch.object(capacities, "_stairs", wraps=capacities._stairs) as fold:
            idx, _ = _ball_stairs(ws, 50_000)
        assert fold.call_count == 1
        assert len(idx) < 1_100


def exhaustive_series(s, kmax: int) -> list:
    """c_0..c_kmax on a tower surface from every nef class D = dH - sum m_i e_i
    with D.(D-K) >= 2k, bounding no value: the reference for the
    enumeration's budget prune.

    A class of degree d has D.A >= d * floor (the nef floor, checked against
    scipy in TestNefFloor), so degree d is searched while it can still lower
    some c_k.  Inside a degree a prefix m_1..m_i is cut only when it is
    infeasible: past its last positive coefficient a boundary curve's
    pairing with D can only fall, and a negative one stays negative."""
    n, floor = s.n, _EnumContext(s).floor
    assert floor > 0
    settled = [[] for _ in range(n + 1)]  # curves by their last positive coefficient
    for c in s.curves:
        cls = dense_class(c, n)
        settled[max((i for i in range(1, n + 1) if cls[i] > 0), default=0)].append(cls)
    best = [s.A[0] - s.A[0]] + [None] * kmax
    d = 0
    while True:
        d += 1
        open_ks = [k for k in range(1, kmax + 1) if best[k] is None or d * floor <= best[k]]
        if not open_ks:
            return best
        k0 = open_ks[0]

        def rec(m, left):
            D = (d,) + tuple(-x for x in m) + (0,) * (n - len(m))
            if any(_dot(D, c) < 0 for j in range(len(m) + 1) for c in settled[j]):
                return
            if len(m) == n:
                value = _dot(D, s.A)
                for k in range(k0, min(kmax, k0 + left // 2) + 1):  # D.(D-K) >= 2k
                    if best[k] is None or value < best[k]:
                        best[k] = value
                return
            x = 0
            while x * (x + 1) <= left:
                rec(m + [x], left - x * (x + 1))
                x += 1

        if d * (d + 3) >= 2 * k0:
            rec([], d * (d + 3) - 2 * k0)


@st.composite
def enum_towers(draw):
    """Final surfaces of towers: rational polygons, or the triangle
    (0,0), (1,0), (0, p + q sqrt d) over Q(sqrt 5) or Q(sqrt 2), truncated."""
    if draw(st.booleans()):
        d = random_convex_polygon(random.Random(draw(st.integers(0, 2**32 - 1))))
        return build_tower(convex_weights(d)).final
    field = draw(st.sampled_from([2, 5]))
    p = draw(st.builds(Fraction, st.integers(0, 3), st.sampled_from([1, 2])))
    q = draw(st.builds(Fraction, st.integers(1, 2), st.sampled_from([1, 2])))
    z, one = Quad(0, 0, field), Quad(1, 0, field)
    d = domains.polygon([(z, z), (one, z), (z, Quad(p, q, field))], "convex",
                        backend=f"sqrt:{field}")
    eps = draw(st.sampled_from([1e-2, 1e-3]))
    return build_tower(convex_weights(d, TruncationLimits(eps=eps))).final


class TestEnum:
    def test_plane(self):
        assert alg_capacity_enum(p2_init(Fraction(5)), 1) == 5
        assert alg_capacity_enum(p2_init(Fraction(5)), 0) == 0
        ser = alg_capacity_series(p2_init(Fraction(1)), 6)
        assert ser == [0, 1, 1, 2, 2, 2, 3]

    def test_square_tower(self, unit_square):
        tw = build_tower(convex_weights(unit_square))
        assert alg_capacity_enum(tw.final, 4) == 3
        assert alg_capacity_series(tw.final, 20) == \
            square_capacities(Fraction(1), 20).values

    def test_not_big_rejected(self):
        s = blowup(p2_init(Fraction(1)), ("H0", "H1"), Fraction(1))
        with pytest.raises(SearchSpaceEmpty):
            alg_capacity_enum(s, 1)

    def test_zero_weight_blowup_invariance(self):
        s = p2_init(Fraction(3))
        s0 = blowup(s, ("H0", "H1"), Fraction(0))
        for k in (1, 3, 7, 12):
            assert alg_capacity_enum(s, k) == alg_capacity_enum(s0, k)

    def test_oracle_equivalence_random(self):
        rng = random.Random(31)
        for _ in range(4):
            d = random_convex_polygon(rng)
            tw = build_tower(convex_weights(d))
            dp = convex_capacity(d, 25)
            enum = alg_capacity_series(tw.final, 25)
            assert dp.values == enum

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(s=enum_towers(), kmax=st.integers(1, 12))
    def test_budget_prune_matches_exhaustive_search(self, s, kmax):
        assert alg_capacity_series(s, kmax) == exhaustive_series(s, kmax)


class TestTowerCapacity:
    def test_fig_k1(self, fig_polygon):
        tw = build_tower(convex_weights(fig_polygon))
        res = tower_capacity(tw, 1, all_levels=True)
        assert res.value == 4 and res.bracket == (4.0, 4.0)
        assert res.per_level == sorted(res.per_level, reverse=True)

    def test_triangle_ball_values(self):
        tw = build_tower(convex_weights(domains.ellipsoid(2, 2)))
        for k in (1, 5, 9):
            assert tower_capacity(tw, k).value == ball_capacities(Fraction(2), k).value(k)

    def test_level_monotone_random(self):
        rng = random.Random(32)
        d = random_convex_polygon(rng)
        tw = build_tower(convex_weights(d))
        res = tower_capacity(tw, 7, all_levels=True)
        vals = [float(v) for v in res.per_level]
        assert vals == sorted(vals, reverse=True)


class TestChainedOracle:
    """tower_capacities walks k down from kmax on one context, seeding each
    search with the exact c_{k+1}; it gives what a fresh tower_capacity per k
    gives, in value and bracket."""

    @pytest.mark.parametrize("make, limits, kmax", [
        (lambda: domains.polygon([(0, 0), (4, 0), (4, 1), (2, 3), (0, 4)], "convex"),
         None, 30),
        (golden_triangle, TruncationLimits(eps=1e-5), 9),
        (lambda: random_convex_polygon(random.Random(47)), None, 20),
    ], ids=["fig", "golden-truncated", "random"])
    def test_chained_equals_fresh(self, make, limits, kmax):
        tw = build_tower(convex_weights(make(), limits))
        walked = tower_capacities(tw, kmax)
        assert len(walked) == kmax + 1
        for k, chained in enumerate(walked):
            fresh = tower_capacity(tw, k)
            assert chained.value == fresh.value
            assert chained.bracket == fresh.bracket


# the four oracle inputs of the benchmark at seed 0: P6, the figure polygon
# and two seeded random polygons
BENCH_POLYGONS = [
    [(0, 0), (7, 0), (7, 2), (5, Fraction(9, 2)), (2, 6), (0, 6)],
    [(0, 0), (4, 0), (4, 1), (2, 3), (0, 4)],
    [(0, 0), (Fraction(8, 3), 0), (Fraction(9, 4), Fraction(3, 2)), (0, 2)],
    [(0, 0), (5, 0), (Fraction(9, 4), 1), (0, Fraction(3, 2))],
]


class TestNefFloor:
    """The in-repo simplex against scipy's linprog on the same LP, on every
    level of each tower."""

    @staticmethod
    def linprog_floor(s):
        linprog = pytest.importorskip("scipy.optimize").linprog
        n = s.n
        if n == 0:
            return float(s.A[0])
        rows, rhs = [], []
        for c in s.curves:
            cls = dense_class(c, n)
            if any(cls[1:]):
                rows.append([-float(x) for x in cls[1:]])
                rhs.append(float(cls[0]))
        res = linprog(c=[float(s.A[i]) for i in range(1, n + 1)], A_ub=rows, b_ub=rhs,
                      bounds=[(0, None)] * n, method="highs")
        assert res.success
        return max(float(s.A[0]) + res.fun, 0.0)

    def check(self, tw):
        for s in tw.surfaces:
            want = self.linprog_floor(s)
            assert float(_EnumContext(s).floor) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("vertices", BENCH_POLYGONS, ids=["p6", "fig", "rand-0", "rand-1"])
    def test_benchmark_towers(self, vertices):
        self.check(build_tower(convex_weights(domains.polygon(vertices, "convex"))))

    def test_random_towers(self):
        rng = random.Random(44)
        for _ in range(40):
            self.check(build_tower(convex_weights(random_convex_polygon(rng, max_extra=5))))

    def test_golden_triangle_tower(self):
        self.check(build_tower(convex_weights(golden_triangle(), TruncationLimits(eps=1e-5))))


class TestCPlus:
    def test_plane_spot_values(self):
        assert c_plus(-3, 1, 9, 1) == pytest.approx((-3 + math.sqrt(17)) / 2)
        assert c_plus(-3, 1, 9, 50) == pytest.approx(-1.5 + math.sqrt(2.25 + 100))

    def test_threshold_rejected_and_oracle_zero(self):
        with pytest.raises(BelowThreshold):
            c_plus(-3, 1, 9, 0)
        assert c_plus_reference(-3, 1, 9, 0) == 0.0

    def test_matches_independent_optimizer(self):
        rng = random.Random(33)
        for _ in range(40):
            a2 = rng.uniform(0.5, 10)
            k_dot_a = -rng.uniform(1, 10)
            # Hodge: (K.A)^2 >= K^2 A^2
            k2 = rng.uniform(-10, k_dot_a * k_dot_a / a2)
            thr = (k_dot_a * k_dot_a / a2 - k2) / 8
            k = int(thr) + 1 + rng.randint(0, 50)
            assert c_plus(k_dot_a, a2, k2, k) == pytest.approx(
                c_plus_reference(k_dot_a, a2, k2, k), abs=1e-9)

    def test_below_alg_capacity(self):
        s = p2_init(Fraction(1))
        for k in (1, 4, 9, 20):
            assert c_plus(-3, 1, 9, k) <= float(alg_capacity_enum(s, k)) + 1e-12

    def test_below_alg_capacity_on_blowup(self):
        from capax.tower import _dot
        s = blowup(p2_init(Fraction(3)), ("H0", "H1"), Fraction(1))
        a2 = float(_dot(s.A, s.A))
        k_dot_a = -float(_dot(tuple(-x for x in s.K), s.A))
        k2 = 9 - s.n
        threshold = (k_dot_a * k_dot_a / a2 - k2) / 8
        for k in range(int(threshold) + 1, int(threshold) + 12):
            assert c_plus(k_dot_a, a2, k2, k) <= float(alg_capacity_enum(s, k)) + 1e-12


class TestDkn:
    def test_plane_examples(self):
        s = p2_init(Fraction(1))
        assert dkn_upper_data(*s.pairings(), 2) == pytest.approx(2.0)
        assert dkn_upper_data(*s.pairings(), 0) == pytest.approx(1.0)

    def test_certifies_enum(self):
        s = blowup(p2_init(Fraction(2)), ("H0", "H1"), Fraction(1))
        pairings = s.pairings()
        for k in (0, 1, 5, 11):
            assert float(alg_capacity_enum(s, k)) <= dkn_upper_data(*pairings, k) + 1e-9

    def test_certifies_on_random_towers(self):
        rng = random.Random(34)
        d = random_convex_polygon(rng)
        tw = build_tower(convex_weights(d))
        pairings = tw.final.pairings()
        for k in (1, 5, 13, 27):
            assert float(alg_capacity_enum(tw.final, k)) <= dkn_upper_data(*pairings, k) + 1e-9

    def test_abstract_data_form_matches_surface(self):
        s = blowup(p2_init(Fraction(3)), ("H0", "H1"), Fraction(1))
        classes = [dense_class(c, s.n) for c in s.curves]
        ints = [_dot(v, v) for v in classes]
        abstract = dkn_upper_data(
            float(_dot(s.A, s.A)),
            float(_dot(tuple(-x for x in s.K), s.A)),
            ints.count(-1) - 2 * sum(1 + q for q in ints if q < -1),
            float(sum(_dot(s.A, v) for c, v in zip(s.curves, classes) if c.is_plus)), 7)
        assert abstract == pytest.approx(dkn_upper_data(*s.pairings(), 7))


class TestProperties:
    def test_monotone_in_k(self, fig_polygon):
        for series in (convex_capacity(fig_polygon, 30),
                       ball_capacities(Fraction(2), 30),
                       ellipsoid_capacities(Fraction(1), Fraction(3), 30)):
            series.assert_nondecreasing()

    def test_inclusion_monotone(self):
        rng = random.Random(35)
        for _ in range(5):
            d = random_convex_polygon(rng)
            lam = Fraction(rng.randint(1, 3), 4)
            small = domains.polygon(
                [(x * lam, y * lam) for x, y in d.vertices], "convex")
            s_small = convex_capacity(small, 15)
            s_big = convex_capacity(d, 15)
            for k in range(16):
                assert s_small.value(k) <= s_big.value(k)

    def test_weyl_trend(self):
        # |c_K^2/K - 2 A^2| <= C/sqrt(K) on the closed-form families
        for vals, a2 in ((np.asarray(d_values(20000)[1:]), 1.0),
                         (np.asarray(ellipsoid_capacities(Fraction(1), Fraction(2),
                                                          20000).float_values()[1:]),
                          2.0)):
            ks = np.arange(1, 20001)
            dev = np.abs(vals ** 2 / ks - 2 * a2)
            assert np.all(dev[100:] <= 8 / np.sqrt(ks[100:]))

    def test_series_csv_json_roundtrip(self):
        s = ellipsoid_capacities(Fraction(1), Fraction(2), 6)
        out = []
        s.to_csv(out.append)
        assert "".join(out).splitlines()[1] == "k,c_k,lower_slack,upper_slack,method"

    # numerators on both sides of 2^53, where float64 stops holding every
    # int, and of 2^62 and 2^63, with zeros, one band per draw.  A seeded
    # PRNG draws inside the band: hypothesis's own integers are mostly even
    # there, and float64 holds those exactly
    BANDS = [(-2**20, 2**20), (2**53 - 8, 2**53 + 8), (2**53, 2**54), (2**61, 2**62 + 8),
             (2**62, 2**63 - 1), (2**63, 2**80)]
    DENOMINATORS = st.one_of(st.just(1), st.integers(2, 10**6),
                             st.sampled_from([3, 10**6 + 3, 2**53 - 1, 2**53 + 1, 3**40,
                                              2**64 + 1]))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(band=st.sampled_from(BANDS), rnd=st.randoms(use_true_random=True),
           size=st.integers(1, 8), q=DENOMINATORS, as_object=st.booleans())
    def test_scaled_series_formats_and_rounds_as_fractions(self, band, rnd, size, q, as_object):
        ns = [rnd.randint(*band) if rnd.random() < 0.8 else 0 for _ in range(size)]
        fits = all(-2**63 <= n < 2**63 for n in ns)
        num = np.array(ns, dtype=object if as_object or not fits else np.int64)
        s = CapacitySeries(method="t", num=num.tolist(), den=q)
        out = []
        write_json(s.to_json(), out.append)
        assert json.loads("".join(out))["values"] == [str(Fraction(n, q)) for n in ns]
        assert np.asarray(s.float_values()).tolist() == [float(Fraction(n, q)) for n in ns]
        assert s.values == [Fraction(n, q) for n in ns]

    def test_series_for_domain_dispatch(self, fig_polygon, e12_triangle):
        assert series_for_domain(domains.ball(2), 5).method == "ball_closed_form"
        assert series_for_domain(domains.ellipsoid(1, 2), 5).method == "ellipsoid_closed_form"
        assert series_for_domain(domains.square(1), 5).method == "polydisk_closed_form"
        assert series_for_domain(fig_polygon, 5).method == "decomposition"
        assert series_for_domain(e12_triangle, 5).values == \
            ellipsoid_capacities(Fraction(1), Fraction(2), 5).values

    def test_float_dispatch_reads_the_input_tolerance(self):
        # legs or sides within 2 eps of each other are equal, a corner within
        # eps of an axis lies on it
        near_ball = lambda eps: domains.ellipsoid(1.0, 1.0 + 1e-10, backend="float", eps=eps)
        assert series_for_domain(near_ball(1e-9), 5).method == "ball_closed_form"
        assert series_for_domain(near_ball(1e-11), 5).method == "ellipsoid_closed_form"
        near_box = lambda eps: domains.polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0 + 1e-10),
                                                (0.0, 1.0)], "convex", backend="float", eps=eps)
        assert series_for_domain(near_box(1e-9), 5).method == "polydisk_closed_form"
        assert series_for_domain(near_box(1e-11), 5).method == "decomposition"

    def test_curve_series_brackets_disk(self):
        # the curve route's bracket, from a coarse grid polygon, and a finer
        # grid polygon's, widened by its own Hausdorff slack, both hold the
        # quarter disk's c_k, so they intersect
        qd = domains.quarter_disk(1)
        s = series_for_domain(qd, 20)
        poly, hb = domains.inner_grid_polygon(qd, 96)
        finer = convex_capacity(poly, 20, TruncationLimits(max_depth=512, eps=1e-9))
        lam = hb / (1 - hb)
        for k in range(21):
            lo = max(s.lo(k), finer.lo(k))
            hi = min(s.hi(k), finer.hi(k) + lam * float(finer.value(k)))
            assert lo <= hi + 1e-9

    def test_curve_series_without_limits_is_complete(self):
        # the grid polygon is rational, so its expansion ends: an absolute
        # weight threshold of 1e-9 dropped every piece of a disk of radius 1e-12
        small = series_for_domain(domains.quarter_disk(Fraction(1, 10 ** 12)), 20)
        unit = series_for_domain(domains.quarter_disk(1), 20)
        assert small.values == [v / 10 ** 12 for v in unit.values]
        assert small.meta["dropped_tail_sum"] == 0.0


@st.composite
def rational_concave_polygons(draw):
    """Concave polygons: under the graph of a convex decreasing function
    from (0, b) to (a, 0), made of up to four edges of distinct slopes."""
    steps = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1,
                          max_size=4, unique_by=lambda v: Fraction(v[1], v[0])))
    steps.sort(key=lambda v: Fraction(v[1], v[0]), reverse=True)  # steepest first
    x, y = 0, sum(dy for _, dy in steps)
    chain = [(x, y)]
    for dx, dy in steps:
        x, y = x + dx, y - dy
        chain.append((x, y))
    q = draw(st.sampled_from([1, 2, 3]))
    return domains.polygon([(0, 0)] + [(Fraction(x, q), Fraction(y, q)) for x, y in chain[::-1]],
                           "concave")


@st.composite
def rational_weight_lists(draw):
    """Concave lists (no head) and convex lists (c; w) with c twice the
    weight sum, so sum w^2 <= c^2/4: wide enough for the scan to certify."""
    ws = draw(st.lists(st.builds(Fraction, st.integers(1, 6), st.sampled_from([1, 2, 3])),
                       min_size=1, max_size=4))
    return domains.weight_list(2 * sum(ws) if draw(st.booleans()) else None, ws)


# scales whose floats underflow to 0 (with their squares) or pass 1e100
SCALES = [Fraction(1, 2 ** 1000), Fraction(1, 10 ** 200), Fraction(1, 10 ** 330),
          Fraction(10 ** 100)]
SHAPES = {"convex": rational_convex_polygons(), "concave": rational_concave_polygons(),
          "weights": rational_weight_lists()}


def scaled(d, lam):
    """lam * d for an exact polygon, ellipsoid or weight list."""
    if d.kind == "polygon":
        return domains.polygon([(x * lam, y * lam) for x, y in d.vertices], d.orientation)
    if d.kind == "ellipsoid":
        return domains.ellipsoid(d.a * lam, d.b * lam)
    return domains.weight_list(None if d.head is None else d.head * lam,
                               [w * lam for w in d.weights])


class TestScaleEquivariance:
    """c_k(lam X) = lam c_k(X), and exact decisions do not depend on the
    scale: exact data never decide through a float that can underflow."""

    @pytest.mark.parametrize("shape", list(SHAPES))
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_series_scale_exactly(self, shape, data):
        d = data.draw(SHAPES[shape])
        base = series_for_domain(d, 30).values
        for lam in SCALES:
            assert series_for_domain(scaled(d, lam), 30).values == [lam * v for v in base]

    @staticmethod
    def assert_obstruct_scales(x, y):
        def summary(rep):
            assert all(w.slack == 0.0 for w in rep.witnesses)  # exact: no margins
            return rep.verdict, rep.volumes_equal, [(w.criterion, w.k) for w in rep.witnesses]
        want = summary(obstruct(x, y, 20))
        for lam in SCALES:
            assert summary(obstruct(scaled(x, lam), scaled(y, lam), 20)) == want
        return want

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(x=st.one_of(*SHAPES.values()), y=st.one_of(*SHAPES.values()))
    def test_obstruct_verdict_scales(self, x, y):
        self.assert_obstruct_scales(x, y)

    @pytest.mark.parametrize("x, y, verdict, equal, kinds", [
        (domains.ellipsoid(1, 2), domains.square(1), "INCONCLUSIVE", True, set()),
        (domains.square(2), domains.ellipsoid(1, 8), "OBSTRUCTED", True,
         {"capacity", "affine_length"}),
        (domains.ball(Fraction(1001, 1000)), domains.ball(1), "OBSTRUCTED", False,
         {"capacity", "volume"}),
    ], ids=["e12-square", "square-e18", "b1001-b1"])
    def test_equal_and_near_volumes_keep_their_verdict(self, x, y, verdict, equal, kinds):
        got, volumes_equal, witnesses = self.assert_obstruct_scales(x, y)
        assert (got, volumes_equal, {c for c, _ in witnesses}) == (verdict, equal, kinds)


@st.composite
def convex_weight_lists(draw):
    """(c; w) with c = p/q, q <= 4, and up to six weights c*j/12: about
    two in five are ball packings."""
    head = draw(st.builds(Fraction, st.integers(1, 24), st.sampled_from([1, 2, 3, 4])))
    ws = draw(st.lists(st.builds(Fraction, st.integers(1, 12), st.just(12)), max_size=6))
    return domains.weight_list(head, [head * w for w in ws])


class TestBallPacking:
    """`validate` takes a convex weight list only when it is a ball packing
    of the head's triangle, the case the corner-complement formula holds for."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(d=convex_weight_lists())
    def test_accepted_lists_have_positive_nondecreasing_series(self, d):
        try:
            domains.validate(d)
        except CapaxError:
            return
        series = series_for_domain(d, 20)
        assert series.value(1) > 0
        series.assert_nondecreasing()

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(d=rational_convex_polygons())
    def test_polygon_weights_are_a_packing(self, d):
        tree = convex_weights(d)
        domains.validate(domains.weight_list(tree.head, tree.weight_multiset()))
