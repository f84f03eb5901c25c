import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capax import domains
from capax.errors import BelowThreshold, SearchSpaceEmpty
from capax.capacities import (
    _EnumContext,
    _nef_floor,
    CapacitySeries,
    alg_capacity_enum,
    alg_capacity_series,
    ball_capacities,
    ball_values_np,
    c_plus,
    c_plus_reference,
    concave_capacity,
    convex_capacity,
    d_index,
    dkn_upper,
    e12_values_np,
    ellipsoid_capacities,
    ellipsoid_values_np,
    polydisk_capacities,
    polydisk_value,
    series_for_domain,
    square_capacities,
    square_values_np,
    tower_capacity,
    union_capacities,
    union_of_balls,
)
from capax.scalars import sfloat
from capax.tower import blowup, build_tower, p2_init
from capax.weights import TruncationLimits, convex_weights
from conftest import convex_hull, random_convex_polygon

PHI = (1 + math.sqrt(5)) / 2


def golden_triangle():
    """The triangle (0,0), (1,0), (0,phi) over Q(sqrt 5)."""
    from capax.scalars import Quad
    z, one = Quad(0, 0, 5), Quad(1, 0, 5)
    phi = Quad(Fraction(1, 2), Fraction(1, 2), 5)
    return domains.polygon([(z, z), (one, z), (z, phi)], "convex", backend="sqrt:5")


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
        assert sfloat(e.value(3)) == pytest.approx(2.0)

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
        assert [sfloat(v) for v in s.values] == brute

    @pytest.mark.parametrize("w, h", [(Fraction(1), Fraction(1)),
                                      (Fraction(3, 2), Fraction(5, 7)), (2, Fraction(1, 3))])
    def test_polydisk_integer_path_is_exact(self, w, h):
        # the scaled-integer path gives the Fraction scan's values
        s = polydisk_capacities(w, h, 300)
        assert s.values == [polydisk_value(Fraction(w), Fraction(h), k) for k in range(301)]
        assert all(isinstance(v, Fraction) for v in s.values)

    def test_numpy_forms_match_scalar(self):
        ks = np.arange(0, 400)
        assert list(ball_values_np(1.0, ks)) == [
            float(v) for v in ball_capacities(Fraction(1), 399).values]
        assert list(e12_values_np(ks)) == [
            float(v) for v in ellipsoid_capacities(Fraction(1), Fraction(2), 399).values]
        assert list(square_values_np(1.0, ks)) == [
            float(v) for v in square_capacities(Fraction(1), 399).values]
        phi_vals = ellipsoid_values_np(1.0, PHI, 399)
        heap_vals = ellipsoid_capacities(1.0, PHI, 399).float_values()
        assert phi_vals == pytest.approx(list(heap_vals))


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
        fast = union_of_balls(ws, 30, Fraction(0))
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

    def test_certificate_tolerance_enforced(self):
        from capax.errors import TruncationTooCoarse
        E = domains.ellipsoid(1.0, PHI, backend="float")
        with pytest.raises(TruncationTooCoarse):
            concave_capacity(E, 60, TruncationLimits(eps=1e-2),
                             certificate_tol=1e-9)
        concave_capacity(E, 60, TruncationLimits(eps=1e-12),
                         certificate_tol=1e-6)


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
        oracle = ellipsoid_capacities(1.0, PHI, 30)
        for k in range(31):
            assert sfloat(got.value(k)) == pytest.approx(
                sfloat(oracle.value(k)), abs=got.lower_slack[k] + 1e-9)

    def test_truncated_tower_bracket(self):
        d = golden_triangle()
        tree = convex_weights(d, TruncationLimits(eps=1e-5))
        tw = build_tower(tree)
        oracle = ellipsoid_capacities(1.0, PHI, 9)
        for k in (1, 4, 9):
            res = tower_capacity(tw, k)
            lo, hi = res.bracket
            assert lo - 1e-9 <= sfloat(oracle.value(k)) <= hi + 1e-9


def reference_scan(d, K, limits=None):
    """The index-by-index certified infimum scan of the convex route.

    c_k = min_s c*d(k+s) - M(s) over s up to the first index at which the
    lower bound for all later candidates clears the best one; the lower
    slack is the best value minus min_s cand(s) - d(s)*tail."""
    tree = convex_weights(d, limits)
    profile = domains.validate(d)
    c, c_f = tree.head, sfloat(tree.head)
    w_total = 3 * c_f - (sfloat(profile.a) + sfloat(profile.b)
                         + sfloat(profile.total_affine_plus))
    v = max(c_f ** 2 / 2.0 - sfloat(domains.area(d)), 0.0)
    tail = sfloat(tree.truncation.dropped_tail_sum)
    weights = sorted(tree.weight_multiset(), key=sfloat, reverse=True)
    M = []
    values, slack = [c - c], [0.0]
    for k in range(1, K + 1):
        best, best_f, lo, s = None, math.inf, math.inf, 0
        while True:
            if s >= len(M):
                M = union_of_balls(weights, 2 * len(M) or 64, c - c)
            cand = c * d_index(k + s) - M[s]
            if best is None or cand < best:
                best, best_f = cand, sfloat(cand)
            lo = min(lo, sfloat(cand) - d_index(s) * tail)
            u = max(s + 1, 2 * v * k / (c_f * c_f - 2 * v)) if v > 0 else s + 1
            floor = c_f * (math.sqrt(2 * (k + u)) - 1.5) - math.sqrt(4 * v * u) - w_total
            if floor >= best_f + 1e-9 * (1 + abs(best_f)):
                break
            s += 1
        values.append(best)
        slack.append(best_f - lo)
    return values, slack


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

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(d=rational_convex_polygons(), eps=st.sampled_from([0.05, 0.3, 1.0]))
    def test_truncated_bracket_contains_complete_value(self, d, eps):
        exact = convex_capacity(d, 60)
        truncated = convex_capacity(d, 60, TruncationLimits(eps=eps))
        for k in range(61):
            c = sfloat(exact.value(k))
            assert truncated.lo(k) - 1e-9 <= c <= truncated.hi(k) + 1e-9

    def test_float_backend_golden_triangle(self):
        d = domains.polygon([(0, 0), (1, 0), (0, PHI)], "convex", backend="float")
        got = convex_capacity(d, 30, TruncationLimits(eps=1e-10))
        oracle = ellipsoid_capacities(1.0, PHI, 30)
        for k in range(31):
            assert sfloat(got.value(k)) == pytest.approx(
                sfloat(oracle.value(k)), abs=got.lower_slack[k] + 1e-9)


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


class TestTowerCapacity:
    def test_fig_k1(self, fig_polygon):
        tw = build_tower(convex_weights(fig_polygon))
        res = tower_capacity(tw, 1, all_levels=True)
        assert res.value == 4 and res.stabilized
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
        vals = [sfloat(v) for v in res.per_level]
        assert vals == sorted(vals, reverse=True)


class TestChainedOracle:
    """tower_capacity on one shared context, walked down from kmax with
    ub = c_{k+1} + 1e-9, gives what a fresh call per k gives."""

    @pytest.mark.parametrize("make, limits, kmax", [
        (lambda: domains.polygon([(0, 0), (4, 0), (4, 1), (2, 3), (0, 4)], "convex"),
         None, 30),
        (golden_triangle, TruncationLimits(eps=1e-5), 9),
    ], ids=["fig", "golden-truncated"])
    def test_chained_equals_fresh(self, make, limits, kmax):
        tw = build_tower(convex_weights(make(), limits))
        ctx, ub = _EnumContext(tw.final), None
        for k in range(kmax, -1, -1):
            chained = tower_capacity(tw, k, ub=ub, ctx=ctx)
            fresh = tower_capacity(tw, k)
            assert chained.value == fresh.value
            assert chained.bracket == fresh.bracket
            ub = sfloat(chained.value) + 1e-9


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
            return sfloat(s.A[0])
        rows, rhs = [], []
        for c in s.curves:
            cls = tuple(c.cls) + (0,) * (n + 1 - len(c.cls))
            if any(cls[1:]):
                rows.append([-float(x) for x in cls[1:]])
                rhs.append(float(cls[0]))
        res = linprog(c=[sfloat(s.A[i]) for i in range(1, n + 1)], A_ub=rows, b_ub=rhs,
                      bounds=[(0, None)] * n, method="highs")
        assert res.success
        return max(sfloat(s.A[0]) + res.fun, 0.0)

    def check(self, tw):
        for s in tw.surfaces:
            want = self.linprog_floor(s)
            assert _nef_floor(s) == pytest.approx(want, rel=1e-12, abs=1e-12)

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
            assert c_plus(-3, 1, 9, k) <= sfloat(alg_capacity_enum(s, k)) + 1e-12

    def test_below_alg_capacity_on_blowup(self):
        from capax.tower import _dot
        s = blowup(p2_init(Fraction(3)), ("H0", "H1"), Fraction(1))
        a2 = sfloat(_dot(s.A, s.A))
        k_dot_a = -sfloat(_dot(tuple(-x for x in s.K), s.A))
        k2 = 9 - s.n
        threshold = (k_dot_a * k_dot_a / a2 - k2) / 8
        for k in range(int(threshold) + 1, int(threshold) + 12):
            assert c_plus(k_dot_a, a2, k2, k) <= sfloat(alg_capacity_enum(s, k)) + 1e-12


class TestDkn:
    def test_plane_examples(self):
        s = p2_init(Fraction(1))
        assert dkn_upper(s, 2) == pytest.approx(2.0)
        assert dkn_upper(s, 0) == pytest.approx(1.0)

    def test_certifies_enum(self):
        s = blowup(p2_init(Fraction(2)), ("H0", "H1"), Fraction(1))
        for k in (0, 1, 5, 11):
            assert sfloat(alg_capacity_enum(s, k)) <= dkn_upper(s, k) + 1e-9

    def test_certifies_on_random_towers(self):
        rng = random.Random(34)
        d = random_convex_polygon(rng)
        tw = build_tower(convex_weights(d))
        for k in (1, 5, 13, 27):
            assert sfloat(alg_capacity_enum(tw.final, k)) <= dkn_upper(tw.final, k) + 1e-9

    def test_abstract_data_form_matches_surface(self):
        from capax.capacities import dkn_upper_data, f_from_self_intersections
        from capax.tower import _dot, k_plus_dot_A, self_int
        s = blowup(p2_init(Fraction(3)), ("H0", "H1"), Fraction(1))
        ints = [self_int(c.cls) for c in s.curves]
        abstract = dkn_upper_data(
            sfloat(_dot(s.A, s.A)),
            sfloat(_dot(tuple(-x for x in s.K), s.A)),
            f_from_self_intersections(ints),
            sfloat(k_plus_dot_A(s)), 7)
        assert abstract == pytest.approx(dkn_upper(s, 7))


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
        for vals, a2 in ((ball_values_np(1.0, np.arange(1, 20001)), 1.0),
                         (e12_values_np(np.arange(1, 20001)), 2.0)):
            ks = np.arange(1, 20001)
            dev = np.abs(vals ** 2 / ks - 2 * a2)
            assert np.all(dev[100:] <= 8 / np.sqrt(ks[100:]))

    def test_series_csv_json_roundtrip(self):
        s = ellipsoid_capacities(Fraction(1), Fraction(2), 6)
        j = s.to_json()
        back = CapacitySeries.from_json(j)
        assert back.values == s.values
        csv = s.to_csv()
        assert csv.splitlines()[1] == "k,c_k,lower_slack,upper_slack,method"

    def test_series_for_domain_dispatch(self, fig_polygon, e12_triangle):
        assert series_for_domain(domains.ball(2), 5).method == "ball_closed_form"
        assert series_for_domain(domains.ellipsoid(1, 2), 5).method == "ellipsoid_closed_form"
        assert series_for_domain(domains.square(1), 5).method == "polydisk_closed_form"
        assert series_for_domain(fig_polygon, 5).method == "decomposition"
        assert series_for_domain(e12_triangle, 5).values == \
            ellipsoid_capacities(Fraction(1), Fraction(2), 5).values

    def test_curve_series_brackets_disk(self):
        qd = domains.quarter_disk(1)
        s = series_for_domain(qd, 20)
        # inner approximation: value <= true <= value + slack; check against
        # a finer polygonalization
        finer = series_for_domain(qd, 20)
        for k in range(21):
            assert s.lo(k) - 1e-9 <= finer.hi(k)
