import random
from fractions import Fraction

import pytest

from capax import domains
from capax.errors import NonPositiveHead, NotNef, UnknownNode, UnpairableTails
from capax.tower import (
    TowerDivisor,
    F_of_n,
    assert_surface_invariants,
    blowup,
    build_tower,
    canonical_divisor,
    intersect,
    k_plus_dot_A,
    nef_test,
    p2_init,
    polarisation_divisor,
    self_int,
    tower_dump,
    _dot,
)
from capax.weights import TruncationLimits, convex_weights
from conftest import random_convex_polygon
from test_weights import phi_triangle


class TestP2Init:
    def test_pairings(self):
        s = p2_init(Fraction(5))
        assert _dot(s.A, s.A) == 25
        assert _dot(tuple(-x for x in s.K), s.A) == 15
        assert [self_int(c.cls) for c in s.curves] == [1, 1, 1]
        assert k_plus_dot_A(s) == 5

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveHead):
            p2_init(Fraction(0))


class TestBlowup:
    def test_standard_arithmetic(self):
        s = blowup(p2_init(Fraction(1)), ("H0", "H1"), Fraction(1))
        assert _dot(s.A, s.A) == 0
        assert sorted(self_int(c.cls) for c in s.curves) == [-1, 0, 0, 1]

    def test_k_bookkeeping(self):
        s = blowup(p2_init(Fraction(5)), ("H0", "H1"), Fraction(1))
        assert _dot(tuple(-x for x in s.K), s.A) == 14
        assert self_int(s.K) == 9 - 1

    def test_zero_weight_keeps_a2(self):
        s0 = p2_init(Fraction(3))
        s1 = blowup(s0, ("H0", "H2"), Fraction(0))
        assert _dot(s1.A, s1.A) == _dot(s0.A, s0.A)

    def test_rejects_unknown_node_and_non_nef(self):
        s = p2_init(Fraction(1))
        with pytest.raises(UnknownNode):
            blowup(s, ("H0", 99), Fraction(1))
        with pytest.raises(NotNef):
            blowup(s, ("H0", "H1"), Fraction(2))  # weight above the head

    def test_blown_up_node_is_gone(self):
        s = blowup(p2_init(Fraction(2)), ("H0", "H1"), Fraction(1))
        with pytest.raises(UnknownNode):
            blowup(s, ("H0", "H1"), Fraction(0))

    def test_wrap_around_node_inserts_at_front(self):
        s = blowup(p2_init(Fraction(1)), ("H0", "H2"), 0, token="E")
        assert [c.token for c in s.curves] == ["E", "H0", "H1", "H2"]

    def test_invariants_along_random_towers(self):
        rng = random.Random(21)
        trees = [convex_weights(random_convex_polygon(rng)) for _ in range(5)]
        # Q(sqrt 5): the full nef check of every level on irrational data
        trees.append(convex_weights(phi_triangle("convex"), TruncationLimits(eps=1e-5)))
        for t in trees:
            for s in build_tower(t).surfaces:
                assert_surface_invariants(s)


class TestBuildTower:
    def test_fig_levels(self, fig_polygon):
        tw = build_tower(convex_weights(fig_polygon))
        dump = tower_dump(tw)
        assert [lv["A2"] for lv in dump["levels"]] == ["25", "24", "23", "22"]
        assert dump["levels"][-1]["minus_K_dot_A"] == "12"
        assert dump["levels"][-1]["minus_Kplus_dot_A"] == "4"

    def test_square_levels(self, unit_square):
        tw = build_tower(convex_weights(unit_square))
        assert [lv["A2"] for lv in tower_dump(tw)["levels"]] == ["4", "3", "2"]

    def test_triangle_no_blowups(self):
        tw = build_tower(convex_weights(domains.ellipsoid(2, 2)))
        assert len(tw.surfaces) == 1

    def test_a2_monotone_matches_partial_sums(self, fig_polygon):
        t = convex_weights(fig_polygon)
        tw = build_tower(t)
        running = t.head * t.head
        seen = [running]
        for nid, s in zip(tw.order, tw.surfaces[1:]):
            running = running - t.nodes[nid].weight ** 2
            seen.append(running)
            assert _dot(s.A, s.A) == running
        assert all(x >= 0 for x in seen)

    def test_concave_tree_rejected(self, e12_triangle):
        from capax.weights import concave_weights
        with pytest.raises(NonPositiveHead):
            build_tower(concave_weights(e12_triangle))

    def test_f_increment_bounded(self):
        rng = random.Random(22)
        for _ in range(6):
            tw = build_tower(convex_weights(random_convex_polygon(rng)))
            fs = [F_of_n(s) for s in tw.surfaces]
            assert fs[0] == 0
            assert all(b - a <= 5 for a, b in zip(fs, fs[1:]))

    def test_boundary_sums_to_minus_k(self, fig_polygon):
        tw = build_tower(convex_weights(fig_polygon))
        for s in tw.surfaces:
            total = [0] * (s.n + 1)
            for c in s.curves:
                cls = list(c.cls) + [0] * (s.n + 1 - len(c.cls))
                total = [x + y for x, y in zip(total, cls)]
            assert total == [-x for x in s.K]


class TestDivisors:
    def test_k_dot_a_fig(self, fig_polygon):
        t = convex_weights(fig_polygon)
        assert intersect(canonical_divisor(), polarisation_divisor(t)) == -12

    def test_k_dot_a_square(self, unit_square):
        t = convex_weights(unit_square)
        assert intersect(canonical_divisor(), polarisation_divisor(t)) == -4

    def test_bounded_self_pair(self):
        D = TowerDivisor(base=Fraction(3),
                         weights={0: Fraction(1), 1: Fraction(1)}, tail="zero")
        assert intersect(D, D) == 7

    def test_two_constant_tails_rejected(self):
        with pytest.raises(UnpairableTails):
            intersect(canonical_divisor(), canonical_divisor())

    def test_k_plus_limits(self, fig_polygon, unit_square):
        for dom, expected in ((fig_polygon, 4), (unit_square, 2)):
            t = convex_weights(dom)
            tw = build_tower(t)
            p = domains.validate(dom)
            assert k_plus_dot_A(tw.final) == expected == p.total_affine_plus


class TestNef:
    def test_examples(self):
        s = blowup(p2_init(Fraction(1)), ("H0", "H1"), Fraction(1))
        assert nef_test(s, (1, -1)) == (True, None)
        ok, bad = nef_test(s, (2, -3))
        assert not ok and bad is not None
        assert nef_test(s, (0, 0)) == (True, None)

    def test_exact_values_compare_exactly(self):
        # below float resolution, but negative
        assert nef_test(p2_init(Fraction(1)), (Fraction(-1, 10**400),)) == (False, "H0")

    def test_dimension_mismatch(self):
        from capax.errors import DimensionMismatch
        with pytest.raises(DimensionMismatch):
            nef_test(p2_init(Fraction(1)), (1, 0))


class TestF:
    def test_plane_and_one_blowup(self):
        s = p2_init(Fraction(2))
        assert F_of_n(s) == 0
        s1 = blowup(s, ("H0", "H1"), Fraction(1))
        assert F_of_n(s1) == 1

    def test_exceptional_becomes_minus_three(self):
        s = blowup(p2_init(Fraction(4)), ("H0", "H1"), Fraction(2), token="E")
        f_prev = F_of_n(s)
        s = blowup(s, ("H0", "E"), Fraction(1))
        assert F_of_n(s) - f_prev <= 5
        f_prev = F_of_n(s)
        s = blowup(s, ("E", "H1"), Fraction(1))
        assert F_of_n(s) - f_prev <= 5
        e_curve = next(c for c in s.curves if c.token == "E")
        assert self_int(e_curve.cls) == -3
