import random
from fractions import Fraction

import pytest

from capax import domains
from capax.errors import NonPositiveHead, NotNef, UnknownNode
from capax.tower import (
    F_of_n,
    PicBasisSurface,
    blowup,
    build_tower,
    k_plus_dot_A,
    p2_init,
    tower_dump,
    _dot,
    _negative,
)
from capax.weights import TruncationLimits, convex_weights
from conftest import dense_class, random_convex_polygon
from test_weights import phi_triangle


def nef_test(s: PicBasisSurface, cls) -> tuple[bool, object | None]:
    """cls pairs >= 0 with every boundary curve (they generate the curve cone)."""
    for c in s.curves:
        if _negative(_dot(tuple(cls), dense_class(c, s.n))):
            return False, c.token
    return True, None


def assert_surface_invariants(s: PicBasisSurface):
    """Cycle closes to -K, adjacent curves meet once, K^2 = 9 - n, A nef:
    the full check that blowup's two-curve nef test stands for."""
    total = (0,) * (s.n + 1)
    classes = [dense_class(c, s.n) for c in s.curves]
    for c, cls in zip(s.curves, classes):
        assert list(c.hits) == sorted(set(c.hits)) and all(c.own < i <= s.n for i in c.hits), \
            f"curve {c.token} has hits {c.hits} outside ({c.own}, {s.n}]"
        assert c.square == _dot(cls, cls), f"curve {c.token} has the wrong square"
        assert c.pair(s.A) == _dot(s.A, cls), f"curve {c.token} pairs wrongly with A"
        total = tuple(x + y for x, y in zip(total, cls))
    assert total == tuple(-x for x in s.K)
    assert _dot(s.K, s.K) == 9 - s.n
    m = len(s.curves)
    for i in range(m):
        for j in range(i + 1, m):
            expected = 1 if (j == i + 1 or (i == 0 and j == m - 1)) else 0
            got = _dot(classes[i], classes[j])
            assert got == expected, f"curves {s.curves[i].token},{s.curves[j].token} meet {got}x"
    ok, bad = nef_test(s, s.A)
    assert ok, f"A is not nef against {bad}"


class TestP2Init:
    def test_pairings(self):
        s = p2_init(Fraction(5))
        assert _dot(s.A, s.A) == 25
        assert _dot(tuple(-x for x in s.K), s.A) == 15
        assert [_dot(dense_class(c, 0), dense_class(c, 0)) for c in s.curves] == [1, 1, 1]
        assert k_plus_dot_A(s) == 5

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveHead):
            p2_init(Fraction(0))


class TestBlowup:
    def test_standard_arithmetic(self):
        s = blowup(p2_init(Fraction(1)), ("H0", "H1"), Fraction(1))
        assert _dot(s.A, s.A) == 0
        assert sorted(_dot(v, v) for v in (dense_class(c, 1) for c in s.curves)) == [-1, 0, 0, 1]

    def test_k_bookkeeping(self):
        s = blowup(p2_init(Fraction(5)), ("H0", "H1"), Fraction(1))
        assert _dot(tuple(-x for x in s.K), s.A) == 14
        assert _dot(s.K, s.K) == 9 - 1

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
        # floats: each record's pairing with A rounds as the dense product does
        trees.append(convex_weights(domains.ellipsoid(1, (1 + 5 ** 0.5) / 2, backend="float")))
        trees.append(convex_weights(domains.polygon(
            [(0, 0), (2.5, 0), (3.0, 0.7), (2.2, 2.1), (0.9, 2.6), (0, 2.3)], "convex",
            backend="float", eps=1e-9)))
        for t in trees:
            for s in build_tower(t).surfaces:
                assert_surface_invariants(s)

    def test_levels_share_the_curves_a_blowup_leaves(self):
        # a blowup makes three curve records, the two through its node and
        # the exceptional curve; every other record is the level below's
        rng = random.Random(23)
        towers = []
        while len(towers) < 5:
            tw = build_tower(convex_weights(random_convex_polygon(rng, max_extra=5)))
            if len(tw.order) > 1:
                towers.append(tw)
        for tw in towers:
            for nid, lo, hi in zip(tw.order, tw.surfaces, tw.surfaces[1:]):
                below = {c.token: c for c in lo.curves}
                made = [c for c in hi.curves if below.get(c.token) is not c]
                assert len(made) == 3 and len(hi.curves) == len(lo.curves) + 1
                new = next(c for c in made if c.token == nid)
                assert (new.degree, new.own, new.hits) == (0, hi.n, ())
                for c in made:
                    if c is not new:
                        assert c.hits == below[c.token].hits + (hi.n,)


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
                total = [x + y for x, y in zip(total, dense_class(c, s.n))]
            assert total == [-x for x in s.K]


class TestDivisors:
    def test_k_dot_a_fig(self, fig_polygon):
        s = build_tower(convex_weights(fig_polygon)).final
        assert _dot(s.K, s.A) == -12

    def test_k_dot_a_square(self, unit_square):
        tw = build_tower(convex_weights(unit_square))
        assert _dot(tw.final.K, tw.final.A) == -4
        assert tower_dump(tw)["levels"][-1]["minus_K_dot_A"] == "4"

    def test_bounded_self_pair(self):
        # 3H - e_1 - e_2: two weight-1 blowups of the plane polarised by 3H
        s = blowup(p2_init(Fraction(3)), ("H0", "H1"), Fraction(1), token="E")
        s = blowup(s, ("E", "H1"), Fraction(1))
        assert s.A == (3, -1, -1)
        assert _dot(s.A, s.A) == 7

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
        # A pairs with the blown-up curves to -1/10^400: below float
        # resolution, but negative
        with pytest.raises(NotNef):
            blowup(p2_init(Fraction(1)), ("H0", "H1"), 1 + Fraction(1, 10**400))


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
        v = dense_class(e_curve, s.n)
        assert _dot(v, v) == -3
