import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capax import curves, domains
from capax.errors import BackendOverflow, DegenerateEdge
from capax.quad import Quad
from capax.scalars import _primitive_float
from capax.weights import (
    INF_NODE,
    _rational,
    TruncationLimits,
    concave_weights,
    convex_weights,
    deficiencies,
    is_balanced,
    linearize,
    tree_to_json,
    weights_to_csv,
)
from conftest import random_convex_polygon

PHI = Quad(Fraction(1, 2), Fraction(1, 2), 5)


def phi_triangle(orientation):
    z, o = Quad(0, 0, 5), Quad(1, 0, 5)
    return domains.polygon([(z, z), (o, z), (z, PHI)], orientation, backend="sqrt:5")


class TestConcave:
    def test_standard_triangle_single_node(self):
        t = concave_weights(domains.ellipsoid(3, 3))
        assert t.head is None
        assert [n.weight for n in t.nodes.values()] == [3]
        # the whole hypotenuse is the introduced edge
        assert list(t.nodes.values())[0].introduced == 3

    def test_e12_splits_into_unit_balls(self, e12_triangle):
        t = concave_weights(e12_triangle)
        assert sorted(t.weight_multiset()) == [1, 1]
        assert len(t.roots) == 1

    def test_golden_triangle_fibonacci_weights(self):
        t = concave_weights(phi_triangle("concave"), TruncationLimits(eps=1e-4))
        ws = [float(w) for w in t.weight_multiset()]
        phi = (1 + math.sqrt(5)) / 2
        expected = [phi ** -j for j in range(len(ws))]
        assert ws == pytest.approx(expected)
        assert float(t.truncation.dropped_tail_sum) <= 4 * 1e-4
        # exact tail identities in the field
        total = Quad(0, 0, 5)
        for w in t.weight_multiset():
            total = total + w * w
        assert total + t.truncation.dropped_tail_sq == 2 * domains.area(phi_triangle("concave"))


def mirror(d):
    """The concave domain whose upper boundary is a convex domain's, turned
    by (x, y) -> (a - x, b - y)."""
    p = domains.validate(d)
    zero = p.a - p.a
    return domains.polygon([(zero, zero)] + [(p.a - x, p.b - y) for x, y in p.chain],
                           "concave", backend=d.backend)


def assert_tail_identities(d, t):
    """The area and length identities of a tree, its dropped tail included."""
    p = domains.validate(d)
    zero = p.a - p.a
    sq = sum((w * w for w in t.weight_multiset()), zero) + t.truncation.dropped_tail_sq
    total = sum(t.weight_multiset(), zero) + t.truncation.dropped_tail_sum
    if t.head is None:
        assert sq == 2 * domains.area(d)
        assert total == p.a + p.b - p.total_affine_plus
    else:
        assert t.head * t.head - sq == 2 * domains.area(d)
        assert 3 * t.head - total == p.a + p.b + p.total_affine_plus


class TestTailIdentities:
    LIMITS = [TruncationLimits(), TruncationLimits(eps=0.3), TruncationLimits(eps=0.05),
              TruncationLimits(max_depth=1, eps=1e-12), TruncationLimits(max_depth=3, eps=1e-12),
              TruncationLimits(max_depth=1), TruncationLimits(max_depth=3)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), limits=st.sampled_from(LIMITS))
    def test_random_polygons(self, seed, limits):
        d = random_convex_polygon(random.Random(seed))
        assert_tail_identities(d, convex_weights(d, limits))
        assert_tail_identities(mirror(d), concave_weights(mirror(d), limits))

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    @pytest.mark.parametrize("orientation", ["convex", "concave"])
    def test_golden_triangle(self, orientation, eps):
        fn = convex_weights if orientation == "convex" else concave_weights
        t = fn(phi_triangle(orientation), TruncationLimits(eps=eps))
        assert not t.truncation.complete
        assert_tail_identities(phi_triangle(orientation), t)

    @pytest.mark.parametrize("orientation", ["convex", "concave"])
    def test_golden_triangle_without_eps_is_refused(self, orientation):
        # the expansion never ends; its exact coordinates outgrow floats
        # long before the depth limit, and no gap is taken for contact
        fn = convex_weights if orientation == "convex" else concave_weights
        with pytest.raises(BackendOverflow, match="set truncation limits"):
            fn(phi_triangle(orientation))


class TestConvex:
    def test_fig_polygon_shape(self, fig_polygon):
        t = convex_weights(fig_polygon)
        assert t.head == 5
        assert sorted(t.weight_multiset()) == [1, 1, 1]
        shapes = sorted(len(t.nodes[r].children) for r in t.roots)
        assert shapes == [0, 1]  # one leaf root, one root with a single child
        assert t.truncation.complete

    def test_unit_square(self, unit_square):
        t = convex_weights(unit_square)
        assert t.head == 2
        assert sorted(t.weight_multiset()) == [1, 1]
        assert all(not t.nodes[r].children for r in t.roots)

    def test_standard_triangle_no_subtrees(self):
        t = convex_weights(domains.ellipsoid(4, 4))
        assert t.head == 4 and not t.nodes
        assert t.head_introduced == 4

    def test_volume_identity_fig(self, fig_polygon):
        t = convex_weights(fig_polygon)
        sq = sum((w * w for w in t.weight_multiset()), Fraction(0))
        assert t.head * t.head - sq == 2 * domains.area(fig_polygon)

    def test_volume_identity_random(self):
        rng = random.Random(11)
        for _ in range(8):
            d = random_convex_polygon(rng)
            t = convex_weights(d)
            assert t.truncation.complete  # rational data terminates
            sq = sum((w * w for w in t.weight_multiset()), Fraction(0))
            assert t.head * t.head - sq == 2 * domains.area(d)

    def test_sum_identity_random(self):
        # 3c - sum(weights) = a + b + affine length of the upper boundary
        rng = random.Random(12)
        for _ in range(8):
            d = random_convex_polygon(rng)
            t = convex_weights(d)
            p = domains.validate(d)
            total = sum(t.weight_multiset(), Fraction(0))
            assert 3 * t.head - total == p.a + p.b + p.total_affine_plus

    def test_parent_dominance(self):
        rng = random.Random(13)
        for _ in range(6):
            t = convex_weights(random_convex_polygon(rng))
            for n in t.nodes.values():
                if n.parent is not None:
                    assert n.weight <= t.nodes[n.parent].weight
                assert n.weight <= t.head


class TestLinearize:
    """linearize sorts by weight, descending, ties by id: on every kind of
    tree that is an ancestors-first order."""

    @staticmethod
    def check(t):
        order = linearize(t)
        assert sorted(order) == sorted(t.nodes)
        pos = {i: rank for rank, i in enumerate(order)}
        assert all(pos[n.parent] < pos[n.id] for n in t.nodes.values() if n.parent is not None)
        for i, j in zip(order, order[1:]):
            wi, wj = t.nodes[i].weight, t.nodes[j].weight
            assert wi > wj or (wi == wj and i < j)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1),
           legs=st.tuples(*[st.builds(Fraction, st.integers(1, 40), st.integers(1, 12))] * 2))
    def test_exact_trees(self, seed, legs):
        self.check(convex_weights(random_convex_polygon(random.Random(seed))))
        a, b = legs
        self.check(concave_weights(domains.polygon([(0, 0), (a, 0), (0, b)], "concave")))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(eps=st.sampled_from([1e-2, 1e-4, 1e-6]),
           orientation=st.sampled_from(["convex", "concave"]))
    def test_truncated_golden_triangle(self, eps, orientation):
        fn = convex_weights if orientation == "convex" else concave_weights
        self.check(fn(phi_triangle(orientation), TruncationLimits(eps=eps)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), eps=st.sampled_from([1e-3, 1e-6]))
    def test_float_trees(self, seed, eps):
        d = random_convex_polygon(random.Random(seed))
        vs = [(float(x) * math.sqrt(2), float(y)) for x, y in d.vertices]
        t = convex_weights(domains.polygon(vs, "convex", backend="float"),
                           TruncationLimits(eps=eps))
        assert all(type(n.weight) is float for n in t.nodes.values())
        self.check(t)

    def test_weights_nonincreasing_and_ancestors_first(self, fig_polygon):
        t = convex_weights(fig_polygon)
        order = linearize(t)
        pos = {nid: i for i, nid in enumerate(order)}
        for n in t.nodes.values():
            if n.parent is not None:
                assert pos[n.parent] < pos[n.id]
        ws = [float(t.nodes[i].weight) for i in order]
        assert ws == sorted(ws, reverse=True)

    def test_tie_break_by_id(self, unit_square):
        t = convex_weights(unit_square)
        assert linearize(t) == sorted(t.roots)

    def test_single_node(self):
        t = concave_weights(domains.ellipsoid(2, 2))
        assert linearize(t) == list(t.nodes)


class TestDeficiencies:
    def test_fig_values(self, fig_polygon):
        t = convex_weights(fig_polygon)
        d = deficiencies(t)
        positive = sorted(float(v) for v in d.values() if float(v) > 0)
        assert positive == [1, 1, 2]
        assert float(d[INF_NODE]) == 2

    def test_square_values(self, unit_square):
        t = convex_weights(unit_square)
        d = deficiencies(t)
        assert d[INF_NODE] == 0
        assert sorted(v for k, v in d.items() if k != INF_NODE) == [1, 1]

    def test_bijection_with_rational_edges(self):
        rng = random.Random(14)
        for _ in range(8):
            dom = random_convex_polygon(rng)
            t = convex_weights(dom)
            p = domains.validate(dom)
            defs = sorted(float(v) for v in deficiencies(t).values() if float(v) > 0)
            edges = sorted(float(e.affine_length) for e in p.plus_edges
                           if e.rational_sloped)
            assert defs == edges  # counts and multisets agree

    def test_total_equals_affine_length(self, fig_polygon):
        t = convex_weights(fig_polygon)
        p = domains.validate(fig_polygon)
        assert sum(deficiencies(t).values(), Fraction(0)) == p.total_affine_plus


class TestBalanced:
    def test_square_unbalanced(self, unit_square):
        ok, offenders = is_balanced(convex_weights(unit_square))
        assert not ok and len(offenders) == 2

    def test_exact_deficiency_below_float_resolution(self, unit_square):
        t = convex_weights(unit_square)
        tiny = Fraction(1, 10**400)  # 0.0 as a float
        t.nodes = {i: n._replace(introduced=Fraction(0)) for i, n in t.nodes.items()}
        t.head_introduced = tiny
        assert is_balanced(t, 0) == (False, [(INF_NODE, tiny)])

    def test_golden_triangle_balanced(self):
        t = concave_weights(phi_triangle("concave"), TruncationLimits(eps=1e-6))
        ok, offenders = is_balanced(t, 0)
        assert ok and not offenders

    def test_polygonalized_disk_offense_bounded(self):
        poly, _ = curves.inner_grid_polygon(curves.quarter_disk(1), 64)
        t = convex_weights(poly)
        ok, offenders = is_balanced(t, 0)
        assert not ok
        total = sum(float(v) for _, v in offenders)
        # every offense is a rational edge the grid introduced
        introduced = float(domains.validate(poly).total_affine_plus)
        assert total <= introduced + math.sqrt(2.0) + 1e-9


class TestSerialization:
    def test_json_fields(self, fig_polygon):
        t = convex_weights(fig_polygon)
        j = tree_to_json(t)
        assert j["head"] == "5"
        assert j["weights"] == ["1", "1", "1"]
        assert j["deficiency_inf"] == "2"
        assert j["truncation"]["complete"] is True

    def test_csv_h_order(self, fig_polygon):
        t = convex_weights(fig_polygon)
        out = []
        weights_to_csv(t, out.append)
        lines = "".join(out).strip().splitlines()
        assert lines[0].startswith("# capax-csv")
        assert [ln.split(",")[1] for ln in lines[2:]] == ["1", "1", "1"]


class TestFloatBackend:
    def test_rational_polygon_matches_exact(self):
        exact = convex_weights(
            domains.polygon([(0, 0), (4, 0), (4, 1), (2, 3), (0, 4)], "convex"))
        approx = convex_weights(
            domains.polygon([(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (2.0, 3.0),
                             (0.0, 4.0)], "convex", backend="float", eps=1e-12))
        assert float(approx.head) == 5.0
        assert sorted(float(w) for w in approx.weight_multiset()) == \
            sorted(float(w) for w in exact.weight_multiset())

    def test_golden_triangle_float(self):
        phi = (1 + math.sqrt(5)) / 2
        d = domains.polygon([(0.0, 0.0), (1.0, 0.0), (0.0, phi)], "concave",
                            backend="float", eps=1e-12)
        t = concave_weights(d, TruncationLimits(eps=1e-4))
        ws = [float(w) for w in t.weight_multiset()]
        assert ws == pytest.approx([phi ** -j for j in range(len(ws))], abs=1e-9)

    def test_int_zeros_take_the_float_recursion(self):
        # integer zeros in a float polygon used to pick the exact recursion;
        # the float one has the depth limit 256
        phi = 1.618033988749895
        for z in (0, "0"):
            d = domains.polygon([(z, z), (1, z), (z, phi)], "convex",
                                backend="float", eps=1e-12)
            t = convex_weights(d, TruncationLimits(eps=1e-6))
            assert t.truncation.max_depth == 256


    @pytest.mark.parametrize("z", [0, "0"])
    def test_absorbed_sliver_enters_the_tail(self, z):
        # the recursion runs on the dyadic triangle the floats stand for, so
        # the input tolerance does not enter it: the golden powers go on down to
        # eps, and the one piece below it is the tail
        phi = 1.618033988749895
        trees = [convex_weights(domains.polygon([(z, z), (1, z), (z, phi)], "convex",
                                                backend="float", eps=tag),
                                TruncationLimits(eps=1e-6))
                 for tag in (1e-9, 0.0)]
        assert tree_to_json(trees[0]) == tree_to_json(trees[1])
        t = trees[0]
        ws = [float(w) for w in t.weight_multiset()]
        assert ws == pytest.approx([1 / phi] + [phi ** -j for j in range(1, len(ws))], abs=1e-9)
        assert len(ws) == 29 and ws[-1] >= 1e-6
        assert t.truncation.dropped_pieces == 1 and not t.truncation.complete
        assert 0 < float(t.truncation.dropped_tail_sum) < phi ** -26

    def test_head_contact_sliver_enters_the_tail(self):
        # (0, 3) lies 1e-10 below the head line: the contact is exact, so the
        # corner piece is a piece of its own, whose weights fall below eps.
        # Its exact a + b - ell is the tail, with or without the 1e-9 tolerance,
        # and it is the exact tree's tail on the rationals the floats stand for
        verts = [(0, 0), (2, 0), (1.5, 1.5 + 1e-10), (0, 3)]
        limits = TruncationLimits(eps=1e-6)
        exact = convex_weights(domains.polygon([(_rational(x), _rational(y)) for x, y in verts],
                                               "convex"), limits)
        for tag in (1e-9, 0.0):
            t = convex_weights(domains.polygon(verts, "convex", backend="float", eps=tag), limits)
            assert float(t.truncation.dropped_tail_sum) == \
                float(exact.truncation.dropped_tail_sum) == 2.000000000199993
            assert [float(w) for w in t.weight_multiset()] == \
                [float(w) for w in exact.weight_multiset()]

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(p=st.integers(0, 2**24), q=st.integers(1, 2**13))
    def test_float_of_a_small_rational_maps_back(self, p, q):
        assert _rational(float(Fraction(p, q))) == Fraction(p, q)


class TestZeroEdge:
    def test_float_zero_vector(self):
        with pytest.raises(DegenerateEdge, match="zero within the float tolerance"):
            _primitive_float(1e-13, 0.0, 2e-12)

    def test_piece_with_a_repeated_vertex(self):
        graph = [(Fraction(0), Fraction(2)), (Fraction(1), Fraction(1)),
                 (Fraction(1), Fraction(1)), (Fraction(2), Fraction(0))]
        with pytest.raises(DegenerateEdge, match="zero edge vector"):
            domains.walk_chain(graph, 0)


def test_golden_triangle_at_scale_1e_minus_200_keeps_its_weights():
    # float(Quad) of a piece once underflowed to 0, so eps 1e-206 dropped the
    # whole tree into its tail
    lam = Fraction(1, 10**200)
    z = Quad(0, 0, 5)
    unit = convex_weights(phi_triangle("convex"), TruncationLimits(eps=1e-6))
    small = convex_weights(domains.polygon([(z, z), (z + lam, z), (z, PHI * lam)], "convex",
                                           backend="sqrt:5"), TruncationLimits(eps=1e-206))
    assert len(unit.weight_multiset()) == 29
    assert sorted(small.weight_multiset()) == sorted(w * lam for w in unit.weight_multiset())
    assert small.truncation.dropped_tail_sum == unit.truncation.dropped_tail_sum * lam
