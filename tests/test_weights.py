import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capax import domains
from capax.errors import BackendOverflow, DegenerateEdge, TailNotDecreasing
from capax.scalars import Eps, Quad, _primitive_float, seps, sfloat
from capax.weights import (
    INF_NODE,
    _piece_ell_plus,
    TruncationLimits,
    concave_weights,
    convex_weights,
    deficiencies,
    is_balanced,
    linearize,
    tree_from_json,
    tree_to_json,
    truncation_schedule,
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
        assert sfloat(t.truncation.dropped_tail_sum) <= 4 * 1e-4
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
    def test_weights_nonincreasing_and_ancestors_first(self, fig_polygon):
        t = convex_weights(fig_polygon)
        order = linearize(t)
        pos = {nid: i for i, nid in enumerate(order)}
        for n in t.nodes.values():
            if n.parent is not None:
                assert pos[n.parent] < pos[n.id]
        ws = [sfloat(t.nodes[i].weight) for i in order]
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
        positive = sorted(sfloat(v) for v in d.values() if sfloat(v) > 0)
        assert positive == [1, 1, 2]
        assert sfloat(d[INF_NODE]) == 2

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
            defs = sorted(sfloat(v) for v in deficiencies(t).values() if sfloat(v) > 0)
            edges = sorted(sfloat(e.affine_length) for e in p.plus_edges
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

    def test_golden_triangle_balanced(self):
        t = concave_weights(phi_triangle("concave"), TruncationLimits(eps=1e-6))
        ok, offenders = is_balanced(t, 0)
        assert ok and not offenders

    def test_polygonalized_disk_offense_bounded(self):
        r = domains.polygonalize(domains.quarter_disk(1), 64)
        t = convex_weights(r.polygon)
        ok, offenders = is_balanced(t, 0)
        assert not ok
        total = sum(sfloat(v) for _, v in offenders)
        # every offense is a rational edge the sampler introduced
        assert total <= r.introduced_affine_plus + math.sqrt(2.0) + 1e-9


class TestTruncationSchedule:
    def test_geometric_tail(self):
        S = lambda n: Fraction(4, 3) * Fraction(1, 4) ** n
        assert truncation_schedule(S, 256) == 4

    def test_finite_support(self):
        S = lambda n: Fraction(0) if n >= 5 else Fraction(9 - n)
        assert truncation_schedule(S, 77) == 5

    def test_subpolynomial_growth(self):
        S = lambda n: 1.0 / (n + 1)
        n1 = truncation_schedule(S, 10**4)
        n2 = truncation_schedule(S, 4 * 10**4)
        assert n2 / n1 <= 4 ** 0.75 + 0.01
        assert n1 <= math.sqrt(10**4) * 10  # o(sqrt k) scale at finite k

    def test_monotone_in_k(self):
        S = lambda n: 2.0 ** -n
        vals = [truncation_schedule(S, k) for k in (4, 16, 64, 256, 1024)]
        assert vals == sorted(vals)

    def test_rejects_increasing_tail(self):
        with pytest.raises(TailNotDecreasing):
            truncation_schedule(lambda n: n + 1.0, 100)


class TestSerialization:
    def test_json_fields(self, fig_polygon):
        t = convex_weights(fig_polygon)
        j = tree_to_json(t)
        assert j["head"] == "5"
        assert j["weights"] == ["1", "1", "1"]
        assert j["deficiency_inf"] == "2"
        assert j["truncation"]["complete"] is True

    def test_json_roundtrip(self, fig_polygon):
        t = convex_weights(fig_polygon)
        back = tree_from_json(tree_to_json(t))
        assert back.head == t.head
        assert back.roots == t.roots
        assert back.nodes == t.nodes
        assert back.truncation == t.truncation
        # quadratic backend round trip
        tq = concave_weights(phi_triangle("concave"), TruncationLimits(eps=1e-3))
        backq = tree_from_json(tree_to_json(tq))
        assert backq.nodes == tq.nodes
        assert backq.truncation.dropped_tail_sum == tq.truncation.dropped_tail_sum

    def test_csv_h_order(self, fig_polygon):
        t = convex_weights(fig_polygon)
        lines = weights_to_csv(t).strip().splitlines()
        assert lines[0].startswith("# capax-csv")
        assert [ln.split(",")[1] for ln in lines[2:]] == ["1", "1", "1"]


class TestFloatBackend:
    def test_rational_polygon_matches_exact(self):
        exact = convex_weights(
            domains.polygon([(0, 0), (4, 0), (4, 1), (2, 3), (0, 4)], "convex"))
        approx = convex_weights(
            domains.polygon([(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (2.0, 3.0),
                             (0.0, 4.0)], "convex", backend="float", eps=1e-12))
        assert sfloat(approx.head) == 5.0
        assert sorted(sfloat(w) for w in approx.weight_multiset()) == \
            sorted(sfloat(w) for w in exact.weight_multiset())

    def test_golden_triangle_float(self):
        phi = (1 + math.sqrt(5)) / 2
        d = domains.polygon([(0.0, 0.0), (1.0, 0.0), (0.0, phi)], "concave",
                            backend="float", eps=1e-12)
        t = concave_weights(d, TruncationLimits(eps=1e-4))
        ws = [sfloat(w) for w in t.weight_multiset()]
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
        # the vertex tags grow level by level until the contact tolerance
        # takes in both ends of a piece: the tree stops at phi^-13 and the
        # golden powers below it, phi^-13 * phi = phi^-12 in all, are its tail
        phi = 1.618033988749895
        d = domains.polygon([(z, z), (1, z), (z, phi)], "convex", backend="float", eps=1e-9)
        t = convex_weights(d, TruncationLimits(eps=1e-6))
        ws = [sfloat(w) for w in t.weight_multiset()]
        assert ws == pytest.approx([1 / phi] + [phi ** -j for j in range(1, 14)], rel=1e-9)
        assert t.truncation.dropped_pieces == 1 and not t.truncation.complete
        tail = t.truncation.dropped_tail_sum
        assert sfloat(tail) + seps(tail) >= phi ** -12 > 0


    def test_head_contact_sliver_enters_the_tail(self):
        # (0, 3) lies 1e-10 below the head line, inside the 1e-9 tags: the
        # tagged tree drops that corner piece instead of losing it, so its
        # tail is the untagged tree's, where the piece's weights fall below eps
        verts = [(0, 0), (2, 0), (1.5, 1.5 + 1e-10), (0, 3)]
        tails = [sfloat(convex_weights(domains.polygon(verts, "convex", backend="float", eps=tag),
                                       TruncationLimits(eps=1e-6)).truncation.dropped_tail_sum)
                 for tag in (1e-9, 0.0)]
        assert tails[0] == pytest.approx(tails[1], rel=1e-9) and tails[0] > 2


class TestZeroEdge:
    def test_float_zero_vector(self):
        with pytest.raises(DegenerateEdge, match="zero within the float tolerance"):
            _primitive_float(Eps(1e-13, 1e-12), Eps(0.0, 1e-12))

    def test_piece_with_a_repeated_vertex(self):
        graph = [(Fraction(0), Fraction(2)), (Fraction(1), Fraction(1)),
                 (Fraction(1), Fraction(1)), (Fraction(2), Fraction(0))]
        with pytest.raises(DegenerateEdge, match="zero edge vector"):
            _piece_ell_plus(graph, float_backend=False)
        # the float backend reports no rational length and never classifies
        assert _piece_ell_plus(graph, float_backend=True) == 0
