import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capax import curves, domains
from capax.errors import (
    AxisContactMissing,
    EmptyDomain,
    InvalidSpec,
    NonConvex,
    NotInQuadrant,
)
from capax.quad import Quad
from capax.weights import convex_weights


class TestValidate:
    def test_fig_polygon_profile(self, fig_polygon):
        p = domains.validate(fig_polygon)
        assert (p.a, p.b) == (4, 4)
        got = [(e.direction, e.affine_length) for e in p.plus_edges]
        # chain runs x-increasing from (0,4) to (4,0)
        assert got == [((2, -1), 1), ((1, -1), 2), ((0, -1), 1)]
        assert p.total_affine_plus == 4

    def test_unit_triangle(self):
        p = domains.validate(domains.ellipsoid(1, 1))
        assert (p.a, p.b) == (1, 1)
        assert len(p.plus_edges) == 1
        assert p.plus_edges[0].direction in ((-1, 1), (1, -1))
        assert p.plus_edges[0].affine_length == 1

    def test_quarter_disk(self):
        p = domains.validate(curves.quarter_disk(1))
        assert float(p.a) == 1 and float(p.b) == 1
        assert float(p.total_affine_plus) == 0
        assert p.smooth

    def test_orientation_normalized(self):
        # clockwise input is accepted and reversed
        d = domains.polygon([(0, 0), (0, 1), (1, 0)], "convex")
        p = domains.validate(d)
        assert (p.a, p.b) == (1, 1)

    def test_rejections(self):
        with pytest.raises(NotInQuadrant):
            domains.validate(domains.polygon([(0, 0), (2, 0), (-1, 1)], "convex"))
        with pytest.raises(NonConvex):
            domains.validate(domains.polygon(
                [(0, 0), (3, 0), (3, 3), (1, 1), (0, 3)], "convex"))
        with pytest.raises(AxisContactMissing):
            domains.validate(domains.polygon([(1, 1), (2, 1), (1, 2)], "convex"))
        with pytest.raises(EmptyDomain):
            domains.validate(domains.polygon([(0, 0), (1, 0)], "convex"))
        # a square is not the region under a convex function
        with pytest.raises(NonConvex):
            domains.validate(domains.polygon(
                [(0, 0), (1, 0), (1, 1), (0, 1)], "concave"))

    def test_weights_must_leave_area(self):
        # head^2 - sum w^2 is twice the area; floats judge it beyond the area tolerance
        for ws in (["2", "2", "2"], ["2", "2", "1"], ["1"] * 9):
            with pytest.raises(EmptyDomain):
                domains.validate(domains.weight_list("3", ws))
        domains.validate(domains.weight_list("3", ["2", "1"]))
        with pytest.raises(EmptyDomain):
            domains.validate(domains.weight_list("3", ["2", "2", "1"], "float", 1e-9))
        near = ["1"] * 8 + ["0.9999"]  # twice the area is 2e-4
        with pytest.raises(EmptyDomain):
            domains.validate(domains.weight_list("3", near, "float", 1e-2))
        domains.validate(domains.weight_list("3", near, "float", 1e-9))

    @pytest.mark.parametrize("backend", ["exact", "float", "sqrt:5"])
    def test_convex_weights_must_be_a_ball_packing(self, backend):
        # Cremona reduction: (3; 2, 2, x) moves to (3 + delta; ...) with a
        # negative entry, and eight unit balls need a head of at least 17/6
        def check(head, ws):
            return domains.validate(domains.weight_list(head, ws, backend, 1e-9))
        for ws in (["2", "2", "9/10"], ["2", "2", "99/100"], ["2", "2", "1/2"], ["2", "2"],
                   ["1"] * 8):
            with pytest.raises(NonConvex, match="not a ball packing"):
                check("283/100", ws) if len(ws) == 8 else check("3", ws)
        check("284/100", ["1"] * 8)
        for head in ("-3", "0"):
            with pytest.raises(EmptyDomain, match="positive head"):
                check(head, [])

    def test_float_input_tolerance(self):
        # each float input coordinate carries eps: equal within 2 eps, zero
        # within eps, a vertex below -eps leaves the quadrant
        def check(vs, eps, orientation="convex"):
            return domains.validate(domains.polygon(vs, orientation, backend="float", eps=eps))

        below = [(0.0, 0.0), (2.0, 0.0), (1.0, 1.5), (-1e-10, 2.0)]
        check(below, 1e-9)
        with pytest.raises(NotInQuadrant):
            check(below, 1e-11)
        off_axis = [(0.0, 0.0), (2.0, 5e-10), (1.0, 1.5), (0.0, 2.0)]
        assert check(off_axis, 1e-9).a == 2.0
        with pytest.raises(AxisContactMissing):
            check(off_axis, 1e-10)
        repeated = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (2.0 + 1e-10, 1.0), (0.0, 2.0)]
        assert len(check(repeated, 1e-9).chain) == 3
        with pytest.raises(NonConvex):
            check(repeated, 0.0)
        # (1.5, 1.5 + 1e-10) is on the segment (2, 1)-(1, 2) within the
        # cross-product bound
        bent = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.5, 1.5 + 1e-10), (1.0, 2.0), (0.0, 2.0)]
        assert len(check(bent, 1e-9).chain) == 4
        assert len(check(bent, 1e-12).chain) == 5

    def test_float_affine_length_tolerance(self):
        # a rational edge's length dx/n carries 2 eps/|n|, an axis-parallel
        # one 2 eps; exact data carry none
        e = 2.0 ** -30
        fig = [(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (2.0, 3.0), (0.0, 4.0)]
        p = domains.validate(domains.polygon(fig, "convex", backend="float", eps=e))
        assert p.total_affine_plus == 4.0 and p.affine_tol == e + 2 * e + 2 * e
        ell = domains.ellipsoid(1.0, 2.0, backend="float", eps=e)
        assert domains.validate(ell).affine_tol == e
        exact = [(int(x), int(y)) for x, y in fig]
        assert domains.validate(domains.polygon(exact, "convex")).affine_tol == 0

    def test_mixed_backend_rejected(self):
        from capax.errors import MixedBackend
        with pytest.raises(MixedBackend):
            domains.validate(domains.DomainDescriptor(
                kind="polygon", orientation="convex",
                vertices=((Fraction(0), Fraction(0)), (Quad(1, 0, 2), Fraction(0)),
                          (Fraction(0), Quad(1, 1, 2))),
                backend="exact"))


class TestArea:
    def test_fig_polygon(self, fig_polygon):
        assert domains.area(fig_polygon) == 11

    def test_triangle(self):
        assert domains.area(domains.ellipsoid(3, 3)) == Fraction(9, 2)

    def test_exact_on_int_data(self):
        # int data halve to Fractions, not to rounded floats
        big = 2 ** 400 + 1
        for a in (domains.area(domains.ball(2)), domains.area(domains.ball(big)),
                  domains.shoelace_area([(0, 0), (3, 0), (0, 1)]),
                  domains.area(domains.weight_list(big, [1]))):
            assert isinstance(a, Fraction)
        assert domains.area(domains.ball(2)) == 2
        assert domains.area(domains.ball(big)) == Fraction(big * big, 2)
        assert domains.shoelace_area([(0, 0), (3, 0), (0, 1)]) == Fraction(3, 2)
        assert domains.area(domains.weight_list(big, [1])) == Fraction(big * big - 1, 2)
        # floats still halve as floats, and Q(sqrt d) areas stay in the field
        assert domains.area(domains.ball(3.0, backend="float")) == 4.5
        assert domains.area(domains.ball("1*sqrt", backend="sqrt:2")) == Fraction(1)

    @pytest.mark.parametrize("scale", [Fraction(1, 10 ** 200), Fraction(1, 10 ** 330)])
    def test_tiny_exact_domains_validate(self, scale):
        # positivity, area and convexity are decided on the data, not on floats
        # that underflow to 0
        p6 = [(0, 0), (7, 0), (7, 2), (5, Fraction(9, 2)), (2, 6), (0, 6)]
        d = domains.polygon([(x * scale, y * scale) for x, y in p6], "convex")
        assert domains.validate(d).a == 7 * scale
        assert domains.area(d) == domains.area(domains.polygon(p6, "convex")) * scale ** 2
        assert domains.validate(domains.ball(scale)).a == scale
        tri = domains.polygon([(0, 0), (2 * scale, 0), (0, scale)], "concave")
        assert domains.validate(tri).b == scale

    def test_quarter_disk(self):
        assert float(domains.area(curves.quarter_disk(1))) == pytest.approx(math.pi / 4)

    @pytest.mark.parametrize("p, r", [(2000, 2), (2000, Fraction(1, 2))])
    def test_superellipse_needs_a_finite_positive_power(self, p, r):
        # 2^2000 overflows a float, 0.5^2000 underflows to 0
        with pytest.raises(InvalidSpec, match="positive finite float"):
            curves.superellipse(p, r)

    def test_superellipse_p2_matches_disk(self):
        a = domains.area(curves.superellipse(2, 1))
        assert float(a) == pytest.approx(math.pi / 4, rel=1e-9)


class TestHeads:
    """The circumscribed head, max x + y over the region, is the head of
    the convex weight expansion."""

    def test_circumscribed(self, fig_polygon, unit_square):
        assert convex_weights(fig_polygon).head == 5
        assert convex_weights(unit_square).head == 2
        assert convex_weights(domains.ellipsoid(3, 3)).head == 3

    def test_circumscribed_at_least_axes(self, fig_polygon):
        p = domains.validate(fig_polygon)
        c = convex_weights(fig_polygon).head
        assert c >= p.a and c >= p.b

    def test_head_equals_axes_only_for_triangle(self):
        import random
        from conftest import random_convex_polygon
        rng = random.Random(41)
        for _ in range(8):
            d = random_convex_polygon(rng)
            p = domains.validate(d)
            c = convex_weights(d).head
            is_triangle = (len(p.chain) == 2 and p.a == p.b == c)
            if c == p.a and c == p.b:
                assert is_triangle
            if is_triangle:
                assert c == p.a == p.b


def _curve_points(d, n: int):
    """n + 1 points on the curve, spread along it: (r cos^(2/p) t, r sin^(2/p) t)."""
    p, r = (2.0, float(d.params[0])) if d.curve == "quarter_disk" else map(float, d.params)
    ts = [i * (math.pi / 2) / n for i in range(n + 1)]
    return [(r * math.cos(t) ** (2 / p), r * math.sin(t) ** (2 / p)) for t in ts]


def _chain_distance(pt, chain) -> float:
    """Euclidean distance from pt to the polyline chain."""
    best = math.inf
    for (ax, ay), (bx, by) in zip(chain, chain[1:]):
        dx, dy = bx - ax, by - ay
        t = max(0.0, min(1.0, ((pt[0] - ax) * dx + (pt[1] - ay) * dy) / (dx * dx + dy * dy)))
        best = min(best, math.hypot(pt[0] - ax - t * dx, pt[1] - ay - t * dy))
    return best


CURVES = st.one_of(
    st.builds(curves.quarter_disk, st.fractions(Fraction(1, 4), 4, max_denominator=16)),
    st.builds(curves.superellipse, st.fractions(1, 8, max_denominator=8),
              st.fractions(Fraction(1, 4), 4, max_denominator=16)),
)


class TestPolygonalize:
    """inner_grid_polygon, the one polygoniser of the curve domains."""

    def test_superellipse_res2_is_triangle(self):
        # the grid point (1/2, 1/2) lies on the chord and leaves the hull
        poly, hb = curves.inner_grid_polygon(curves.superellipse(2, 1), 2)
        assert poly.vertices == (
            (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)))
        assert 1 - math.sqrt(0.5) <= hb

    @pytest.mark.parametrize("res,bound", [(4, 0.65), (64, 0.04)])
    def test_quarter_disk_bounds(self, res, bound):
        # the bound carries the 2r/M grid offset on top of the chord gaps,
        # so it shrinks like 1/M; the circle stays within it of the chain
        d = curves.quarter_disk(1)
        poly, hb = curves.inner_grid_polygon(d, res)
        assert hb <= bound
        chain = [(float(x), float(y)) for x, y in poly.vertices[1:]]
        assert max(_chain_distance(pt, chain) for pt in _curve_points(d, 400)) <= hb

    def test_superellipse_inner(self):
        poly, _ = curves.inner_grid_polygon(curves.superellipse(3, 1), 24)
        for x, y in poly.vertices:
            assert x ** 3 + y ** 3 <= 1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(d=CURVES, M=st.integers(2, 64))
    def test_inner_and_monotone(self, d, M):
        poly, hb = curves.inner_grid_polygon(d, M)
        r = d.params[-1]
        for x, y in poly.vertices:  # inner: every vertex inside the curve
            if d.curve == "quarter_disk":
                assert x * x + y * y <= r * r
            else:
                p = float(d.params[0])
                assert float(x / r) ** p + float(y / r) ** p <= 1 + 1e-12
        # the bound does not grow under refinement
        assert curves.inner_grid_polygon(d, 2 * M)[1] <= hb
        # the curve lies within the bound of the polygon's upper chain
        chain = [(float(x), float(y)) for x, y in poly.vertices[1:]]
        assert max(_chain_distance(pt, chain) for pt in _curve_points(d, 400)) <= hb


class TestJson:
    def test_roundtrip_polygon(self, fig_polygon):
        j = {"kind": "polygon", "orientation": "convex",
             "vertices": [[0, 0], ["4", "0"], [4, 1], ["2", "3"], [0, "4"]]}
        assert domains.descriptor_from_json(j) == fig_polygon
        assert domains.descriptor_from_json(json.dumps(j)) == fig_polygon

    def test_roundtrip_quad_backend(self):
        vertices = [["0", "0"], ["1", "0"], ["0", "1/2+1/2*sqrt"]]
        d = domains.descriptor_from_json(
            {"kind": "polygon", "orientation": "concave", "vertices": vertices, "field_d": 5})
        assert d.field_d == 5
        assert d == domains.polygon(vertices, "concave", backend="sqrt:5")

    @pytest.mark.parametrize("field_d", [2 ** 31, 10 ** 21 + 3])
    def test_field_over_the_bound_is_refused(self, field_d):
        obj = {"kind": "ellipsoid", "a": "1", "b": "2", "field_d": field_d}
        with pytest.raises(InvalidSpec, match=r"2 <= d < 2\^31"):
            domains.descriptor_from_json(obj)
        obj["field_d"] = 2 ** 31 - 1  # a prime, just under the bound
        assert domains.descriptor_from_json(obj).field_d == 2 ** 31 - 1

    def test_spec_formats(self):
        d = domains.descriptor_from_json(
            {"kind": "ellipsoid", "a": "1", "b": "2"})
        assert d.a == 1 and d.b == 2
        d = domains.descriptor_from_json(
            {"kind": "curve", "name": "quarter_disk", "r": "1"})
        assert d.curve == "quarter_disk"
