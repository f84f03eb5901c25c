import math
from fractions import Fraction

import pytest

from capax import domains
from capax.errors import (
    AxisContactMissing,
    EmptyDomain,
    InvalidSpec,
    NonConvex,
    NotInQuadrant,
    ResolutionTooSmall,
)
from capax.scalars import Quad, sfloat


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
        p = domains.validate(domains.quarter_disk(1))
        assert sfloat(p.a) == 1 and sfloat(p.b) == 1
        assert sfloat(p.total_affine_plus) == 0
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
        # head^2 - sum w^2 is twice the area; floats judge it within their tags
        for ws in (["2", "2", "2"], ["2", "2", "1"], ["1"] * 9):
            with pytest.raises(EmptyDomain):
                domains.validate(domains.weight_list("3", ws))
        domains.validate(domains.weight_list("3", ["2", "2"]))
        with pytest.raises(EmptyDomain):
            domains.validate(domains.weight_list("3", ["2", "2", "1"], "float", 1e-9))
        near = ["2", "2", "0.9999"]  # twice the area is 2e-4
        with pytest.raises(EmptyDomain):
            domains.validate(domains.weight_list("3", near, "float", 1e-2))
        domains.validate(domains.weight_list("3", near, "float", 1e-9))

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

    def test_quarter_disk(self):
        assert sfloat(domains.area(domains.quarter_disk(1))) == pytest.approx(math.pi / 4)

    def test_superellipse_p2_matches_disk(self):
        a = domains.area(domains.superellipse(2, 1))
        assert sfloat(a) == pytest.approx(math.pi / 4, rel=1e-9)


class TestHeads:
    def test_circumscribed(self, fig_polygon, unit_square):
        assert domains.circumscribed_head(fig_polygon) == 5
        assert domains.circumscribed_head(unit_square) == 2
        assert domains.circumscribed_head(domains.ellipsoid(3, 3)) == 3
        assert sfloat(domains.circumscribed_head(domains.quarter_disk(1))) \
            == pytest.approx(math.sqrt(2))

    def test_circumscribed_at_least_axes(self, fig_polygon):
        p = domains.validate(fig_polygon)
        c = domains.circumscribed_head(fig_polygon)
        assert c >= p.a and c >= p.b

    def test_head_equals_axes_only_for_triangle(self):
        import random
        from conftest import random_convex_polygon
        rng = random.Random(41)
        for _ in range(8):
            d = random_convex_polygon(rng)
            p = domains.validate(d)
            c = domains.circumscribed_head(d)
            is_triangle = (len(p.chain) == 2 and p.a == p.b == c)
            if c == p.a and c == p.b:
                assert is_triangle
            if is_triangle:
                assert c == p.a == p.b

    def test_inscribed(self, e12_triangle):
        assert domains.inscribed_triangle(e12_triangle) == 1
        assert domains.inscribed_triangle(domains.ellipsoid(7, 7)) == 7
        assert sfloat(domains.inscribed_triangle(domains.quarter_disk(1))) \
            == pytest.approx(1.0)


class TestPolygonalize:
    def test_rejects_tiny_resolution(self):
        with pytest.raises(ResolutionTooSmall):
            domains.polygonalize(domains.quarter_disk(1), 1)

    def test_superellipse_res2_is_triangle(self):
        r = domains.polygonalize(domains.superellipse(2, 1), 2)
        assert r.polygon.vertices == (
            (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(1)))
        assert r.hausdorff_bound <= 1

    @pytest.mark.parametrize("res,bound", [(4, 0.3), (64, 1e-3)])
    def test_quarter_disk_bounds(self, res, bound):
        r = domains.polygonalize(domains.quarter_disk(1), res)
        assert r.hausdorff_bound <= bound

    def test_inner_and_monotone(self):
        prev_h = prev_plus = None
        for res in (4, 8, 16, 32, 64):
            r = domains.polygonalize(domains.quarter_disk(1), res)
            for x, y in r.polygon.vertices:
                assert x * x + y * y <= 1  # inner: vertices inside the disk
            if prev_h is not None:
                assert r.hausdorff_bound <= prev_h
                assert r.introduced_affine_plus <= prev_plus
            prev_h, prev_plus = r.hausdorff_bound, r.introduced_affine_plus
        assert prev_plus < 0.01  # rational edge lengths vanish under refinement

    def test_superellipse_inner(self):
        r = domains.polygonalize(domains.superellipse(3, 1), 24)
        for x, y in r.polygon.vertices:
            assert sfloat(x) ** 3 + sfloat(y) ** 3 <= 1 + 1e-12


class TestJson:
    def test_roundtrip_polygon(self, fig_polygon):
        j = domains.descriptor_to_json(fig_polygon)
        back = domains.descriptor_from_json(j)
        assert back == fig_polygon

    def test_roundtrip_quad_backend(self):
        d = domains.polygon(
            [("0", "0"), ("1", "0"), ("0", "1/2+1/2*sqrt")],
            "concave", field_d=5)
        j = domains.descriptor_to_json(d)
        assert j["field_d"] == 5
        assert domains.descriptor_from_json(j) == d

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
