import math
from fractions import Fraction

import pytest

from capax import domains
from capax.obstructions import admissible, obstruct

PHI = (1 + math.sqrt(5)) / 2


class TestObstruct:
    def test_golden_ellipsoid_into_ball(self):
        E = domains.ellipsoid(1.0, PHI, backend="float", eps=1e-12)
        B = domains.ball(math.sqrt(PHI), backend="float", eps=1e-12)
        rep = obstruct(E, B, 500)
        assert rep.verdict == "OBSTRUCTED" and rep.exit_code == 2
        assert rep.volumes_equal
        affine = [w for w in rep.witnesses if w.criterion == "affine_length"]
        assert len(affine) == 1
        assert affine[0].from_value == pytest.approx(1 + PHI)      # 2.618
        assert affine[0].to_value == pytest.approx(3 * math.sqrt(PHI))  # 3.816

    def test_reflexive_inconclusive(self):
        b = domains.ball(1)
        rep = obstruct(b, b, 50)
        assert rep.verdict == "INCONCLUSIVE" and rep.exit_code == 0

    def test_scaling_capacity_witness(self):
        rep = obstruct(domains.ball(2), domains.ball(1), 50)
        assert rep.verdict == "OBSTRUCTED"
        assert rep.witnesses[0].criterion == "capacity"
        assert rep.witnesses[0].k == 1
        assert any(w.criterion == "volume" for w in rep.witnesses)

    def test_inclusions_inconclusive(self, fig_polygon):
        lam = Fraction(1, 2)
        small = domains.polygon(
            [(x * lam, y * lam) for x, y in fig_polygon.vertices], "convex")
        assert obstruct(small, fig_polygon, 30).verdict == "INCONCLUSIVE"
        assert obstruct(domains.ball(1), domains.ball(1), 30).verdict == "INCONCLUSIVE"
        inner = domains.ellipsoid(1, 2)
        outer = domains.polygon([(0, 0), (2, 0), (2, 1), (0, 1)], "convex")
        # E(1,2) triangle sits inside the 2x1 box read the same way around
        assert obstruct(domains.polygon([(0, 0), (2, 0), (0, 1)], "concave"),
                        outer, 30).verdict == "INCONCLUSIVE"

    def test_no_obstruction_from_slack_noise(self):
        # identical domains through the truncated float pipeline stay clean
        E = domains.ellipsoid(1.0, PHI, backend="float", eps=1e-12)
        rep = obstruct(E, E, 80)
        assert rep.verdict == "INCONCLUSIVE"

    def test_report_roundtrip(self):
        rep = obstruct(domains.ball(2), domains.ball(1), 10)
        j = rep.to_json()
        assert j["verdict"] == "OBSTRUCTED"
        assert j["admissible"] == {"from": True, "to": True}
        assert isinstance(j["witnesses"], list) and j["witnesses"]

    def test_incompatible_fields_not_comparable(self):
        from capax.errors import NotComparable
        from capax.scalars import Quad
        d2 = domains.ellipsoid(Quad(1, 0, 2), Quad(0, 1, 2), backend="sqrt:2")
        d3 = domains.ellipsoid(Quad(1, 0, 3), Quad(0, 1, 3), backend="sqrt:3")
        with pytest.raises(NotComparable):
            obstruct(d2, d3, 10)

    def test_quad_against_rational_backend(self):
        from capax.scalars import Quad
        phi = Quad(Fraction(1, 2), Fraction(1, 2), 5)
        E = domains.ellipsoid(Quad(1, 0, 5), phi, backend="sqrt:5")
        rep = obstruct(E, domains.ball(2), 40)
        assert rep.verdict == "INCONCLUSIVE"  # E(1, phi) sits inside B(2)
        rep2 = obstruct(domains.ball(2), E, 40)
        assert rep2.verdict == "OBSTRUCTED"


class TestAdmissibility:
    def test_concave_always(self, e12_triangle):
        assert admissible(e12_triangle)

    def test_smooth_convex(self):
        assert admissible(domains.quarter_disk(1))

    def test_rational_polygon_is_scaled_lattice(self, fig_polygon):
        assert admissible(fig_polygon)
        half = domains.polygon(
            [(Fraction(x) / 2, Fraction(y) / 2) for x, y in
             [(0, 0), (4, 0), (4, 1), (2, 3), (0, 4)]], "convex")
        assert admissible(half)

    def test_quad_scaled_lattice(self):
        from capax.scalars import Quad
        s2 = Quad(0, 1, 2)
        z = Quad(0, 0, 2)
        d = domains.polygon([(z, z), (s2, z), (s2, s2), (z, s2)], "convex",
                            backend="sqrt:2")
        assert admissible(d)  # sqrt(2) * unit square

    def test_mixed_edge_convex_not_admissible(self):
        # one rational and one irrational upper edge, not a scaled lattice
        from capax.scalars import Quad
        z = Quad(0, 0, 2)
        one = Quad(1, 0, 2)
        s2 = Quad(0, 1, 2)
        d = domains.polygon([(z, z), (one, z), (one, one), (z, one + s2 / 2)],
                            "convex", backend="sqrt:2")
        assert not admissible(d)
