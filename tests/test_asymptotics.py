import math
from fractions import Fraction

import numpy as np
import pytest

from capax import curves, domains
from capax.asymptotics import (
    band_for_profile,
    band_from_pairings,
    convergence_verdict,
    edge_invariants,
    error_series,
    error_values,
    window_extrema,
)
from capax.capacities import ball_capacities, d_values, ellipsoid_capacities
from capax.errors import WindowOutOfRange
from capax.quad import Quad

PHI = (1 + math.sqrt(5)) / 2


class TestErrorSeries:
    def test_ball_spots(self):
        e = error_series(ball_capacities(Fraction(1), 12), 0.5)
        assert e.e[0] == 0
        assert e.e[2] == pytest.approx(-1.0)
        assert e.e[9] == pytest.approx(3 - math.sqrt(18))

    def test_tower_side_agrees_with_volume_side(self, fig_polygon):
        # 2 * (limiting A^2) equals 4 * vol exactly on complete trees, so the
        # two error-term normalizations coincide
        from capax.weights import convex_weights
        from capax.tower import build_tower, _dot
        from capax.capacities import convex_capacity
        tw = build_tower(convex_weights(fig_polygon))
        a2 = _dot(tw.final.A, tw.final.A)
        vol = domains.area(fig_polygon)
        assert a2 == 2 * vol
        series = convex_capacity(fig_polygon, 12)
        e = error_series(series, float(vol))
        assert e.e[1] == pytest.approx(4 - math.sqrt(4 * 11))


class TestBands:
    def test_ball(self):
        b = band_for_profile(domains.validate(domains.ball(1)))
        assert (b.lower, b.upper) == (-1.5, -0.5)

    def test_fig(self, fig_polygon):
        b = band_for_profile(domains.validate(fig_polygon))
        assert (b.lower, b.upper) == (-6.0, -2.0)

    def test_quarter_disk_degenerate(self):
        b = band_for_profile(domains.validate(curves.quarter_disk(1)))
        assert (b.lower, b.upper) == (-1.0, -1.0)

    def test_pairings_form(self):
        b = band_from_pairings(-12, -4)
        assert (b.lower, b.upper) == (-6.0, -2.0)
        assert b.lower <= b.upper


class TestWindows:
    def test_ball_window(self):
        ks = np.arange(1000, 100001)
        e = error_values(d_values(100000)[1000:], ks, 0.5)
        st = window_extrema(e, (1000, 100000))
        assert abs(st.minimum + 1.5) <= 0.01
        assert abs(st.maximum + 0.5) <= 0.01
        assert abs(st.midpoint + 1.0) <= 0.01

    def test_e12_window_in_concave_band(self):
        ks = np.arange(1000, 100001)
        vals = ellipsoid_capacities(Fraction(1), Fraction(2), 100000).float_values()[1000:]
        e = error_values(vals, ks, 1.0)
        st = window_extrema(e, (1000, 100000))
        assert -2.01 <= st.minimum and st.maximum <= -0.99

    def test_out_of_range(self):
        ks = np.arange(10, 20)
        e = error_values(np.zeros(10), ks, 0.5)
        with pytest.raises(WindowOutOfRange):
            window_extrema(e, (5, 15))


class TestEdgeInvariants:
    def test_fig(self, fig_polygon):
        inv = edge_invariants(domains.validate(fig_polygon))
        assert inv.n_rational == 3 and inv.v_rank == 1

    def test_quarter_disk(self):
        inv = edge_invariants(domains.validate(curves.quarter_disk(1)))
        assert inv.n_rational == 0 and inv.v_rank == 0

    def test_quad_backend_rank_two(self):
        # upper edges of affine lengths sqrt(2) and 1, one irrational edge
        z = Quad(0, 0, 2)
        s2 = Quad(0, 1, 2)
        one = Quad(1, 0, 2)
        b = Quad(2, 1, 2)  # 2 + sqrt 2
        verts = [(z, z), (Quad(2, 0, 2), z), (Quad(2, 0, 2), one),
                 (s2, Quad(2, 0, 2)), (z, b)]
        d = domains.polygon(verts, "convex", backend="sqrt:2")
        p = domains.validate(d)
        inv = edge_invariants(p)
        assert inv.n_rational == 2 and inv.v_rank == 2


class TestVerdicts:
    def test_quarter_disk_proven(self):
        v = convergence_verdict(domains.validate(curves.quarter_disk(1)))
        assert v.proven and v.limit == pytest.approx(-1.0)

    def test_ball_unproven_with_midpoint(self):
        ks = np.arange(1000, 100001)
        e = error_values(d_values(100000)[1000:], ks, 0.5)
        v = convergence_verdict(domains.validate(domains.ball(1)),
                                stats=window_extrema(e, (1000, 100000)))
        assert not v.proven and v.limit is None
        assert v.empirical_mid == pytest.approx(-1.0, abs=0.01)
        assert v.ruelle_proxy == -1.0

    def test_golden_ellipsoid_proven(self):
        z = Quad(0, 0, 5)
        one = Quad(1, 0, 5)
        phi = Quad(Fraction(1, 2), Fraction(1, 2), 5)
        d = domains.polygon([(z, z), (one, z), (z, phi)], "convex",
                            backend="sqrt:5")
        v = convergence_verdict(domains.validate(d))
        assert v.proven
        assert v.limit == pytest.approx(-(1 + PHI) / 2)

    def test_containment_with_slack(self):
        # every computed error term sits in the band up to the finite-k bulge
        ks = np.arange(100, 50001)
        e = error_values(d_values(50000)[100:], ks, 0.5)
        assert np.all(np.asarray(e.e) >= -1.5 - 1e-9)
        assert np.all(np.asarray(e.e) <= -0.5 + 1 / (8 * np.sqrt(2 * ks)) + 1e-2)
