"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 is implemented exactly as stated and is expected to FAIL: the
error terms of E(1,2) overshoot the band's upper edge by 1/(4t) + O(1/t^2)
at the landing indices k = t(t+1), which exceeds the stated 0.01 tolerance
for t = 10..24, all inside the stated window [10^2, 10^5].  The companion
test pins that analysis down so the failure is fully characterized.  Run
with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from capax import domains
from capax.asymptotics import error_values, window_extrema
from capax.capacities import (
    alg_capacity_series,
    ball_capacities,
    c_plus,
    c_plus_reference,
    concave_capacity,
    convex_capacity,
    d_values,
    ellipsoid_capacities,
    square_capacities,
    tower_capacity,
)
from capax.cli import main as cli_main
from capax.scalars import Quad
from capax.tower import F_of_n, blowup, build_tower, k_plus_dot_A, p2_init
from capax.weights import (
    TruncationLimits,
    convex_weights,
    deficiencies,
    is_balanced,
)
from conftest import random_convex_polygon

PHI = (1 + math.sqrt(5)) / 2
FIG_VERTICES = [(0, 0), (4, 0), (4, 1), (2, 3), (0, 4)]


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def fig_polygon():
    return domains.polygon(FIG_VERTICES, "convex")


def test_criterion_1_paper_example():
    t0 = time.monotonic()
    tree = convex_weights(fig_polygon())
    elapsed = time.monotonic() - t0
    ok = (tree.head == 5
          and sorted(tree.weight_multiset()) == [1, 1, 1]
          and elapsed < 1.0)
    assert report(1, ok, f"weights (5;1,1,1) exactly, {elapsed:.3f}s")


def test_criterion_2_volume_identity():
    t0 = time.monotonic()
    rng = random.Random(2024)
    doms = [fig_polygon()] + [random_convex_polygon(rng) for _ in range(20)]
    ok = True
    for d in doms:
        tree = convex_weights(d)
        sq = sum((w * w for w in tree.weight_multiset()), Fraction(0))
        ok &= tree.head * tree.head - sq == 2 * domains.area(d)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    assert report(2, ok, f"c^2 - sum(wt^2) = 2*area exact on 21 polygons, {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(30)
    ok = True
    for _ in range(10):
        d = random_convex_polygon(rng)
        tree = convex_weights(d)
        tw = build_tower(tree)
        dp = convex_capacity(d, 50, tree=tree)
        enum = alg_capacity_series(tw.final, 50)
        ok &= dp.values == enum
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    assert report(3, ok, f"decomposition == enumeration exactly, k<=50, "
                         f"10 polygons, {elapsed:.1f}s")


def test_criterion_4_ball_band():
    t0 = time.monotonic()
    ks = np.arange(10**3, 10**5 + 1)
    e = error_values(d_values(10**5)[10**3:], ks, 0.5)
    st = window_extrema(e, (10**3, 10**5))
    elapsed = time.monotonic() - t0
    ok = (abs(st.minimum - (-1.5)) <= 0.01
          and abs(st.maximum - (-0.5)) <= 0.01
          and abs(st.midpoint - (-1.0)) <= 0.01
          and elapsed < 5.0)
    assert report(4, ok, f"B(1) extrema {st.minimum:.4f}/{st.maximum:.4f}, "
                         f"mid {st.midpoint:.4f}, band [-1.5,-0.5], {elapsed:.1f}s")


def test_criterion_5_irrational_convergence():
    t0 = time.monotonic()
    vals = ellipsoid_capacities(1.0, PHI, 10**6).float_values()
    ks = np.arange(10**6 + 1)
    e = vals - np.sqrt(4 * (PHI / 2) * ks)
    win = (ks >= 10**5)
    dev = np.abs(e[win] + (1 + PHI) / 2)
    ok = float(dev.max()) <= 0.02

    # weight-expansion route agrees with the closed form within its slack
    E = domains.ellipsoid(1.0, PHI, backend="float")
    dp = concave_capacity(E, 200, TruncationLimits(eps=1e-9))
    for k in range(201):
        ok &= dp.lo(k) - 1e-9 <= vals[k] <= dp.hi(k) + 1e-9
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    assert report(5, ok, f"E(1,phi): max |e_k + {(1+PHI)/2:.4f}| = "
                         f"{float(dev.max()):.4f} <= 0.02 on [1e5,1e6]; "
                         f"pipeline within slack to k=200, {elapsed:.1f}s")


def test_criterion_6_concave_band_as_stated():
    """Faithful implementation of the stated criterion; see the module
    docstring for why this is expected to fail."""
    t0 = time.monotonic()
    ks = np.arange(10**2, 10**5 + 1)
    e = ellipsoid_capacities(Fraction(1), Fraction(2), 10**5).float_values()[10**2:] - np.sqrt(4 * 1.0 * ks)
    inside = (e >= -2 - 0.01) & (e <= -1 + 0.01)
    violations = [int(k) for k in ks[~inside]]
    elapsed = time.monotonic() - t0
    ok = bool(inside.all()) and elapsed < 10.0
    report(6, ok, f"E(1,2) e_k in [-2.01,-0.99] on [1e2,1e5]: "
                  f"{len(violations)} violations at k={violations[:20]}, "
                  f"{elapsed:.1f}s")
    assert ok, (f"criterion 6 fails as stated: e_k exceeds -0.99 at "
                f"k={violations} (max e = {float(e.max()):.4f}); the band's "
                "upper edge is approached from above at the landing indices "
                "k = t(t+1), so a 0.01 tolerance cannot hold below k ~ 650")


def test_criterion_6_failure_analysis():
    """The violations are exactly the landing indices k = t(t+1) for
    t = 10..24, where e_k = -1 + 1/(4t) + O(1/t^2); from k >= 650 the
    stated band holds."""
    ks = np.arange(10**2, 10**5 + 1)
    e = ellipsoid_capacities(Fraction(1), Fraction(2), 10**5).float_values()[10**2:] - np.sqrt(4 * 1.0 * ks)
    violations = set(int(k) for k in ks[(e < -2.01) | (e > -0.99)])
    assert violations == {t * (t + 1) for t in range(10, 25)}
    assert float(e.max()) <= -1 + 1 / (4 * 10) + 1e-3
    tail = ks >= 650
    assert np.all((e[tail] >= -2.01) & (e[tail] <= -0.99))


def test_criterion_7_square_containment():
    t0 = time.monotonic()
    ks = np.arange(10**2, 10**5 + 1)
    e = square_capacities(Fraction(1), 10**5).float_values()[10**2:] - np.sqrt(4 * 1.0 * ks)
    elapsed = time.monotonic() - t0
    ok = bool(np.all((e >= -2 - 0.01) & (e <= 0 + 0.01))) and elapsed < 10.0
    assert report(7, ok, f"square e_k within [-2.01, 0.01] on [1e2,1e5] "
                         f"(min {float(e.min()):.3f}, max {float(e.max()):.3f}), "
                         f"{elapsed:.1f}s")


def test_criterion_8_c_plus():
    t0 = time.monotonic()
    rng = random.Random(88)
    ok = abs(c_plus(-3, 1, 9, 1) - (-3 + math.sqrt(17)) / 2) < 1e-12
    for _ in range(100):
        a2 = rng.uniform(0.25, 20)
        k_dot_a = -rng.uniform(0.5, 15)
        k2 = rng.uniform(-15, k_dot_a * k_dot_a / a2)  # Hodge-admissible
        threshold = (k_dot_a * k_dot_a / a2 - k2) / 8
        k = int(threshold) + 1 + rng.randint(0, 100)
        ok &= abs(c_plus(k_dot_a, a2, k2, k)
                  - c_plus_reference(k_dot_a, a2, k2, k)) <= 1e-9
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    assert report(8, ok, f"closed form == 1-D optimizer to 1e-9 on 100 triples "
                         f"+ plane spot value, {elapsed:.1f}s")


def test_criterion_9_property_suites():
    t0 = time.monotonic()
    rng = random.Random(99)
    ok = True

    # capacity monotonicity in k
    for series in (convex_capacity(fig_polygon(), 30),
                   ball_capacities(Fraction(1), 100),
                   ellipsoid_capacities(Fraction(1), Fraction(2), 100)):
        series.assert_nondecreasing()

    # inclusion monotonicity on 10 nested pairs
    for _ in range(10):
        d = random_convex_polygon(rng)
        lam = Fraction(rng.randint(1, 3), 4)
        small = domains.polygon([(x * lam, y * lam) for x, y in d.vertices],
                                "convex")
        s_small = convex_capacity(small, 12)
        s_big = convex_capacity(d, 12)
        ok &= all(s_small.value(k) <= s_big.value(k) for k in range(13))

    # tower level-monotonicity
    d = random_convex_polygon(rng)
    res = tower_capacity(build_tower(convex_weights(d)), 9, all_levels=True)
    vals = [float(v) for v in res.per_level]
    ok &= vals == sorted(vals, reverse=True)

    # zero-weight blowup leaves capacities unchanged
    s = p2_init(Fraction(4))
    s0 = blowup(s, ("H0", "H2"), Fraction(0))
    ok &= all(float(a) == float(b) for a, b in
              zip(alg_capacity_series(s, 15), alg_capacity_series(s0, 15)))

    # F increments bounded by 5 on every constructed tower
    for _ in range(6):
        tw = build_tower(convex_weights(random_convex_polygon(rng)))
        fs = [F_of_n(surf) for surf in tw.surfaces]
        ok &= all(b - a <= 5 for a, b in zip(fs, fs[1:]))

    # deficiency bijection on 10 random rational polygons
    for _ in range(10):
        d = random_convex_polygon(rng)
        tree = convex_weights(d)
        p = domains.validate(d)
        defs = sorted(float(v) for v in deficiencies(tree).values()
                      if float(v) > 0)
        edges = sorted(float(e.affine_length) for e in p.plus_edges
                       if e.rational_sloped)
        ok &= defs == edges

    # balanced tower: |K+.A| bounded by the dropped tail on E(1,phi)
    z, one = Quad(0, 0, 5), Quad(1, 0, 5)
    qphi = Quad(Fraction(1, 2), Fraction(1, 2), 5)
    tri = domains.polygon([(z, z), (one, z), (z, qphi)], "convex",
                          backend="sqrt:5")
    prev = None
    for eps in (1e-3, 1e-5, 1e-7):
        tree = convex_weights(tri, TruncationLimits(eps=eps))
        balanced, _ = is_balanced(tree, 0)
        ok &= balanced
        tw = build_tower(tree)
        kp = abs(float(k_plus_dot_A(tw.final)))
        tail = float(tree.truncation.dropped_tail_sum)
        ok &= kp <= 2 * tail + 1e-12
        if prev is not None:
            ok &= kp <= prev + 1e-15
        prev = kp

    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    assert report(9, ok, f"monotonicity, inclusion, level-monotone, zero-weight, "
                         f"F<=5, deficiency bijection, balanced tower, {elapsed:.1f}s")


def test_criterion_10_obstruction_end_to_end(capsys, tmp_path):
    t0 = time.monotonic()
    code = cli_main(["obstruct", "--from", "ellipsoid:1,phi",
                     "--to", "ball:sqrt_phi", "--kmax", "500",
                     "--backend", "float", "--out", str(tmp_path / "r.json")])
    import json
    rep = json.loads((tmp_path / "r.json").read_text())
    affine = [w for w in rep["witnesses"] if w["criterion"] == "affine_length"]
    ok = (code == 2 and rep["verdict"] == "OBSTRUCTED" and len(affine) == 1
          and abs(affine[0]["from_value"] - 2.618) < 0.001
          and abs(affine[0]["to_value"] - 3.816) < 0.001)

    code_refl = cli_main(["obstruct", "--from", "ball:1", "--to", "ball:1",
                          "--out", str(tmp_path / "r2.json")])
    code_incl = cli_main(["obstruct", "--from", "ball:1", "--to", "ball:2",
                          "--out", str(tmp_path / "r3.json")])
    ok &= code_refl == 0 and code_incl == 0
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    assert report(10, ok, f"obstruct exit 2 with affine witness 2.618 < 3.816; "
                          f"reflexive/inclusion exit 0, {elapsed:.1f}s")
