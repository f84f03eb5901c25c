import math
from fractions import Fraction

import pytest

from capax.errors import MixedBackend
from capax.scalars import (
    Quad,
    format_scalar,
    fraction_gcd,
    parse_scalar,
    primitive_direction,
)


def test_quad_arithmetic_closed():
    x = Quad(Fraction(1, 2), Fraction(1, 2), 5)  # golden ratio
    assert x * x == x + 1  # phi^2 = phi + 1
    assert (x - 1) * x == Quad(1, 0, 5)  # phi * (phi - 1) = 1
    assert float(1 / x) == pytest.approx(float(x) - 1)


def test_quad_exact_comparison():
    phi = Quad(Fraction(1, 2), Fraction(1, 2), 5)
    assert phi > Fraction(8, 5)
    assert phi < Fraction(13, 8)
    # sign with opposite-sign components
    assert Quad(-7, 5, 2) > 0  # 5*sqrt2 = 7.07... > 7
    assert Quad(7, -5, 2) < 0
    assert Quad(-3, 2, 2) < 0  # 2*sqrt2 = 2.83 < 3


def test_quad_rejects_other_field_and_floats():
    a = Quad(1, 1, 2)
    b = Quad(1, 1, 3)
    with pytest.raises(MixedBackend):
        a + b
    with pytest.raises(MixedBackend):
        a + 0.5
    # rational-valued Quads coerce across fields
    assert Quad(3, 0, 2) + b == Quad(4, 1, 3)


@pytest.mark.parametrize("x, y", [
    (Quad(Fraction(1, 2), Fraction(1, 2), 5), Quad(Fraction(-3, 7), 2, 5)),
    (Quad(1, 1, 2), Quad(0, Fraction(-5, 3), 2)),
    (Quad(Fraction(9, 4), 0, 2), 3),
    (Quad(-2, Fraction(1, 6), 5), Fraction(-7, 5)),
    (Quad(0, 1, 2), -4),
])
def test_quad_results_match_the_validated_constructor(x, y):
    # +, -, * and negation build their results through the unchecked
    # constructor, and Quad * int takes its own branch
    p, q = (y.p, y.q) if isinstance(y, Quad) else (Fraction(y), Fraction(0))
    d = x.d
    product = (x.p * p + x.q * q * d, x.p * q + x.q * p)
    for got, parts in [(x + y, (x.p + p, x.q + q)), (y + x, (x.p + p, x.q + q)),
                       (x - y, (x.p - p, x.q - q)), (y - x, (p - x.p, q - x.q)),
                       (x * y, product), (y * x, product), (-x, (-x.p, -x.q))]:
        want = Quad(*parts, d)
        assert isinstance(got, Quad) and got.d == d
        assert (got.p, got.q) == (want.p, want.q)
        assert type(got.p) is Fraction and type(got.q) is Fraction


def test_quad_requires_squarefree():
    with pytest.raises(ValueError):
        Quad(1, 1, 4)
    with pytest.raises(ValueError):
        Quad(1, 1, 12)


def test_float_rejects_quad():
    with pytest.raises(MixedBackend):
        1.0 + Quad(1, 1, 2)
    with pytest.raises(MixedBackend):
        Quad(1, 1, 2) * 2.0


@pytest.mark.parametrize(
    "dx,dy,prim,length",
    [
        (Fraction(0), Fraction(1), (0, 1), Fraction(1)),
        (Fraction(-2), Fraction(2), (-1, 1), Fraction(2)),
        (Fraction(-2), Fraction(1), (-2, 1), Fraction(1)),
        (Fraction(3, 2), Fraction(1, 2), (3, 1), Fraction(1, 2)),
    ],
)
def test_primitive_direction_rational(dx, dy, prim, length):
    p, ln, rational = primitive_direction(dx, dy, 0)
    assert rational and p == prim and ln == length


def test_primitive_direction_quad():
    s2 = Quad(0, 1, 2)
    # (-1, 1) * sqrt2: rational slope, irrational affine length
    p, ln, rational = primitive_direction(-s2, s2, 0)
    assert rational and p == (-1, 1) and ln == s2
    # slope -phi: irrational
    phi = Quad(Fraction(1, 2), Fraction(1, 2), 5)
    p, ln, rational = primitive_direction(Quad(-1, 0, 5), phi, 0)
    assert not rational and ln == Quad(0, 0, 5)


def test_primitive_direction_float_heuristic():
    p, ln, rational = primitive_direction(-2.0, 1.0, 0.0)
    assert rational and p == (-2, 1) and ln == 1.0
    phi = (1 + math.sqrt(5)) / 2
    _, _, rational = primitive_direction(-1.0, phi, 0.0)
    assert not rational
    # the summed tolerance of dx and dy widens the slope test
    assert not primitive_direction(-1.0, 1.0 + 1e-7, 0.0)[2]
    p, ln, rational = primitive_direction(-1.0, 1.0 + 1e-7, 4e-7)
    assert rational and p == (-1, 1) and ln == 1.0


def test_fraction_gcd():
    assert fraction_gcd(Fraction(3, 2), Fraction(1, 2)) == Fraction(1, 2)
    assert fraction_gcd(Fraction(0), Fraction(5, 3)) == Fraction(5, 3)
    assert fraction_gcd(Fraction(4), Fraction(6)) == 2


def test_parse_format_roundtrip():
    assert parse_scalar("3/4") == Fraction(3, 4)
    q = parse_scalar("1/2+1/2*sqrt", field_d=5)
    assert q == Quad(Fraction(1, 2), Fraction(1, 2), 5)
    assert parse_scalar(format_scalar(q), field_d=5) == q
    neg = parse_scalar("-1/2*sqrt", field_d=2)
    assert neg == Quad(0, Fraction(-1, 2), 2)
    assert parse_scalar(format_scalar(neg), field_d=2) == neg
    e = parse_scalar("1.5", backend="float")
    assert type(e) is float and e == 1.5


def test_quad_float_of_tiny_opposite_parts():
    # p^2 - q^2 d once underflowed to 0 for parts below about 1e-154
    for p, q in [(-1, 1), (3, -1), (Fraction(-1, 2), Fraction(1, 2)), (-4, Fraction(9, 5))]:
        x = Quad(p, q, 5)
        assert float(x * Fraction(2) ** -800) == math.ldexp(float(x), -800)
        assert float(x * Fraction(1, 10**200)) == pytest.approx(float(x) * 1e-200, rel=1e-15)
