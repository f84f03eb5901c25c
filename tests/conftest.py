import random
from fractions import Fraction

import pytest

from capax import domains


def convex_hull(pts):
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return list(pts)

    def half(ps):
        out = []
        for p in ps:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    return half(pts)[:-1] + half(pts[::-1])[:-1]


def dense_class(c, n: int) -> tuple:
    """The boundary curve c's class as n+1 signed coefficients over
    (H, e_1, .., e_n): its degree, +1 at its own index, -1 at each hit."""
    v = [c.degree] + [0] * n
    if c.own:
        v[c.own] = 1
    for i in c.hits:
        v[i] = -1
    return tuple(v)


def random_convex_polygon(rng: random.Random, max_extra: int = 3):
    """Rational convex polygon with axis contacts, <= 6 vertices,
    coordinate denominators <= 4."""
    while True:
        a = Fraction(rng.randint(1, 8), rng.choice([1, 2, 3, 4]))
        b = Fraction(rng.randint(1, 8), rng.choice([1, 2, 3, 4]))
        pts = [(Fraction(0), Fraction(0)), (a, Fraction(0)), (Fraction(0), b)]
        for _ in range(rng.randint(0, max_extra)):
            x = Fraction(rng.randint(1, 4 * int(a) + 3), 4)
            y = Fraction(rng.randint(1, 4 * int(b) + 3), 4)
            if x < a and y < b:
                pts.append((x, y))
        hull = convex_hull(pts)
        if 3 <= len(hull) <= 6:
            try:
                d = domains.polygon(hull, "convex")
                domains.validate(d)
                return d
            except Exception:
                continue


@pytest.fixture
def fig_polygon():
    """The worked example: convex polygon with weight sequence (5; 1,1,1)."""
    return domains.polygon([(0, 0), (4, 0), (4, 1), (2, 3), (0, 4)], "convex")


@pytest.fixture
def unit_square():
    return domains.square(1)


@pytest.fixture
def e12_triangle():
    """Concave triangle with legs 2 and 1; same capacities as E(1,2)."""
    return domains.polygon([(0, 0), (2, 0), (0, 1)], "concave")
