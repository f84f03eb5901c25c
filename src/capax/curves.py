"""The smooth curve domains: the quarter disk and the superellipse.

A curve domain is the region under the graph of a concave function f on
[0, r], with f(0) = r and f(r) = 0.  Its data are floats, and the
decomposition route sees it only through `inner_grid_polygon`, an exact
inner polygon with a Hausdorff bound.  `capax.domains` imports this module
for curve descriptors alone.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import EmptyDomain, InvalidSpec, NonConvex
from .scalars import bounded
from .domains import BoundaryProfile, DomainDescriptor, _cross


def quarter_disk(r, eps: float = 1e-12) -> DomainDescriptor:
    return DomainDescriptor(kind="curve", curve="quarter_disk",
                            params=(bounded(Fraction(r)),), backend="float", eps=eps)


def superellipse(p, r, eps: float = 1e-12) -> DomainDescriptor:
    p = bounded(Fraction(p))
    if p < 1:
        raise NonConvex("superellipse exponent must be >= 1")
    r = bounded(Fraction(r))
    if r > 0:  # the curve is evaluated through r^p in floats
        try:
            rp = float(r) ** float(p)
        except OverflowError:
            rp = math.inf
        if not 0 < rp < math.inf:
            raise InvalidSpec(f"superellipse r^p = {float(r)!r}^{float(p)!r} "
                              "is not a positive finite float")
    return DomainDescriptor(kind="curve", curve="superellipse",
                            params=(p, r), backend="float", eps=eps)


def _geometry(d: DomainDescriptor):
    """(r, f, fprime) for the curve family, as floats."""
    if d.curve == "quarter_disk":
        (r,) = d.params
        rf = float(r)

        def f(x):
            return math.sqrt(max(rf * rf - x * x, 0.0))

        def fp(x):
            return -x / f(x) if f(x) > 0 else -math.inf

        return rf, f, fp
    if d.curve == "superellipse":
        p, r = d.params
        pf, rf = float(p), float(r)

        def f(x):
            return (max(rf ** pf - x ** pf, 0.0)) ** (1.0 / pf)

        def fp(x):
            y = f(x)
            if y <= 0:
                return -math.inf
            return -((x / y) ** (pf - 1.0)) if x > 0 else 0.0

        return rf, f, fp
    raise ValueError(f"unknown curve family {d.curve!r}")


def profile(d: DomainDescriptor) -> BoundaryProfile:
    """The boundary profile of a curve domain (`domains.validate`)."""
    r = d.params[-1]
    if not r > 0:
        raise EmptyDomain("curve radius must be positive")
    # axis extents are exact (the stored radius); only interior data is fuzzy
    return BoundaryProfile(a=r, b=r, plus_edges=(), total_affine_plus=Fraction(0),
                           affine_tol=0.0, backend="float", area=area(d), smooth=True)


def area(d: DomainDescriptor) -> float:
    """Euclidean area of a curve domain (`domains.area`)."""
    if d.curve == "quarter_disk":
        (r,) = d.params
        return math.pi * float(r) ** 2 / 4
    p, r = d.params
    pf = float(p)
    return float(r) ** 2 * math.gamma(1 + 1 / pf) ** 2 / math.gamma(1 + 2 / pf)


def inner_grid_polygon(d: DomainDescriptor, M: int) -> tuple[DomainDescriptor, float]:
    """Inner approximation on the (r/M)-grid with small coordinate
    denominators, for consumers that feed the weight recursion (simple
    slopes keep the tree small), and its Hausdorff bound, which carries
    the extra grid offset."""
    if d.kind != "curve":
        raise ValueError("inner_grid_polygon applies to curve families")
    r = d.params[-1]
    rf, f, fp = _geometry(d)
    # the curve's grid points snapped down onto the grid, between the axis ends
    pts = [(Fraction(0), Fraction(r))]
    for i in range(1, M):
        x = Fraction(i, M) * r
        y = Fraction(math.floor(f(float(x)) / rf * M), M) * r
        if y > 0:
            pts.append((x, y))
    pts.append((Fraction(r), Fraction(0)))
    # upper hull: traversed x-increasing the chain must turn right throughout
    hull = []
    for pt in pts:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) >= 0:
            hull.pop()
        hull.append(pt)
    verts = [(Fraction(0), Fraction(0))] + list(reversed(hull))
    poly = DomainDescriptor(kind="polygon", orientation="convex",
                            vertices=tuple(verts), backend="exact")
    # arc-to-chord gaps measured on true curve points, plus the grid offset
    worst = 0.0
    xs = [float(p[0]) for p in hull]
    for x0, x1 in zip(xs, xs[1:]):
        worst = max(worst, _tangent_gap(f, fp, x0, f(x0), x1, f(x1)))
    return poly, worst * (1 + 1e-9) + 2 * rf / M


def _tangent_gap(f, fp, x0, y0, x1, y1) -> float:
    # distance from the chord to the intersection of the endpoint tangents
    s0, s1 = fp(x0), fp(x1)
    cx, cy = x1 - x0, y1 - y0
    norm = math.hypot(cx, cy)
    if norm == 0:
        return 0.0
    f0, f1 = f(x0), f(x1)
    if not math.isfinite(s0):
        # vertical tangent at x0: intersect x = x0 with tangent at x1
        xi, yi = x0, f1 + s1 * (x0 - x1)
    elif not math.isfinite(s1):
        xi, yi = x1, f0 + s0 * (x1 - x0)
    elif abs(s0 - s1) < 1e-15:
        return 0.0
    else:
        xi = (f1 - f0 + s0 * x0 - s1 * x1) / (s0 - s1)
        yi = f0 + s0 * (xi - x0)
    return abs(cx * (yi - y0) - cy * (xi - x0)) / norm


