"""The checks of `domains.validate` for polygons and weight lists.

`domains.validate` imports this module for those kinds alone, so a
ball, ellipsoid or curve descriptor never compiles it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    AxisContactMissing,
    CapaxError,
    EmptyDomain,
    InvalidSpec,
    MixedBackend,
    NonConvex,
    NotInQuadrant,
)
from .scalars import backend_of
from .domains import (
    BoundaryProfile,
    DomainDescriptor,
    _cross,
    _zero_of,
    area,
    area_tolerance,
    shoelace_area,
    walk_chain,
)


def _check_backend_consistency(values, backend: str):
    for v in values:
        if backend_of(v) != backend and not isinstance(v, (int, Fraction)):
            raise MixedBackend(
                f"scalar {v!r} has backend {backend_of(v)}, domain is {backend}")


def _dedupe_collinear(d: DomainDescriptor, vs):
    """Drop repeated vertices and interior points of straight runs.  With
    each coordinate within e of its value, a cross product of differences
    u, v is within 2e(|u0|+|u1|+|v0|+|v1|) + 8e^2 of its own."""
    same = lambda p, q: d.equal(p[0], q[0]) and d.equal(p[1], q[1])
    out = []
    for v in vs:
        if out and same(v, out[-1]):
            continue
        out.append(v)
    if len(out) > 1 and same(out[0], out[-1]):
        out.pop()
    n, e = len(out), d.tol
    keep = []
    for i in range(n):
        o, p, q = out[i - 1], out[i], out[(i + 1) % n]
        u0, u1, v0, v1 = p[0] - o[0], p[1] - o[1], q[0] - o[0], q[1] - o[1]
        if abs(u0 * v1 - u1 * v0) > 2 * e * (abs(u0) + abs(u1) + abs(v0) + abs(v1)) + 8 * e * e:
            keep.append(p)
    return keep


def _validate_weight_list(d: DomainDescriptor) -> BoundaryProfile:
    if any(w < 0 for w in d.weights):
        raise EmptyDomain("negative weight")
    vol = area(d)  # (head^2 - sum w^2)/2 with a head, sum w^2/2 without
    if d.head is not None:
        if d.head < 0 or d.zero(d.head):
            raise EmptyDomain("a convex weight list needs a positive head")
        if any(w > d.head for w in d.weights):
            raise NonConvex("head must dominate every weight")
        if not vol > area_tolerance(d):
            raise EmptyDomain("weights fill the head's triangle: sum w^2 >= head^2")
        reduced = _cremona_reduced(d)
        if not area(reduced) > area_tolerance(reduced):
            raise NonConvex("the weights are not a ball packing of the head's triangle: "
                            "after Cremona reduction sum w^2 >= head^2")
    return BoundaryProfile(a=None, b=None, plus_edges=(), total_affine_plus=_zero_of(d),
                           affine_tol=0.0, backend=d.backend, area=vol)


_CREMONA_MOVES = 1000


def _cremona_reduced(d: DomainDescriptor) -> DomainDescriptor:
    """The convex weight list (c; w) after Cremona reduction.

    The balls of a convex domain's expansion pack the head's triangle, and a
    finite ball packing of B(c) exists exactly when the reduction ends with
    no negative entry and c^2 > sum w^2 (McDuff-Polterovich, Invent. Math.
    1994; Karshon-Kessler, JSG 2017).  A move adds
    delta = c - w_1 - w_2 - w_3 < 0 to c and the three largest weights
    (zeros pad the list to three).  Exact data compare exactly, and a
    rational list ends, since each move lowers c by a multiple of one over
    the common denominator; float data compare with the descriptor's
    `equal` and `zero` rules.  Past _CREMONA_MOVES moves it gives up."""
    c, ws = d.head, sorted(d.weights, reverse=True) + [_zero_of(d)] * 3
    for _ in range(_CREMONA_MOVES):
        top = ws[0] + ws[1] + ws[2]
        delta = c - top
        if not delta < 0 or d.equal(c, top):
            return DomainDescriptor(kind="weight_list", head=c, weights=tuple(ws),
                                    backend=d.backend, eps=d.eps)
        c += delta
        ws[:3] = [w + delta for w in ws[:3]]
        if any(x < 0 and not d.zero(x) for x in (c, *ws[:3])):
            raise NonConvex("the weights are not a ball packing of the head's triangle: "
                            "Cremona reduction makes an entry negative")
        ws.sort(reverse=True)
    raise CapaxError(f"Cremona reduction of the weight list did not end in "
                     f"{_CREMONA_MOVES} moves")


def _validate_polygon(d: DomainDescriptor) -> BoundaryProfile:
    vs = list(d.vertices or ())
    _check_backend_consistency([c for v in vs for c in v], d.backend)
    if len(vs) < 3:
        raise EmptyDomain("polygon needs at least 3 vertices")
    for x, y in vs:
        if x < -d.tol or y < -d.tol:
            raise NotInQuadrant(f"vertex ({x}, {y}) leaves the positive quadrant")
    vs = _dedupe_collinear(d, vs)
    if len(vs) < 3:
        raise EmptyDomain("polygon is degenerate after normalization")
    area2 = shoelace_area(vs)
    if area2 < 0:
        vs.reverse()
        area2 = -area2
    if not area2 > 0:
        raise EmptyDomain("polygon has zero area")

    origin = [i for i, v in enumerate(vs) if not v[0] and not v[1]]
    if not origin:
        raise AxisContactMissing("the origin must be a vertex")
    i0 = origin[0]
    vs = vs[i0:] + vs[:i0]

    if not (d.zero(vs[1][1]) and d.zero(vs[-1][0])):
        # second vertex off the x-axis or last vertex off the y-axis
        raise AxisContactMissing(
            "boundary must leave the origin along the x-axis and return along the y-axis")
    a, b = vs[1][0], vs[-1][1]
    if not (a > 0 and b > 0):
        raise AxisContactMissing("axis contact segments must have positive length")

    chain = list(reversed(vs[1:]))  # (0,b) .. (a,0), upper boundary
    if d.orientation == "convex":
        n = len(vs)
        for i in range(n):
            if _cross(vs[i - 1], vs[i], vs[(i + 1) % n]) <= 0:
                raise NonConvex(f"reflex corner at vertex {vs[i]}")
    elif d.orientation == "concave":
        for i in range(len(chain) - 1):
            if not chain[i + 1][0] - chain[i][0] > 0:
                raise NonConvex("upper boundary is not the graph of a function")
            if not chain[i][1] - chain[i + 1][1] > 0:
                raise NonConvex("upper boundary must be strictly decreasing")
        for i in range(len(chain) - 2):
            if _cross(chain[i], chain[i + 1], chain[i + 2]) <= 0:
                raise NonConvex("upper boundary is not convex")
    else:
        raise InvalidSpec(f"polygon orientation {d.orientation!r}")

    # a difference of two vertex coordinates carries 2 eps
    edges, total, total_tol, vol = walk_chain(chain, 2 * d.tol)
    return BoundaryProfile(a=a, b=b, plus_edges=edges, total_affine_plus=total,
                           affine_tol=total_tol, backend=d.backend, area=vol,
                           chain=tuple(chain))
