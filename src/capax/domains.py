"""Convex and concave toric-domain regions and their elementary invariants.

Conventions
-----------
A region sits in the closed positive quadrant, its boundary meeting the
axes in segments [0,a] x {0} and {0} x [0,b].  The remaining boundary
("the upper chain") is stored as a polyline from (0,b) to (a,0) with x
strictly increasing, which is the orientation the weight recursion
consumes.  Convex regions may open with horizontal and close with
vertical chain edges; concave regions are graphs of convex functions
with f(a) = 0, so their chains are strictly monotone in both
coordinates.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
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
from .scalars import (
    Quad,
    _is_squarefree,
    backend_of,
    bounded,
    parse_scalar,
    primitive_direction,
)


class DomainDescriptor(namedtuple(
        "DomainDescriptor",
        "kind orientation vertices a b curve params head weights backend eps",
        defaults=(None, None, None, None, None, (), None, (), "exact", 0.0))):
    """A convex or concave toric-domain region with a numeric backend.

    `kind` is "polygon", "ellipsoid", "curve" or "weight_list".  A polygon
    has its `orientation` ("convex" or "concave") and `vertices`; an
    ellipsoid its legs `a` and `b`; a curve domain its family name `curve`
    and `params`; a weight list its `head` (None if concave) and `weights`.
    `eps` is the absolute tolerance of each float input coordinate; exact
    backends ignore it.  Zeros the code makes carry none."""

    __slots__ = ()

    @property
    def field_d(self) -> int | None:
        return parse_backend(self.backend)[1]

    @property
    def tol(self):
        """The tolerance of one input coordinate: eps for float data, 0 for exact."""
        return self.eps if self.backend == "float" else 0

    def equal(self, x, y) -> bool:
        """Two input coordinates agree: within 2 eps for float data."""
        return abs(x - y) <= 2 * self.tol

    def zero(self, x) -> bool:
        """An input coordinate vanishes: within eps for float data."""
        return abs(x) <= self.tol

    def is_ball(self) -> bool:
        return self.kind == "ellipsoid" and self.equal(self.a, self.b)

    def is_convex(self) -> bool:
        if self.kind == "polygon":
            return self.orientation == "convex"
        if self.kind == "curve":
            return True
        if self.kind == "ellipsoid":
            return True
        return self.head is not None

    def is_concave(self) -> bool:
        if self.kind == "polygon":
            return self.orientation == "concave"
        if self.kind == "ellipsoid":
            return True
        return self.kind == "weight_list" and self.head is None


class Edge(namedtuple("Edge", "direction affine_length rational_sloped")):
    """One upper-boundary edge: its primitive integer `direction` (None if
    irrational) and its `affine_length` (a zero scalar on an
    irrational-slope edge)."""

    __slots__ = ()


class BoundaryProfile(namedtuple(
        "BoundaryProfile",
        "a b plus_edges total_affine_plus affine_tol backend chain smooth",
        defaults=(None, False))):
    """Axis extents and the affine data of the upper boundary.

    `affine_tol` is the absolute tolerance of `total_affine_plus` (0 for
    exact data); `chain` is the upper-boundary polyline, (0,b) .. (a,0)."""

    __slots__ = ()


def polygon(vertices, orientation: str, backend: str = "exact",
            eps: float = 0.0) -> DomainDescriptor:
    base, field_d = parse_backend(backend)
    vs = tuple((parse_scalar(x, base, field_d), parse_scalar(y, base, field_d))
               for x, y in vertices)
    return DomainDescriptor(kind="polygon", orientation=orientation,
                            vertices=vs, backend=backend, eps=eps)


def ellipsoid(a, b, backend: str = "exact", eps: float = 0.0) -> DomainDescriptor:
    base, field_d = parse_backend(backend)
    a = parse_scalar(a, base, field_d)
    b = parse_scalar(b, base, field_d)
    return DomainDescriptor(kind="ellipsoid", a=a, b=b, backend=backend, eps=eps)


def ball(a, backend: str = "exact", eps: float = 0.0) -> DomainDescriptor:
    return ellipsoid(a, a, backend=backend, eps=eps)


def square(s, backend: str = "exact", eps: float = 0.0) -> DomainDescriptor:
    s = parse_scalar(s, *parse_backend(backend))
    z = s - s
    return DomainDescriptor(kind="polygon", orientation="convex",
                            vertices=((z, z), (s, z), (s, s), (z, s)),
                            backend=backend, eps=eps)


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


def weight_list(head, weights, backend: str = "exact", eps: float = 0.0) -> DomainDescriptor:
    base, field_d = parse_backend(backend)
    par = lambda v: parse_scalar(v, base, field_d)
    return DomainDescriptor(
        kind="weight_list",
        head=None if head is None else par(head),
        weights=tuple(par(w) for w in weights),
        backend=backend, eps=eps,
    )


MAX_FIELD_D = 2 ** 31  # squarefreeness is trial division: about 10 ms below this bound


def parse_backend(backend: str) -> tuple[str, int | None]:
    """The scalar parser's base and field of a backend name: ("exact", None)
    for exact, ("float", None) for float and ("exact", d) for sqrt:d with d
    squarefree, 2 <= d < MAX_FIELD_D.  Any other name is refused."""
    if backend in ("exact", "float"):
        return backend, None
    if isinstance(backend, str) and backend.startswith("sqrt:") and backend[5:].isdecimal():
        # more digits than the bound has is over it; int() refuses very long strings
        d = int(backend[5:]) if len(backend) <= 15 else MAX_FIELD_D
        if d < MAX_FIELD_D and _is_squarefree(d):
            return "exact", d
    raise InvalidSpec(f"unknown backend {backend!r}: expected exact, float "
                      "or sqrt:d with d squarefree, 2 <= d < 2^31")


def _zero_of(d: DomainDescriptor):
    if d.backend == "float":
        return 0.0
    if d.field_d is not None:
        return Quad.rational(0, d.field_d)
    return Fraction(0)


def _check_backend_consistency(values, backend: str):
    for v in values:
        if backend_of(v) != backend and not isinstance(v, (int, Fraction)):
            raise MixedBackend(
                f"scalar {v!r} has backend {backend_of(v)}, domain is {backend}")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


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


def shoelace_area(vs):
    """Signed area (positive for counterclockwise order)."""
    s = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(vs, [*vs[1:], vs[0]]))
    return s * Fraction(1, 2)  # exact on exact data, ints included


def validate(d: DomainDescriptor) -> BoundaryProfile:
    """Check the descriptor's invariants and return its boundary profile."""
    if not 0 <= d.eps < math.inf:  # a nan tolerance makes every comparison false
        raise InvalidSpec(f"input tolerance eps must be finite and >= 0, got {d.eps}")
    if d.kind == "polygon":
        return _validate_polygon(d)
    if d.kind == "ellipsoid":
        if not (d.a > 0 and d.b > 0):
            raise EmptyDomain("ellipsoid needs positive legs")
        zero = _zero_of(d)
        chain = ((zero, d.b), (d.a, zero))
        prim, length, rational = primitive_direction(d.a - zero, zero - d.b, 2 * d.tol)
        edge = Edge(prim if rational else None, length if rational else zero, rational)
        return BoundaryProfile(a=d.a, b=d.b, plus_edges=(edge,),
                               total_affine_plus=edge.affine_length if rational else zero,
                               affine_tol=d.tol / max(abs(prim[0]), 1) if rational else 0.0,
                               backend=d.backend, chain=chain)
    if d.kind == "curve":
        return _validate_curve(d)
    if d.kind == "weight_list":
        if any(w < 0 for w in d.weights):
            raise EmptyDomain("negative weight")
        if d.head is not None:
            if d.head < 0 or d.zero(d.head):
                raise EmptyDomain("a convex weight list needs a positive head")
            if any(w > d.head for w in d.weights):
                raise NonConvex("head must dominate every weight")
            gap = area(d)  # (head^2 - sum w^2)/2, the domain's area
            if not gap > area_tolerance(d):
                raise EmptyDomain("weights fill the head's triangle: sum w^2 >= head^2")
            reduced = _cremona_reduced(d)
            if not area(reduced) > area_tolerance(reduced):
                raise NonConvex("the weights are not a ball packing of the head's triangle: "
                                "after Cremona reduction sum w^2 >= head^2")
        zero = _zero_of(d)
        return BoundaryProfile(a=None, b=None, plus_edges=(), total_affine_plus=zero,
                               affine_tol=0.0, backend=d.backend)
    raise ValueError(f"unknown domain kind {d.kind!r}")


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

    # dx and dy carry 2 eps each; a length dx/n carries 2 eps/|n|
    edges = []
    zero = _zero_of(d)
    total, total_tol = zero, 0.0
    for i in range(len(chain) - 1):
        dx = chain[i + 1][0] - chain[i][0]
        dy = chain[i + 1][1] - chain[i][1]
        prim, length, rational = primitive_direction(dx, dy, 4 * d.tol)
        edges.append(Edge(prim if rational else None,
                          length if rational else zero, rational))
        if rational:
            total = total + length
            total_tol += 2 * d.tol / max(abs(prim[0]), 1)
    return BoundaryProfile(a=a, b=b, plus_edges=tuple(edges), total_affine_plus=total,
                           affine_tol=total_tol, backend=d.backend, chain=tuple(chain))


def _curve_geometry(d: DomainDescriptor):
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


def _validate_curve(d: DomainDescriptor) -> BoundaryProfile:
    r = d.params[-1]
    if not r > 0:
        raise EmptyDomain("curve radius must be positive")
    # axis extents are exact (the stored radius); only interior data is fuzzy
    return BoundaryProfile(a=r, b=r, plus_edges=(), total_affine_plus=Fraction(0),
                           affine_tol=0.0, backend="float", chain=None, smooth=True)


# ---------------------------------------------------------------------------
# elementary invariants
# ---------------------------------------------------------------------------

def area(d: DomainDescriptor):
    """Euclidean area of the region."""
    if d.kind == "polygon":
        profile = validate(d)
        zero = _zero_of(d)
        vs = [(zero, zero)] + list(reversed(profile.chain))
        return shoelace_area(vs)
    if d.kind == "ellipsoid":
        return d.a * d.b * Fraction(1, 2)
    if d.kind == "curve":
        if d.curve == "quarter_disk":
            (r,) = d.params
            return math.pi * float(r) ** 2 / 4
        p, r = d.params
        pf = float(p)
        return float(r) ** 2 * math.gamma(1 + 1 / pf) ** 2 / math.gamma(1 + 2 / pf)
    if d.kind == "weight_list":
        sq = sum(w * w for w in d.weights)
        return (sq if d.head is None else d.head * d.head - sq) * Fraction(1, 2)
    raise ValueError(f"unknown domain kind {d.kind!r}")


def area_tolerance(d: DomainDescriptor) -> float:
    """Bound on the error of area(d) when each float input coordinate is
    within eps of its value; 0 for exact data.  area's sums add bounds, a
    product u*v has |u| e_v + |v| e_u + e_u e_v, and the polygon's origin
    is exact.  A curve's area carries eps and its formula's rounding,
    relative to the area.  Exact data get an exact 0, which compares with
    Q(sqrt d) values as a float 0.0 cannot."""
    if d.kind == "curve":
        v = area(d)
        return d.tol * v + (4e-16 if d.curve == "quarter_disk" else 1e-14) * v
    e = d.tol
    if not e:
        return e
    prod = lambda u, v: abs(u) * e + abs(v) * e + e * e
    if d.kind == "polygon":  # shoelace over the chain; the terms at the origin are exact
        chain = validate(d).chain[::-1]
        return sum(prod(x0, y1) + prod(x1, y0)
                   for (x0, y0), (x1, y1) in zip(chain, chain[1:])) / 2
    if d.kind == "ellipsoid":
        return prod(d.a, d.b) / 2
    sq = sum(prod(w, w) for w in d.weights)
    return (sq if d.head is None else prod(d.head, d.head) + sq) / 2


# ---------------------------------------------------------------------------
# inner grid polygon of the smooth families
# ---------------------------------------------------------------------------

def inner_grid_polygon(d: DomainDescriptor, M: int) -> tuple[DomainDescriptor, float]:
    """Inner approximation on the (r/M)-grid with small coordinate
    denominators, for consumers that feed the weight recursion (simple
    slopes keep the tree small), and its Hausdorff bound, which carries
    the extra grid offset."""
    if d.kind != "curve":
        raise ValueError("inner_grid_polygon applies to curve families")
    r = d.params[-1]
    rf, f, fp = _curve_geometry(d)
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


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def descriptor_from_json(obj) -> DomainDescriptor:
    """The descriptor a JSON document (or its text) describes.  A document
    of the wrong shape raises InvalidSpec, never a bare Python error."""
    try:
        return _descriptor_from_json(obj)
    except CapaxError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        what = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise InvalidSpec(f"malformed domain descriptor: {what}") from exc


def _descriptor_from_json(obj) -> DomainDescriptor:
    if isinstance(obj, str):
        obj = json.loads(obj)
    kind = obj["kind"]
    field_d = obj.get("field_d")
    backend = obj.get("backend")
    if backend is None:
        backend = f"sqrt:{field_d}" if field_d else "exact"
    parse_backend(backend)
    eps = float(obj.get("eps", 1e-9 if backend == "float" else 0.0))
    if kind == "polygon":
        return polygon(obj["vertices"], obj.get("orientation", "convex"),
                       backend=backend, eps=eps)
    if kind == "ellipsoid":
        return ellipsoid(obj["a"], obj["b"], backend=backend, eps=eps)
    if kind == "curve":
        name = obj["name"]
        if name == "quarter_disk":
            return quarter_disk(obj["r"], eps=eps)
        if name == "superellipse":
            return superellipse(obj["p"], obj["r"], eps=eps)
        raise InvalidSpec(f"unknown curve family {name!r}")
    if kind == "weight_list":
        return weight_list(obj.get("head"), obj.get("weights", ()),
                           backend=backend, eps=eps)
    raise InvalidSpec(f"unknown domain kind {kind!r}")
