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
coordinates.  The smooth curve families live in `capax.curves`, and the
checks of polygons and weight lists in `capax.validation`: `validate`
imports each for its own kinds alone.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction

from .errors import CapaxError, EmptyDomain, InvalidSpec
from .scalars import parse_scalar, primitive_direction


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


class TruncationLimits(namedtuple("TruncationLimits", "max_depth eps")):
    """How far the weight recursion expands a domain: at most `max_depth`
    levels, and no piece whose weight is below `eps`; None for a backend's
    default (`resolved`).  Both are checked here, where they are made."""

    __slots__ = ()

    def __new__(cls, max_depth: int | None = None, eps: float | None = None):
        # a nan or negative threshold drops no piece, yet is not "unlimited"
        if eps is not None and not eps >= 0:
            raise InvalidSpec(f"weight threshold must be >= 0, got {eps}")
        if max_depth is not None and max_depth < 0:
            raise InvalidSpec(f"depth limit must be >= 0, got {max_depth}")
        return super().__new__(cls, max_depth, eps)

    def resolved(self, exact: bool) -> tuple[int, float]:
        depth = self.max_depth if self.max_depth is not None else (4096 if exact else 256)
        eps = self.eps if self.eps is not None else (0.0 if exact else 1e-9)
        return depth, eps


class BoundaryProfile(namedtuple(
        "BoundaryProfile",
        "a b plus_edges total_affine_plus affine_tol backend area chain smooth",
        defaults=(None, False))):
    """Axis extents, the affine data of the upper boundary and the area.

    `affine_tol` is the absolute tolerance of `total_affine_plus` (0 for
    exact data); `area` is the region's Euclidean area (`domains.area`);
    `chain` is the upper-boundary polyline, (0,b) .. (a,0)."""

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
        if d < MAX_FIELD_D:
            from .quad import _is_squarefree
            if _is_squarefree(d):
                return "exact", d
    raise InvalidSpec(f"unknown backend {backend!r}: expected exact, float "
                      "or sqrt:d with d squarefree, 2 <= d < 2^31")


def _zero_of(d: DomainDescriptor):
    if d.backend == "float":
        return 0.0
    if d.field_d is not None:
        from .quad import Quad
        return Quad.rational(0, d.field_d)
    return Fraction(0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _cross(o, p, q):
    return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])


def shoelace_area(vs):
    """Signed area (positive for counterclockwise order)."""
    s = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(vs, [*vs[1:], vs[0]]))
    return s * Fraction(1, 2)  # exact on exact data, ints included


def walk_chain(chain, e):
    """The edges of a chain (0,b) .. (a,0), the affine length of its
    rational-sloped edges with that length's error, and the area under it.

    `e` is the error of one coordinate difference: an edge's direction is
    tested at 2e, and a length dx/n carries e/|n| (2 eps for polygon
    vertices, eps for an ellipsoid's legs, 0 for exact pieces)."""
    zero = chain[0][0] - chain[0][0]
    edges, total, total_tol = [], zero, 0.0
    for (x0, y0), (x1, y1) in zip(chain, chain[1:]):
        prim, length, rational = primitive_direction(x1 - x0, y1 - y0, 2 * e)
        edges.append(Edge(prim if rational else None, length if rational else zero, rational))
        if rational:
            total = total + length
            total_tol += e / max(abs(prim[0]), 1)
    return tuple(edges), total, total_tol, shoelace_area([(zero, zero), *reversed(chain)])


def validate(d: DomainDescriptor) -> BoundaryProfile:
    """Check the descriptor's invariants and return its boundary profile."""
    if not 0 <= d.eps < math.inf:  # a nan tolerance makes every comparison false
        raise InvalidSpec(f"input tolerance eps must be finite and >= 0, got {d.eps}")
    if d.kind == "polygon":
        from .validation import _validate_polygon
        return _validate_polygon(d)
    if d.kind == "ellipsoid":
        if not (d.a > 0 and d.b > 0):
            raise EmptyDomain("ellipsoid needs positive legs")
        zero = _zero_of(d)
        chain = ((zero, d.b), (d.a, zero))
        edges, length, tol, vol = walk_chain(chain, d.tol)
        return BoundaryProfile(a=d.a, b=d.b, plus_edges=edges, total_affine_plus=length,
                               affine_tol=tol, backend=d.backend, area=vol, chain=chain)
    if d.kind == "curve":
        from . import curves
        return curves.profile(d)
    if d.kind == "weight_list":
        from .validation import _validate_weight_list
        return _validate_weight_list(d)
    raise ValueError(f"unknown domain kind {d.kind!r}")


# ---------------------------------------------------------------------------
# elementary invariants
# ---------------------------------------------------------------------------

def area(d: DomainDescriptor):
    """Euclidean area of the region: its profile's `area`, which a caller
    that holds the profile reads there.  A weight list's is computed here,
    where its validation reads it."""
    if d.kind == "weight_list":
        sq = sum(w * w for w in d.weights)
        return (sq if d.head is None else d.head * d.head - sq) * Fraction(1, 2)
    return validate(d).area


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
        from . import curves
        name = obj["name"]
        if name == "quarter_disk":
            return curves.quarter_disk(obj["r"], eps=eps)
        if name == "superellipse":
            return curves.superellipse(obj["p"], obj["r"], eps=eps)
        raise InvalidSpec(f"unknown curve family {name!r}")
    if kind == "weight_list":
        return weight_list(obj.get("head"), obj.get("weights", ()),
                           backend=backend, eps=eps)
    raise InvalidSpec(f"unknown domain kind {kind!r}")
