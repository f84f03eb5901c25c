"""Blowup towers of polarised surfaces.

Surfaces carry an orthogonal Picard basis {H, e_1, ..., e_n} with
H^2 = 1 and e_i^2 = -1; class vectors are stored with signed
coefficients, so v.w = v_0 w_0 - sum v_i w_i.  The boundary is a cycle
of curves, each named by its token and holding its strict-transform
class; the nodes are the pairs of neighbouring curves.  Blowing up a
node inserts the exceptional curve between its two curves and subtracts
the new basis vector from both.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NonConvex, NonPositiveHead, NotNef, TowerTooLarge, UnknownNode
from .scalars import format_scalar, is_exact
from .weights import WeightTree, linearize

AXIS_TOKENS = ("H1", "H2")

# the most blowups `build_tower` realizes.  Every level keeps a class of
# n+1 coefficients for each of its boundary curves, so a tower of n blowups
# holds about n^3/3 of them: `capacities --oracle` on the triangle
# (0,0), (n,0), (0,1) peaks at 199 MB for n = 400, 365 MB for n = 500 and
# 686 MB for n = 625 (max-RSS, CPython 3.11 on x86-64).
MAX_BLOWUPS = 500


class BoundaryCurve(namedtuple("BoundaryCurve", "token cls")):
    """A boundary curve: its `token` ("H0", "H1", "H2" or a tree-node id)
    and its class `cls`, signed coefficients over (H, e_1, .., e_n)."""

    __slots__ = ()

    @property
    def is_plus(self) -> bool:
        """Part of the upper boundary (not an axis curve)."""
        return self.token not in AXIS_TOKENS


class PicBasisSurface(namedtuple("PicBasisSurface", "n A curves")):
    """The plane blown up `n` times, with its polarisation class vector
    `A` (length n+1) and its boundary cycle `curves`, in order."""

    __slots__ = ()

    @property
    def K(self) -> tuple:
        """The canonical class -3H + e_1 + ... + e_n."""
        return (-3,) + (1,) * self.n


def _dot(u: tuple, v: tuple):
    out = u[0] * v[0]
    for i in range(1, len(u)):
        out = out - u[i] * v[i]
    return out


def self_int(v: tuple):
    return _dot(v, v)


def _negative(v) -> bool:
    """v < 0: exactly for exact scalars, below -1e-12 for floats."""
    return v < 0 if is_exact(v) else v < -1e-12


def p2_init(c) -> PicBasisSurface:
    """The plane polarised by c*H, with its three boundary lines."""
    if not c > 0:
        raise NonPositiveHead(f"head must be positive, got {c}")
    curves = (
        BoundaryCurve("H0", (1,)),  # hypotenuse line
        BoundaryCurve("H1", (1,)),  # x-axis line
        BoundaryCurve("H2", (1,)),  # y-axis line
    )
    return PicBasisSurface(n=0, A=(c,), curves=curves)


def blowup(s: PicBasisSurface, node, a, token=None) -> PicBasisSurface:
    """Blow up a boundary node with weight a >= 0.

    `node` is the pair of tokens of two neighbouring curves.  The new
    exceptional curve is inserted between them; A loses a*e, K gains e.
    """
    tokens = [c.token for c in s.curves]
    m = len(tokens)
    i1, i2 = (tokens.index(t) if t in tokens else None for t in node)
    if None in (i1, i2) or ((i1 + 1) % m != i2 and (i2 + 1) % m != i1):
        raise UnknownNode(f"no boundary node between curves {set(node)}")
    if a < 0:
        raise ValueError("blowup weight must be nonnegative")
    n = s.n + 1
    curves = [BoundaryCurve(c.token, c.cls + ((-1,) if i in (i1, i2) else (0,)))
              for i, c in enumerate(s.curves)]
    A = s.A + (-a,)
    # only the two curves through the node change their pairing with A; the
    # exceptional curve pairs to a >= 0
    for i in sorted((i1, i2)):
        v = _dot(A, curves[i].cls)
        if _negative(v):
            raise NotNef(f"A pairs negatively ({v}) with curve {curves[i].token}",
                         curve=curves[i].token, value=v)
    # between the two curves; at position 0 when they close the cycle
    curves.insert(i2 if (i1 + 1) % m == i2 else i1,
                  BoundaryCurve(token if token is not None else f"E{n}", (0,) * n + (1,)))
    return PicBasisSurface(n=n, A=A, curves=tuple(curves))


class Tower:
    """Surfaces Y_0..Y_n built from a convex weight tree, plus tail data;
    `order` lists the tree-node ids in blowup order."""

    __slots__ = ("surfaces", "tree", "order")

    def __init__(self, surfaces: list, tree: WeightTree, order: list):
        self.surfaces = surfaces
        self.tree = tree
        self.order = order

    @property
    def final(self) -> PicBasisSurface:
        return self.surfaces[-1]

    def tail_sum(self):
        return self.tree.truncation.dropped_tail_sum


def build_tower(t: WeightTree) -> Tower:
    """Realize the weight tree as a chain of corner blowups of the plane."""
    if t.head is None:
        raise NonPositiveHead("tower construction needs a convex tree (with head)")
    order = linearize(t)
    if len(order) > MAX_BLOWUPS:
        raise TowerTooLarge(f"the tower needs {len(order)} blowups, more than the "
                            f"{MAX_BLOWUPS} it can keep: its memory grows like the cube "
                            "of the count")
    s = p2_init(t.head)
    surfaces = [s]
    for nid in order:
        node = t.nodes[nid]
        if node.corner is None:  # only a weight list's nodes lack one
            raise NonConvex("a weight list has no tower: tower and --oracle take "
                            "polygons and ellipsoids")
        s = blowup(s, node.corner, node.weight, token=nid)
        surfaces.append(s)
    return Tower(surfaces=surfaces, tree=t, order=order)


def k_plus_dot_A(s: PicBasisSurface):
    """A paired with the reduced upper-boundary support: the polygon's
    upper-edge affine length at this level."""
    out = None
    for c in s.curves:
        if c.is_plus:
            v = _dot(s.A, c.cls)
            out = v if out is None else out + v
    return out


def f_from_self_intersections(self_ints) -> int:
    """#(-1)-curves minus twice the sum of (1 + C^2) over curves with C^2 < -1,
    from a boundary self-intersection list."""
    minus_ones = sum(1 for si in self_ints if si == -1)
    correction = sum(1 + si for si in self_ints if si < -1)
    return minus_ones - 2 * correction


def F_of_n(s: PicBasisSurface):
    """The degree-bound count F of the surface's boundary.

    On these toric surfaces every negative curve is a boundary curve, so
    boundary data determines the count exactly.
    """
    return f_from_self_intersections([self_int(c.cls) for c in s.curves])


def tower_dump(tw: Tower) -> dict:
    """Per-level invariants, stable across runs."""
    levels = []
    for i, s in enumerate(tw.surfaces):
        minus_k = tuple(-x for x in s.K)
        levels.append({
            "n": s.n,
            "A2": format_scalar(_dot(s.A, s.A)),
            "minus_K_dot_A": format_scalar(_dot(minus_k, s.A)),
            "minus_Kplus_dot_A": format_scalar(k_plus_dot_A(s)),
            "F": F_of_n(s),
            "boundary_self_intersections": [self_int(c.cls) for c in s.curves],
        })
    return {"schema": "capax.tower.v1", "levels": levels}
