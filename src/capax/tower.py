"""Blowup towers of polarised surfaces.

Surfaces carry an orthogonal Picard basis {H, e_1, ..., e_n} with
H^2 = 1 and e_i^2 = -1; the polarisation A is stored with signed
coefficients, so v.w = v_0 w_0 - sum v_i w_i.  The boundary is a cycle
of curves, each the record (token, degree, own, hits) of its class
degree*H + e_own - sum_{i in hits} e_i; the nodes are the pairs of
neighbouring curves.  Blowing up a node inserts the exceptional curve
between its two curves and adds the new index to both their hits; every
other curve record is shared with the level below.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NonConvex, NonPositiveHead, NotNef, TowerTooLarge, UnknownNode
from .scalars import format_scalar, is_exact
from .weights import WeightTree, linearize

AXIS_TOKENS = ("H1", "H2")

# the most blowups `build_tower` realizes, set by the nef search:
# `nef._dfs_min` recurses once per blowup, and under CPython's
# default limit of 1000 frames `--oracle` on the triangle (0,0), (n,0),
# (0,1) verifies at n = 988 and raises RecursionError at n = 989.  Memory
# is linear in n, since a level shares every curve record of the level
# below but the three its blowup makes: that `--oracle` peaks at 21 MB for
# n = 400 and 46 MB for n = 900 (max-RSS, CPython 3.11 on x86-64)
MAX_BLOWUPS = 900


class BoundaryCurve(namedtuple("BoundaryCurve", "token degree own hits")):
    """A boundary curve: its `token` ("H0", "H1", "H2" or a tree-node id)
    and its class degree*H + e_own - sum_{i in hits} e_i, with own = 0 for
    the three lines and `hits` ascending (every index in it is above own)."""

    __slots__ = ()

    @property
    def is_plus(self) -> bool:
        """Part of the upper boundary (not an axis curve)."""
        return self.token not in AXIS_TOKENS

    @property
    def square(self) -> int:
        """C^2."""
        return self.degree - (self.own > 0) - len(self.hits)

    def pair(self, v):
        """v.C for a class vector v; the terms add in index order, as `_dot`
        adds a dense class's nonzeros, so floats round alike."""
        out = v[0] * self.degree
        if self.own:
            out = out - v[self.own]
        for i in self.hits:
            out = out + v[i]
        return out


class PicBasisSurface(namedtuple("PicBasisSurface", "n A curves")):
    """The plane blown up `n` times, with its polarisation class vector
    `A` (length n+1) and its boundary cycle `curves`, in order."""

    __slots__ = ()

    @property
    def K(self) -> tuple:
        """The canonical class -3H + e_1 + ... + e_n."""
        return (-3,) + (1,) * self.n

    def pairings(self) -> tuple:
        """A^2, -K.A, F and -K+.A: the tower dump's and the degree bound's data."""
        minus_k = tuple(-x for x in self.K)
        return _dot(self.A, self.A), _dot(minus_k, self.A), F_of_n(self), k_plus_dot_A(self)


def _dot(u: tuple, v: tuple):
    out = u[0] * v[0]
    for i in range(1, len(u)):
        out = out - u[i] * v[i]
    return out


def _negative(v) -> bool:
    """v < 0: exactly for exact scalars, below -1e-12 for floats."""
    return v < 0 if is_exact(v) else v < -1e-12


def p2_init(c) -> PicBasisSurface:
    """The plane polarised by c*H, with its three boundary lines."""
    if not c > 0:
        raise NonPositiveHead(f"head must be positive, got {c}")
    # the hypotenuse, the x-axis and the y-axis
    curves = tuple(BoundaryCurve(t, 1, 0, ()) for t in ("H0", "H1", "H2"))
    return PicBasisSurface(n=0, A=(c,), curves=curves)


def blowup(s: PicBasisSurface, node, a, token=None) -> PicBasisSurface:
    """Blow up a boundary node with weight a >= 0.

    `node` is the pair of tokens of two neighbouring curves.  The new
    exceptional curve is inserted between them; A loses a*e, K gains e.
    Only the two curves through the node change; the other records are
    those of `s`.
    """
    tokens = [c.token for c in s.curves]
    m = len(tokens)
    i1, i2 = (tokens.index(t) if t in tokens else None for t in node)
    if None in (i1, i2) or ((i1 + 1) % m != i2 and (i2 + 1) % m != i1):
        raise UnknownNode(f"no boundary node between curves {set(node)}")
    if a < 0:
        raise ValueError("blowup weight must be nonnegative")
    n = s.n + 1
    A = s.A + (-a,)
    curves = list(s.curves)
    # only the two curves through the node change their pairing with A; the
    # exceptional curve pairs to a >= 0
    for i in sorted((i1, i2)):
        c = curves[i] = curves[i]._replace(hits=curves[i].hits + (n,))
        v = c.pair(A)
        if _negative(v):
            raise NotNef(f"A pairs negatively ({v}) with curve {c.token}",
                         curve=c.token, value=v)
    # between the two curves; at position 0 when they close the cycle
    curves.insert(i2 if (i1 + 1) % m == i2 else i1,
                  BoundaryCurve(token if token is not None else f"E{n}", 0, n, ()))
    return PicBasisSurface(n=n, A=A, curves=tuple(curves))


class Tower(namedtuple("Tower", "surfaces tree order")):
    """Surfaces Y_0..Y_n built from a convex weight tree, plus tail data;
    `order` lists the tree-node ids in blowup order."""

    __slots__ = ()

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
                            f"{MAX_BLOWUPS} it takes: the nef search recurses once per "
                            "blowup, within Python's limit of 1000 frames")
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
            v = c.pair(s.A)
            out = v if out is None else out + v
    return out


def F_of_n(s: PicBasisSurface) -> int:
    """The degree-bound count F: #(-1)-curves minus twice the sum of
    (1 + C^2) over curves with C^2 < -1.  On these toric surfaces every
    negative curve is a boundary curve, so boundary data determine it."""
    squares = [c.square for c in s.curves]
    return squares.count(-1) - 2 * sum(1 + q for q in squares if q < -1)


def tower_dump(tw: Tower) -> dict:
    """Per-level invariants, stable across runs."""
    levels = []
    for s in tw.surfaces:
        a2, minus_k_dot_a, f, k_plus = s.pairings()
        levels.append({
            "n": s.n,
            "A2": format_scalar(a2),
            "minus_K_dot_A": format_scalar(minus_k_dot_a),
            "minus_Kplus_dot_A": format_scalar(k_plus),
            "F": f,
            "boundary_self_intersections": [c.square for c in s.curves],
        })
    return {"schema": "capax.tower.v1", "levels": levels}
