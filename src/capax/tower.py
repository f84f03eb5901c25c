"""Blowup towers of polarised surfaces and divisors on them.

Surfaces carry an orthogonal Picard basis {H, e_1, ..., e_n} with
H^2 = 1 and e_i^2 = -1; class vectors are stored with signed
coefficients, so v.w = v_0 w_0 - sum v_i w_i.  The boundary is a cycle
of curves, each named by its token and holding its strict-transform
class; the nodes are the pairs of neighbouring curves.  Blowing up a
node inserts the exceptional curve between its two curves and subtracts
the new basis vector from both.

A tower divisor is a class on the initial plane plus a finitely
supported weight over tree-node ids (tail tag "zero"), or a constant
tail like the canonical divisor (base -3H, every weight -1 in the
pullback-minus-d*E convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    NonPositiveHead,
    NotNef,
    UnknownNode,
    UnpairableTails,
)
from .scalars import format_scalar, is_exact, seps, sfloat
from .weights import WeightTree, linearize

AXIS_TOKENS = ("H1", "H2")


@dataclass(frozen=True)
class BoundaryCurve:
    token: object  # "H0" | "H1" | "H2" | tree-node id
    cls: tuple  # signed coefficients over (H, e_1, .., e_n)

    @property
    def is_plus(self) -> bool:
        """Part of the upper boundary (not an axis curve)."""
        return self.token not in AXIS_TOKENS


@dataclass(frozen=True)
class PicBasisSurface:
    n: int  # number of blowups so far
    A: tuple  # polarisation class vector, length n+1
    curves: tuple[BoundaryCurve, ...]  # the boundary cycle, in order

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
    """v < 0: exactly for exact scalars, beyond the tolerance for floats."""
    return v < 0 if is_exact(v) else sfloat(v) < -seps(v) - 1e-12


def p2_init(c) -> PicBasisSurface:
    """The plane polarised by c*H, with its three boundary lines."""
    if not sfloat(c) > 0:
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
    if sfloat(a) < -seps(a):
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


@dataclass
class Tower:
    """Surfaces Y_0..Y_n built from a convex weight tree, plus tail data."""

    surfaces: list[PicBasisSurface]
    tree: WeightTree
    order: list[int]  # tree-node ids in blowup order

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
    s = p2_init(t.head)
    surfaces = [s]
    for nid in order:
        node = t.nodes[nid]
        if node.corner is None:
            raise UnknownNode(f"node {nid} carries no corner annotation")
        s = blowup(s, node.corner, node.weight, token=nid)
        surfaces.append(s)
    return Tower(surfaces=surfaces, tree=t, order=order)


# ---------------------------------------------------------------------------
# divisors on towers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TowerDivisor:
    """base*H on the plane, then D_n = pullback(D_{n-1}) - weight_p * E_p."""

    base: object
    weights: dict  # tree-node id -> weight
    tail: object = "zero"  # "zero" | ("const", kappa)


def canonical_divisor() -> TowerDivisor:
    return TowerDivisor(base=Fraction(-3), weights={}, tail=("const", Fraction(-1)))


def polarisation_divisor(t: WeightTree) -> TowerDivisor:
    if t.head is None:
        raise NonPositiveHead("polarisation divisor needs a convex tree")
    return TowerDivisor(base=t.head,
                        weights={i: n.weight for i, n in t.nodes.items()},
                        tail="zero")


def intersect(b: TowerDivisor, s: TowerDivisor):
    """Pairing D.D' = base*base' - sum of weight products (e^2 = -1)."""
    if not (b.tail == "zero" or s.tail == "zero"):
        raise UnpairableTails("at most one operand may have a nonzero tail")
    out = b.base * s.base
    support = set(b.weights) | set(s.weights)

    def wt(div, p):
        if p in div.weights:
            return div.weights[p]
        if div.tail == "zero":
            return 0
        return div.tail[1]

    for p in support:
        out = out - wt(b, p) * wt(s, p)
    return out


def k_plus_dot_A(s: PicBasisSurface):
    """A paired with the reduced upper-boundary support: the polygon's
    upper-edge affine length at this level."""
    out = None
    for c in s.curves:
        if c.is_plus:
            v = _dot(s.A, c.cls)
            out = v if out is None else out + v
    return out


def nef_test(s: PicBasisSurface, cls) -> tuple[bool, object | None]:
    """cls pairs >= 0 with every boundary curve (they generate the curve cone)."""
    cls = tuple(cls)
    if len(cls) != s.n + 1:
        raise DimensionMismatch(f"class length {len(cls)} != rank {s.n + 1}")
    for c in s.curves:
        if _negative(_dot(cls, c.cls)):
            return False, c.token
    return True, None


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


def assert_surface_invariants(s: PicBasisSurface):
    """Cycle closes to -K, adjacent curves meet once, K^2 = 9 - n, A nef."""
    total = (0,) * (s.n + 1)
    for c in s.curves:
        if len(c.cls) != s.n + 1:
            raise AssertionError(f"curve {c.token} has a class of length {len(c.cls)}")
        total = tuple(x + y for x, y in zip(total, c.cls))
    minus_k = tuple(-x for x in s.K)
    if total != minus_k:
        raise AssertionError(f"boundary sum {total} != -K {minus_k}")
    if self_int(s.K) != 9 - s.n:
        raise AssertionError("K^2 != 9 - n")
    m = len(s.curves)
    for i in range(m):
        for j in range(i + 1, m):
            expected = 1 if (j == i + 1 or (i == 0 and j == m - 1)) else 0
            got = _dot(s.curves[i].cls, s.curves[j].cls)
            if got != expected:
                raise AssertionError(
                    f"curves {s.curves[i].token},{s.curves[j].token} meet {got}x")
    ok, bad = nef_test(s, tuple(s.A))
    if not ok:
        raise AssertionError(f"A is not nef against {bad}")


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
