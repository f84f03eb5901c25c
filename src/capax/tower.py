"""Blowup towers of polarised surfaces and divisors on them.

Surfaces carry an orthogonal Picard basis {H, e_1, ..., e_n} with
H^2 = 1 and e_i^2 = -1; class vectors are stored with signed
coefficients, so v.w = v_0 w_0 - sum v_i w_i.  Boundary curves hold
strict-transform classes and the current boundary nodes are the
unordered pairs of adjacent curve ids.  Blowing up a node inserts the
exceptional curve between its two curves and subtracts the new basis
vector from both.

A tower divisor is a class on the initial plane plus a finitely
supported weight over tree-node ids (tail tag "zero"), or a constant
tail like the canonical divisor (base -3H, every weight -1 in the
pullback-minus-d*E convention).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    cid: int
    token: object  # "H0" | "H1" | "H2" | tree-node id
    cls: tuple  # signed coefficients over (H, e_1, .., e_n), zero-padded lazily
    is_plus: bool  # part of the upper boundary (not an axis curve)


@dataclass(frozen=True)
class PicBasisSurface:
    n: int  # number of blowups so far
    A: tuple  # polarisation class vector, length n+1
    K: tuple  # canonical class vector
    curves: tuple[BoundaryCurve, ...]  # in boundary-cycle order
    nodes: frozenset  # frozensets {cid, cid} of adjacent curve pairs
    token_to_cid: dict = field(compare=False, default_factory=dict)


def _pad(v: tuple, n: int) -> tuple:
    return v + (0,) * (n + 1 - len(v))


def _dot(u: tuple, v: tuple):
    n = max(len(u), len(v))
    u, v = _pad(u, n - 1), _pad(v, n - 1)
    out = u[0] * v[0]
    for i in range(1, n):
        out = out - u[i] * v[i]
    return out


def self_int(v: tuple):
    return _dot(v, v)


def p2_init(c) -> PicBasisSurface:
    """The plane polarised by c*H, with its three boundary lines."""
    if not sfloat(c) > 0:
        raise NonPositiveHead(f"head must be positive, got {c}")
    curves = (
        BoundaryCurve(0, "H0", (1,), True),   # hypotenuse line
        BoundaryCurve(1, "H1", (1,), False),  # x-axis line
        BoundaryCurve(2, "H2", (1,), False),  # y-axis line
    )
    nodes = frozenset({frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})})
    return PicBasisSurface(
        n=0, A=(c,), K=(-3,), curves=curves, nodes=nodes,
        token_to_cid={"H0": 0, "H1": 1, "H2": 2},
    )


def blowup(s: PicBasisSurface, node, a, token=None) -> PicBasisSurface:
    """Blow up a boundary node with weight a >= 0.

    `node` is a pair of curve ids (or tokens).  The new exceptional curve
    is inserted between them; A loses a*e, K gains e.
    """
    pair = frozenset(s.token_to_cid.get(t, t) for t in node)
    if pair not in s.nodes:
        raise UnknownNode(f"no boundary node between curves {set(node)}")
    if sfloat(a) < -seps(a):
        raise ValueError("blowup weight must be nonnegative")
    n_new = s.n + 1
    cid_new = len(s.curves)
    c1, c2 = sorted(pair)
    curves = []
    for c in s.curves:
        cls = _pad(c.cls, n_new)
        if c.cid in pair:
            cls = cls[:-1] + (cls[-1] - 1,)
        curves.append(BoundaryCurve(c.cid, c.token, cls, c.is_plus))
    e_cls = (0,) * n_new + (1,)
    e_curve = BoundaryCurve(cid_new, token if token is not None else f"E{n_new}",
                            e_cls, True)
    # insert E in cycle position between c1 and c2
    order = [c.cid for c in s.curves]
    i1, i2 = order.index(c1), order.index(c2)
    if (i1 + 1) % len(order) == i2:
        insert_at = i2
    elif (i2 + 1) % len(order) == i1:
        insert_at = i1
    else:
        raise UnknownNode(f"curves {c1},{c2} are not adjacent in the cycle")
    curves.insert(insert_at, e_curve)

    nodes = set(s.nodes)
    nodes.remove(pair)
    nodes.add(frozenset({c1, cid_new}))
    nodes.add(frozenset({c2, cid_new}))

    A = _pad(s.A, n_new)[:-1] + (-a,)
    K = _pad(s.K, n_new)[:-1] + (1,)
    out = PicBasisSurface(
        n=n_new, A=A, K=K, curves=tuple(curves), nodes=frozenset(nodes),
        token_to_cid={**s.token_to_cid,
                      (token if token is not None else f"E{n_new}"): cid_new},
    )
    for c in out.curves:
        v = _dot(out.A, c.cls)
        bad = v < 0 if is_exact(v) else sfloat(v) < -seps(v) - 1e-12
        if bad:
            raise NotNef(f"A pairs negatively ({v}) with curve {c.token}",
                         curve=c.token, value=v)
    return out


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

    def tail_sq(self):
        return self.tree.truncation.dropped_tail_sq


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
        v = _dot(cls, c.cls)
        if sfloat(v) < -seps(v):
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
        cls = _pad(c.cls, s.n)
        total = tuple(x + y for x, y in zip(total, cls))
    minus_k = tuple(-x for x in _pad(s.K, s.n))
    if total != minus_k:
        raise AssertionError(f"boundary sum {total} != -K {minus_k}")
    if self_int(s.K) != 9 - s.n:
        raise AssertionError("K^2 != 9 - n")
    m = len(s.curves)
    for i in range(m):
        for j in range(i + 1, m):
            expected = 1 if (j == i + 1 or (i == 0 and j == m - 1)) else 0
            got = _dot(_pad(s.curves[i].cls, s.n), _pad(s.curves[j].cls, s.n))
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
