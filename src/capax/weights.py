"""Weight-sequence recursions over concave and convex regions.

Every recursion step peels the largest standard triangle from a concave
piece held in standard position (region under a convex function, ending
on the x-axis).  The contact of the cut line x+y = a with the piece's
upper boundary is a possibly degenerate segment of direction (1,-1);
its affine length is the edge this step contributes to the original
domain's upper boundary, recorded per node as ``introduced``.  Pieces
left and right of the contact are mapped back to standard position by
the unimodular maps (x, y) -> (x, x+y-a) and (x, y) -> (x+y-a, y).

For a convex domain the recursion starts from the circumscribed
triangle; the two corner complements become concave pieces via
(x, y) -> (x, c-x-y) and (x, y) -> (c-x-y, y), and the contact with the
hypotenuse is the extended node's deficiency.

Each node also records the blowup corner it owns, as the unordered pair
of boundary-curve tokens ("H0"/"H1"/"H2" or a parent node id), which is
what the tower builder consumes.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import (BackendOverflow, DegenerateEdge, NonConvex, TailNotDecreasing,
                     TruncationTooCoarse)
from .scalars import Eps, format_scalar, is_exact, primitive_direction, seps, sfloat
from .domains import (
    BoundaryProfile,
    DomainDescriptor,
    shoelace_area,
    validate,
)

INF_NODE = "inf"  # key for the extended node in deficiency maps


@dataclass(frozen=True)
class WeightNode:
    id: int
    weight: object
    parent: int | None
    side: int  # 2 = piece left of the contact, 3 = piece right of it
    corner: tuple | None  # pair of boundary-curve tokens
    introduced: object  # affine length of the boundary edge created here
    depth: int
    children: tuple[int, ...] = ()


@dataclass(frozen=True)
class Truncation:
    max_depth: int
    eps: float
    dropped_tail_sum: object
    dropped_tail_sq: object
    dropped_pieces: int
    complete: bool


@dataclass(frozen=True)
class TruncationLimits:
    max_depth: int | None = None
    eps: float | None = None

    def resolved(self, exact: bool) -> tuple[int, float]:
        depth = self.max_depth if self.max_depth is not None else (4096 if exact else 256)
        eps = self.eps if self.eps is not None else (0.0 if exact else 1e-9)
        return depth, eps


@dataclass
class WeightTree:
    head: object | None
    head_introduced: object  # deficiency of the extended node; 0-scalar if concave
    roots: tuple[int, ...]
    nodes: dict[int, WeightNode]
    truncation: Truncation
    backend: str

    def weight_multiset(self) -> list:
        """All weights excluding the head, in h-order."""
        return [self.nodes[i].weight for i in linearize(self)]

    def assert_parent_dominance(self):
        def above(x, y):  # x > y beyond tolerance
            if is_exact(x) and is_exact(y):
                return x > y
            return sfloat(x) > sfloat(y) + seps(x) + seps(y)

        for n in self.nodes.values():
            if n.parent is not None and above(n.weight, self.nodes[n.parent].weight):
                raise AssertionError(f"child {n.id} outweighs its parent")
            if self.head is not None and above(n.weight, self.head):
                raise AssertionError(f"node {n.id} outweighs the head")


def _contact_tolerance(values, eps: float) -> float:
    scale = max((abs(sfloat(v)) for v in values), default=1.0)
    slop = max((seps(v) for v in values), default=0.0)
    return 2 * slop + 1e-12 * (1.0 + scale)


def _piece_area(graph):
    zero = graph[0][0] - graph[0][0]
    poly = [(zero, zero)] + list(reversed(graph))
    return shoelace_area(poly)


def _piece_ell_plus(graph, float_backend: bool):
    """Affine length of the piece's rational-sloped upper edges.

    In the float backend rationality is heuristic, so callers treating the
    result as part of a sound tail bound get 0 here (conservative: the tail
    sum bound a+b-ell is largest with ell=0).
    """
    zero = graph[0][0] - graph[0][0]
    if float_backend:
        return zero
    total = zero
    for i in range(len(graph) - 1):
        dx = graph[i + 1][0] - graph[i][0]
        dy = graph[i + 1][1] - graph[i][1]
        _, length, rational = primitive_direction(dx, dy)
        if rational:
            total = total + length
    return total


class _Recursion:
    def __init__(self, limits: TruncationLimits, exact: bool, backend: str):
        self.max_depth, self.eps = limits.resolved(exact)
        self.exact = exact
        self.backend = backend
        self.nodes: dict[int, WeightNode] = {}
        self.children: dict[int, list[int]] = {}
        self.next_id = 0
        self.tail_sum = None
        self.tail_sq = None
        self.dropped = 0

    def _drop(self, graph):
        a = graph[-1][0]
        b = graph[0][1]
        try:
            ell = _piece_ell_plus(graph, not self.exact)
        except DegenerateEdge as exc:
            raise DegenerateEdge(
                f"weight recursion: {exc}; the tolerance of float coordinates grows "
                "with depth, a larger truncation eps stops sooner") from exc
        piece_sum = a + b - ell
        piece_sq = 2 * _piece_area(graph)
        self.tail_sum = piece_sum if self.tail_sum is None else self.tail_sum + piece_sum
        self.tail_sq = piece_sq if self.tail_sq is None else self.tail_sq + piece_sq
        self.dropped += 1

    def run(self, pieces):
        """pieces: list of (graph, parent, side, corner, depth). Returns root ids."""
        queue = deque(pieces)
        roots = []
        while queue:
            graph, parent, side, corner, depth = queue.popleft()
            if len(graph) < 2:
                continue
            if depth > self.max_depth:
                if self.exact and self.eps == 0.0:
                    raise BackendOverflow(
                        f"recursion exceeded depth {self.max_depth}; "
                        "set truncation limits for irrational data")
                self._drop(graph)
                continue
            svals = [x + y for x, y in graph]
            a_ins = svals[0]
            for s in svals[1:]:
                if s < a_ins:
                    a_ins = s
            if sfloat(a_ins) < self.eps:
                self._drop(graph)
                continue
            tol = _contact_tolerance(svals, self.eps) if not self.exact else 0
            contact = [i for i, s in enumerate(svals) if sfloat(s - a_ins) <= tol]
            j1, j2 = contact[0], contact[-1]
            x2, x3 = graph[j1][0], graph[j2][0]
            node_id = self.next_id
            self.next_id += 1
            node = WeightNode(id=node_id, weight=a_ins, parent=parent, side=side,
                              corner=corner, introduced=x3 - x2, depth=depth)
            self.nodes[node_id] = node
            self.children[node_id] = []
            if parent is None:
                roots.append(node_id)
            else:
                self.children[parent].append(node_id)
            x_curve, y_curve = corner if corner else (None, None)
            # left piece: keeps the y-side curve, x-axis becomes this blowup's edge
            if j1 > 0:
                left = [(x, x + y - a_ins) for x, y in graph[: j1 + 1]]
                queue.append((left, node_id, 2, (node_id, y_curve) if corner else None,
                              depth + 1))
            # right piece: keeps the x-side curve
            if j2 < len(graph) - 1:
                right = [(x + y - a_ins, y) for x, y in graph[j2:]]
                queue.append((right, node_id, 3, (x_curve, node_id) if corner else None,
                              depth + 1))
        return roots

    def finish(self, zero):
        nodes = {
            i: replace(n, children=tuple(self.children[i]))
            for i, n in self.nodes.items()
        }
        return nodes, Truncation(
            max_depth=self.max_depth,
            eps=self.eps,
            dropped_tail_sum=self.tail_sum if self.tail_sum is not None else zero,
            dropped_tail_sq=self.tail_sq if self.tail_sq is not None else zero,
            dropped_pieces=self.dropped,
            complete=self.dropped == 0,
        )


def _tree_from_weight_list(d: DomainDescriptor, zero) -> WeightTree:
    rec_nodes = {}
    order = sorted(range(len(d.weights)), key=lambda i: (-sfloat(d.weights[i]), i))
    for rank, idx in enumerate(order):
        rec_nodes[rank] = WeightNode(id=rank, weight=d.weights[idx], parent=None,
                                     side=3, corner=None, introduced=zero, depth=1)
    trunc = Truncation(max_depth=0, eps=0.0, dropped_tail_sum=zero,
                       dropped_tail_sq=zero, dropped_pieces=0, complete=True)
    return WeightTree(head=d.head, head_introduced=zero, roots=tuple(rec_nodes),
                      nodes=rec_nodes, truncation=trunc, backend=d.backend)


def concave_weights(d: DomainDescriptor, limits: TruncationLimits | None = None) -> WeightTree:
    """Weight tree of a concave domain (single root)."""
    limits = limits or TruncationLimits()
    profile = validate(d)
    if d.kind == "weight_list":
        if d.head is not None:
            raise NonConvex("weight list with a head is convex data")
        return _tree_from_weight_list(d, Fraction(0))
    if not d.is_concave():
        raise NonConvex(f"{d.kind} domain is not concave")
    chain = list(profile.chain)
    zero = chain[0][0] - chain[0][0]
    exact = d.backend != "float"
    rec = _Recursion(limits, exact, d.backend)
    roots = rec.run([(chain, None, 3, None, 1)])
    nodes, trunc = rec.finish(zero)
    tree = WeightTree(head=None, head_introduced=zero, roots=tuple(roots),
                      nodes=nodes, truncation=trunc, backend=d.backend)
    tree.assert_parent_dominance()
    return tree


def convex_weights(d: DomainDescriptor, limits: TruncationLimits | None = None) -> WeightTree:
    """Weight tree of a convex domain: head + up to two concave subtrees."""
    limits = limits or TruncationLimits()
    profile = validate(d)
    if d.kind == "weight_list":
        if d.head is None:
            raise NonConvex("weight list without a head is concave data")
        return _tree_from_weight_list(d, Fraction(0))
    if not d.is_convex():
        raise NonConvex(f"{d.kind} domain is not convex")
    if profile.smooth:
        raise NonConvex("polygonalize smooth domains before running the recursion")
    chain = list(profile.chain)
    zero = chain[0][0] - chain[0][0]
    exact = d.backend != "float"
    svals = [x + y for x, y in chain]
    c = svals[0]
    for s in svals[1:]:
        if s > c:
            c = s
    tol = _contact_tolerance(svals, limits.resolved(exact)[1]) if not exact else 0
    contact = [i for i, s in enumerate(svals) if sfloat(c - s) <= tol]
    i1, i2 = contact[0], contact[-1]
    x2, x3 = chain[i1][0], chain[i2][0]

    pieces = []
    if i1 > 0:  # corner piece at (0, c): hypotenuse becomes its x-axis
        left = [(x, c - x - y) for x, y in chain[: i1 + 1]]
        pieces.append((left, None, 2, ("H0", "H2"), 1))
    if i2 < len(chain) - 1:  # corner piece at (c, 0)
        right = [(c - x - y, y) for x, y in chain[i2:]]
        pieces.append((right, None, 3, ("H1", "H0"), 1))

    rec = _Recursion(limits, exact, d.backend)
    roots = rec.run(pieces)
    nodes, trunc = rec.finish(zero)
    tree = WeightTree(head=c, head_introduced=x3 - x2, roots=tuple(roots),
                      nodes=nodes, truncation=trunc, backend=d.backend)
    tree.assert_parent_dominance()
    return tree


# ---------------------------------------------------------------------------
# linearization, deficiencies, balance
# ---------------------------------------------------------------------------

class _HeapKey:
    """Orders by weight descending (exact comparisons), then id ascending."""

    __slots__ = ("weight", "id")

    def __init__(self, weight, node_id):
        self.weight = weight
        self.id = node_id

    def __lt__(self, other):
        if self.weight == other.weight:
            return self.id < other.id
        return sfloat(self.weight) > sfloat(other.weight) if isinstance(self.weight, Eps) \
            else self.weight > other.weight


def linearize(t: WeightTree) -> list[int]:
    """Greedy ancestors-first extraction by weight, ties broken by node id."""
    heap = [_HeapKey(t.nodes[r].weight, r) for r in t.roots]
    heapq.heapify(heap)
    out = []
    while heap:
        key = heapq.heappop(heap)
        out.append(key.id)
        for ch in t.nodes[key.id].children:
            heapq.heappush(heap, _HeapKey(t.nodes[ch].weight, ch))
    prev = None
    for i in out:
        w = t.nodes[i].weight
        if prev is not None and sfloat(w) > sfloat(prev) + seps(w):
            raise AssertionError("linearization is not weight-monotone")
        prev = w
    return out


def deficiencies(t: WeightTree, profile: BoundaryProfile | None = None,
                 certificate_tol: float | None = None) -> dict:
    """Per-node deficiency plus the extended node's, keyed by id and INF_NODE."""
    if certificate_tol is not None and sfloat(t.truncation.dropped_tail_sum) > certificate_tol:
        raise TruncationTooCoarse(
            f"dropped tail {sfloat(t.truncation.dropped_tail_sum):.3g} exceeds "
            f"certificate tolerance {certificate_tol:.3g}")
    out = {n.id: n.introduced for n in t.nodes.values()}
    out[INF_NODE] = t.head_introduced
    return out


def is_balanced(t: WeightTree, tol=0) -> tuple[bool, list]:
    """True iff every deficiency (including the extended node) is <= tol."""
    offenders = []
    for key, val in deficiencies(t).items():
        if sfloat(val) > sfloat(tol) + seps(val):
            offenders.append((key, val))
    offenders.sort(key=lambda kv: -sfloat(kv[1]))
    return (not offenders), offenders


# ---------------------------------------------------------------------------
# truncation schedule
# ---------------------------------------------------------------------------

def truncation_schedule(tail_sq, k: int, n_ceiling: int = 1_000_000) -> int:
    """Smallest n with S(n) <= k^(-3/4), given S(n) = sum of squared weights
    from index n on.

    Falls back to a dyadic-threshold construction when the primary rule
    would exceed `n_ceiling`.
    """
    if k < 1:
        raise ValueError("k must be positive")
    target = k ** (-0.75)
    prev = None
    n = 0
    while n <= n_ceiling:
        s = sfloat(tail_sq(n))
        if prev is not None and s > prev + 1e-15 * (1 + abs(prev)):
            raise TailNotDecreasing(f"S({n}) = {s} exceeds S({n-1}) = {prev}")
        if s <= target:
            return n
        prev = s
        n += 1
    return _fallback_schedule(tail_sq, k, n_ceiling)


def _fallback_schedule(tail_sq, k: int, n_ceiling: int) -> int:
    # S(t) <= f(t)/t with f non-increasing; thresholds t_j = min{t : f(t) <= 2^-j}
    probe = [1]
    while probe[-1] < n_ceiling:
        probe.append(min(probe[-1] * 2, n_ceiling))
    f = {}
    running = 0.0
    for t in reversed(probe):
        running = max(running, t * sfloat(tail_sq(t)))
        f[t] = running
    j = 0
    t_j = 1
    best_j = 0
    while True:
        thresh = 2.0 ** (-(j + 1))
        nxt = next((t for t in probe if t >= t_j and f[t] <= thresh), None)
        if nxt is None or (j + 1) * nxt > k:
            break
        j += 1
        t_j = nxt
        best_j = j
    if best_j == 0:
        return n_ceiling
    return max(1, math.ceil(k / best_j))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def tree_to_json(t: WeightTree) -> dict:
    order = linearize(t)
    return {
        "schema": "capax.weight_tree.v1",
        "backend": t.backend,
        "head": None if t.head is None else format_scalar(t.head),
        "deficiency_inf": format_scalar(t.head_introduced),
        "weights": [format_scalar(t.nodes[i].weight) for i in order],
        "nodes": [
            {
                "id": n.id,
                "wt": format_scalar(n.weight),
                "parent": n.parent,
                "side": n.side,
                "children": list(n.children),
                "introduced": format_scalar(n.introduced),
                "corner": list(n.corner) if n.corner else None,
                "depth": n.depth,
            }
            for n in (t.nodes[i] for i in sorted(t.nodes))
        ],
        "truncation": {
            "max_depth": t.truncation.max_depth,
            "eps": t.truncation.eps,
            "dropped_tail_sum": format_scalar(t.truncation.dropped_tail_sum),
            "dropped_tail_sq": format_scalar(t.truncation.dropped_tail_sq),
            "dropped_pieces": t.truncation.dropped_pieces,
            "complete": t.truncation.complete,
        },
    }


def tree_from_json(obj: dict, field_d: int | None = None) -> WeightTree:
    from .scalars import parse_scalar

    backend = obj.get("backend", "exact")
    if backend.startswith("sqrt:"):
        field_d = int(backend.split(":")[1])
    base = "float" if backend == "float" else "exact"
    par = lambda s: parse_scalar(s, base, field_d)
    nodes = {}
    roots = []
    for nd in obj["nodes"]:
        node = WeightNode(id=nd["id"], weight=par(nd["wt"]), parent=nd["parent"],
                          side=nd["side"],
                          corner=tuple(nd["corner"]) if nd["corner"] else None,
                          introduced=par(nd["introduced"]), depth=nd["depth"],
                          children=tuple(nd["children"]))
        nodes[node.id] = node
        if node.parent is None:
            roots.append(node.id)
    tr = obj["truncation"]
    trunc = Truncation(max_depth=tr["max_depth"], eps=tr["eps"],
                       dropped_tail_sum=par(tr["dropped_tail_sum"]),
                       dropped_tail_sq=par(tr["dropped_tail_sq"]),
                       dropped_pieces=tr["dropped_pieces"],
                       complete=tr["complete"])
    head = None if obj.get("head") is None else par(obj["head"])
    return WeightTree(head=head, head_introduced=par(obj["deficiency_inf"]),
                      roots=tuple(roots), nodes=nodes, truncation=trunc,
                      backend=backend)


def weights_to_csv(t: WeightTree) -> str:
    lines = ["# capax-csv v1 weights", "rank,weight"]
    for rank, i in enumerate(linearize(t)):
        lines.append(f"{rank},{format_scalar(t.nodes[i].weight)}")
    return "\n".join(lines) + "\n"
