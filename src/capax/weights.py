"""Weight-sequence recursions over concave and convex regions.

One split serves the head and every piece: it cuts a graph along a line
of direction (1,-1).  Every piece step peels the largest standard
triangle from a concave piece held in standard position (region under a
convex function, ending on the x-axis), cutting at x+y = a for the least
value a of x+y.  The contact of the cut line with the piece's upper
boundary is a possibly degenerate segment; its affine length is the edge
this step contributes to the original domain's upper boundary, recorded
per node as ``introduced``.  Pieces left and right of the contact are
mapped back to standard position by the unimodular maps
(x, y) -> (x, x+y-a) and (x, y) -> (x+y-a, y).

A convex domain's head step is the same split at the greatest value c of
x+y: it cuts the circumscribed triangle, the two corner complements
become concave pieces via (x, y) -> (x, c-x-y) and (x, y) -> (c-x-y, y),
and the contact with the hypotenuse is the extended node's deficiency.

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

from .errors import BackendOverflow, DegenerateEdge, NonConvex, TailNotDecreasing
from .scalars import Eps, format_scalar, is_exact, primitive_direction, seps, sfloat
from .domains import (
    DomainDescriptor,
    parse_backend,
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


def _contact(svals, gaps, exact: bool):
    """The vertices at a cut line, from their values x+y and gaps to it:
    (j1, j2), the first and last that touch it, and (s1, s2), where the
    slivers end.  Exact gaps are compared exactly, never through floats.

    A float contact can take in an end of the graph that lies off the line
    by more than rounding, inside the tolerance tags.  The sliver from that
    end to the first (s1) or last (s2) vertex within rounding of the line
    is a dropped piece; s1, s2 are None where the end is on the line."""
    tol = noise = 0
    if not exact:  # rounding of sums of the values, then their tolerance tags
        gaps = [sfloat(g) for g in gaps]
        noise = 1e-12 * (1.0 + max((abs(sfloat(v)) for v in svals), default=1.0))
        tol = 2 * max((seps(v) for v in svals), default=0.0) + noise
    contact = [i for i, g in enumerate(gaps) if g <= tol]
    on_line = [i for i, g in enumerate(gaps) if g <= noise]
    return (contact[0], contact[-1], on_line[0] if gaps[0] > noise else None,
            on_line[-1] if gaps[-1] > noise else None)


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
    def __init__(self, limits: TruncationLimits, exact: bool):
        self.max_depth, self.eps = limits.resolved(exact)
        self.exact = exact
        # with no limit set, the default depth stands for an expansion that
        # does not end (irrational data); a limit the caller set truncates
        self.unlimited = exact and limits.max_depth is None and self.eps == 0.0
        self.nodes: dict[int, WeightNode] = {}
        self.children: dict[int | None, list[int]] = {None: []}  # None: the roots
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

    def split(self, graph, svals, gaps, cut):
        """Cut a graph at a line of direction (1,-1), given its values x+y
        and their gaps to the line.  Returns the contact's affine length and
        the pieces left and right of it, None where the contact reaches that
        end; `cut(x, y)`, a vertex's distance to the line, maps them to
        standard position as (x, cut) and (cut, y)."""
        j1, j2, s1, s2 = _contact(svals, gaps, self.exact)
        left = right = None
        if j1 > 0:
            left = [(x, cut(x, y)) for x, y in graph[: j1 + 1]]
        elif s1 is not None:
            self._drop([(x, cut(x, y)) for x, y in graph[: s1 + 1]])
        if j2 < len(graph) - 1:
            right = [(cut(x, y), y) for x, y in graph[j2:]]
        elif s2 is not None:
            self._drop([(cut(x, y), y) for x, y in graph[s2:]])
        return graph[j2][0] - graph[j1][0], left, right

    def run(self, pieces):
        """pieces: list of (graph, parent, side, corner, depth)."""
        queue = deque(pieces)
        while queue:
            graph, parent, side, corner, depth = queue.popleft()
            if depth > self.max_depth:
                if self.unlimited:
                    raise BackendOverflow(
                        f"recursion exceeded depth {self.max_depth}; "
                        "set truncation limits for irrational data")
                self._drop(graph)
                continue
            svals = [x + y for x, y in graph]
            a = min(svals)
            if sfloat(a) < self.eps:
                self._drop(graph)
                continue
            introduced, left, right = self.split(graph, svals, [s - a for s in svals],
                                                 lambda x, y: x + y - a)
            node_id = len(self.nodes)
            self.nodes[node_id] = WeightNode(id=node_id, weight=a, parent=parent, side=side,
                                             corner=corner, introduced=introduced,
                                             depth=depth)
            self.children[node_id] = []
            self.children[parent].append(node_id)
            x_curve, y_curve = corner if corner else (None, None)
            # left piece: keeps the y-side curve, x-axis becomes this blowup's edge
            if left:
                queue.append((left, node_id, 2, (node_id, y_curve) if corner else None,
                              depth + 1))
            # right piece: keeps the x-side curve
            if right:
                queue.append((right, node_id, 3, (x_curve, node_id) if corner else None,
                              depth + 1))


def _tree_from_weight_list(d: DomainDescriptor) -> WeightTree:
    zero = Fraction(0)
    rec_nodes = {}
    order = sorted(range(len(d.weights)), key=lambda i: (-sfloat(d.weights[i]), i))
    for rank, idx in enumerate(order):
        rec_nodes[rank] = WeightNode(id=rank, weight=d.weights[idx], parent=None,
                                     side=3, corner=None, introduced=zero, depth=1)
    trunc = Truncation(max_depth=0, eps=0.0, dropped_tail_sum=zero,
                       dropped_tail_sq=zero, dropped_pieces=0, complete=True)
    return WeightTree(head=d.head, head_introduced=zero, roots=tuple(rec_nodes),
                      nodes=rec_nodes, truncation=trunc, backend=d.backend)


def _weights(d: DomainDescriptor, limits: TruncationLimits | None, convex: bool) -> WeightTree:
    profile = validate(d)
    if d.kind == "weight_list":
        if (d.head is not None) != convex:
            raise NonConvex("weight list with a head is convex data" if d.head is not None
                            else "weight list without a head is concave data")
        return _tree_from_weight_list(d)
    if not (d.is_convex() if convex else d.is_concave()):
        raise NonConvex(f"{d.kind} domain is not {'convex' if convex else 'concave'}")
    if profile.smooth:
        raise NonConvex("polygonalize smooth domains before running the recursion")
    chain = list(profile.chain)
    zero = chain[0][0] - chain[0][0]
    rec = _Recursion(limits or TruncationLimits(), d.backend != "float")
    head, head_introduced, pieces = None, zero, [(chain, None, 3, None, 1)]
    try:
        if convex:  # cut the circumscribed triangle x + y <= c, the head
            svals = [x + y for x, y in chain]
            head = max(svals)
            head_introduced, left, right = rec.split(chain, svals, [head - s for s in svals],
                                                     lambda x, y: head - x - y)
            # corner pieces at (0, c) and (c, 0): the hypotenuse is their x- or y-axis
            pieces = [p for p in ((left, None, 2, ("H0", "H2"), 1),
                                  (right, None, 3, ("H1", "H0"), 1)) if p[0]]
        rec.run(pieces)
    except OverflowError as exc:
        raise BackendOverflow(
            "weight recursion: exact coordinates outgrew the float range; "
            "set truncation limits for irrational data") from exc
    tree = WeightTree(
        head=head, head_introduced=head_introduced, roots=tuple(rec.children[None]),
        nodes={i: replace(n, children=tuple(rec.children[i])) for i, n in rec.nodes.items()},
        truncation=Truncation(
            max_depth=rec.max_depth, eps=rec.eps,
            dropped_tail_sum=zero if rec.tail_sum is None else rec.tail_sum,
            dropped_tail_sq=zero if rec.tail_sq is None else rec.tail_sq,
            dropped_pieces=rec.dropped, complete=rec.dropped == 0),
        backend=d.backend)
    tree.assert_parent_dominance()
    return tree


def concave_weights(d: DomainDescriptor, limits: TruncationLimits | None = None) -> WeightTree:
    """Weight tree of a concave domain (single root)."""
    return _weights(d, limits, convex=False)


def convex_weights(d: DomainDescriptor, limits: TruncationLimits | None = None) -> WeightTree:
    """Weight tree of a convex domain: head + up to two concave subtrees."""
    return _weights(d, limits, convex=True)


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


def deficiencies(t: WeightTree) -> dict:
    """Per-node deficiency plus the extended node's, keyed by id and INF_NODE."""
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


def tree_from_json(obj: dict) -> WeightTree:
    from .scalars import parse_scalar

    backend = obj.get("backend", "exact")
    base, field_d = parse_backend(backend)
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
