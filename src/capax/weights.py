"""The weight-sequence recursion over concave and convex regions.

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

Every backend runs the same exact recursion.  A float coordinate enters
as the rational it stands for: the one of denominator at most 2^26 that
rounds to it, else its own dyadic value.  So contacts are decided
exactly, a dropped piece is charged its exact a + b - ell, and the
finished tree's scalars are rounded back to plain floats once.  The input
tolerance is read where float input is compared (``validate``), not here.
"""

from __future__ import annotations

from collections import deque, namedtuple
from fractions import Fraction

from .errors import BackendOverflow, InvalidSpec, NonConvex
from .scalars import Column, format_scalar, primitive_direction, write_csv
from .domains import DomainDescriptor, shoelace_area, validate

INF_NODE = "inf"  # key for the extended node in deficiency maps


class WeightNode(namedtuple("WeightNode",
                            "id weight parent side corner introduced depth children",
                            defaults=((),))):
    """One ball of the expansion.  `side` is 2 for the piece left of the
    contact, 3 for the piece right of it; `corner` is the pair of
    boundary-curve tokens; `introduced` is the affine length of the
    boundary edge created here; `children` are node ids."""

    __slots__ = ()


class Truncation(namedtuple("Truncation", "max_depth eps dropped_tail_sum dropped_tail_sq "
                                          "dropped_pieces complete")):
    __slots__ = ()


class TruncationLimits(namedtuple("TruncationLimits", "max_depth eps", defaults=(None, None))):
    __slots__ = ()

    def resolved(self, exact: bool) -> tuple[int, float]:
        # a nan or negative threshold drops no piece, yet is not "unlimited"
        if self.eps is not None and not self.eps >= 0:
            raise InvalidSpec(f"weight threshold must be >= 0, got {self.eps}")
        if self.max_depth is not None and self.max_depth < 0:
            raise InvalidSpec(f"depth limit must be >= 0, got {self.max_depth}")
        depth = self.max_depth if self.max_depth is not None else (4096 if exact else 256)
        eps = self.eps if self.eps is not None else (0.0 if exact else 1e-9)
        return depth, eps


class WeightTree:
    """A weight expansion: the `head` (None if concave), the deficiency of
    the extended node `head_introduced` (a zero scalar if concave), the
    root ids and the nodes by id."""

    __slots__ = ("head", "head_introduced", "roots", "nodes", "truncation", "backend")

    def __init__(self, head, head_introduced, roots: tuple, nodes: dict,
                 truncation: Truncation, backend: str):
        self.head = head
        self.head_introduced = head_introduced
        self.roots = roots
        self.nodes = nodes
        self.truncation = truncation
        self.backend = backend

    def weight_multiset(self) -> list:
        """All weights excluding the head, in h-order."""
        return [self.nodes[i].weight for i in linearize(self)]

    def assert_parent_dominance(self):
        for n in self.nodes.values():
            if n.parent is not None and n.weight > self.nodes[n.parent].weight:
                raise AssertionError(f"child {n.id} outweighs its parent")
            if self.head is not None and n.weight > self.head:
                raise AssertionError(f"node {n.id} outweighs the head")


def _rational(x) -> Fraction:
    """The rational a float stands for: the one of denominator at most
    2^26 that rounds to it, else its exact dyadic value."""
    q = Fraction(x).limit_denominator(2 ** 26)
    return q if float(q) == x else Fraction(x)


def _piece_area(graph):
    zero = graph[0][0] - graph[0][0]
    poly = [(zero, zero)] + list(reversed(graph))
    return shoelace_area(poly)


def _piece_ell_plus(graph):
    """Affine length of the piece's rational-sloped upper edges."""
    total = graph[0][0] - graph[0][0]
    for i in range(len(graph) - 1):
        dx = graph[i + 1][0] - graph[i][0]
        dy = graph[i + 1][1] - graph[i][1]
        _, length, rational = primitive_direction(dx, dy, 0)
        if rational:
            total = total + length
    return total


class _Recursion:
    def __init__(self, limits: TruncationLimits, exact: bool, rational: bool):
        self.max_depth, self.eps = limits.resolved(exact)
        # with no limit set, the default depth stands for an expansion that
        # does not end (irrational data); a limit the caller set truncates
        self.unlimited = exact and limits.max_depth is None and self.eps == 0.0
        # a rational expansion ends, only deeper than the default depth
        self.hint = ("raise the depth limit (--depth) or set a weight threshold (--eps)"
                     if rational else "set truncation limits for irrational data")
        self.nodes: dict[int, WeightNode] = {}
        self.children: dict[int | None, list[int]] = {None: []}  # None: the roots
        self.tail_sum = None
        self.tail_sq = None
        self.dropped = 0

    def _drop(self, graph):
        piece_sum = graph[-1][0] + graph[0][1] - _piece_ell_plus(graph)  # a + b - ell
        piece_sq = 2 * _piece_area(graph)
        self.tail_sum = piece_sum if self.tail_sum is None else self.tail_sum + piece_sum
        self.tail_sq = piece_sq if self.tail_sq is None else self.tail_sq + piece_sq
        self.dropped += 1

    def split(self, graph, gaps, cut):
        """Cut a graph at a line of direction (1,-1), given its vertices'
        gaps to the line.  Returns the contact's affine length and the
        pieces left and right of it, None where the contact reaches that
        end; `cut(x, y)`, a vertex's distance to the line, maps them to
        standard position as (x, cut) and (cut, y)."""
        contact = [i for i, g in enumerate(gaps) if g <= 0]
        j1, j2 = contact[0], contact[-1]
        left = [(x, cut(x, y)) for x, y in graph[: j1 + 1]] if j1 > 0 else None
        right = [(cut(x, y), y) for x, y in graph[j2:]] if j2 < len(graph) - 1 else None
        return graph[j2][0] - graph[j1][0], left, right

    def run(self, pieces):
        """pieces: list of (graph, parent, side, corner, depth)."""
        queue = deque(pieces)
        while queue:
            graph, parent, side, corner, depth = queue.popleft()
            if depth > self.max_depth:
                if self.unlimited:
                    raise BackendOverflow(
                        f"recursion exceeded depth {self.max_depth}; {self.hint}")
                self._drop(graph)
                continue
            svals = [x + y for x, y in graph]
            a = min(svals)
            if float(a) < self.eps:  # a float threshold
                self._drop(graph)
                continue
            introduced, left, right = self.split(graph, [s - a for s in svals],
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
    order = sorted(range(len(d.weights)), key=lambda i: d.weights[i], reverse=True)
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
        raise NonConvex("tower and --oracle take polygons and ellipsoids, not curve domains")
    float_data = d.backend == "float"
    chain = ([(_rational(x), _rational(y)) for x, y in profile.chain] if float_data
             else list(profile.chain))
    zero = chain[0][0] - chain[0][0]
    rec = _Recursion(limits or TruncationLimits(), not float_data, d.backend == "exact")
    head, head_introduced, pieces = None, zero, [(chain, None, 3, None, 1)]
    try:
        if convex:  # cut the circumscribed triangle x + y <= c, the head
            svals = [x + y for x, y in chain]
            head = max(svals)
            head_introduced, left, right = rec.split(chain, [head - s for s in svals],
                                                     lambda x, y: head - x - y)
            # corner pieces at (0, c) and (c, 0): the hypotenuse is their x- or y-axis
            pieces = [p for p in ((left, None, 2, ("H0", "H2"), 1),
                                  (right, None, 3, ("H1", "H0"), 1)) if p[0]]
        rec.run(pieces)
    except OverflowError as exc:
        raise BackendOverflow(
            "weight recursion: exact coordinates outgrew the float range; "
            "set truncation limits for irrational data") from exc
    out = float if float_data else (lambda v: v)  # float data rounds once
    tree = WeightTree(
        head=None if head is None else out(head), head_introduced=out(head_introduced),
        roots=tuple(rec.children[None]),
        nodes={i: n._replace(weight=out(n.weight), introduced=out(n.introduced),
                             children=tuple(rec.children[i])) for i, n in rec.nodes.items()},
        truncation=Truncation(
            max_depth=rec.max_depth, eps=rec.eps,
            dropped_tail_sum=out(zero if rec.tail_sum is None else rec.tail_sum),
            dropped_tail_sq=out(zero if rec.tail_sq is None else rec.tail_sq),
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

def linearize(t: WeightTree) -> list[int]:
    """Node ids by weight, descending, ties broken by id.  A child never
    outweighs its parent and has a larger id, so this is the greedy
    ancestors-first order."""
    return sorted(t.nodes, key=lambda i: (-t.nodes[i].weight, i))


def deficiencies(t: WeightTree) -> dict:
    """Per-node deficiency plus the extended node's, keyed by id and INF_NODE."""
    out = {n.id: n.introduced for n in t.nodes.values()}
    out[INF_NODE] = t.head_introduced
    return out


def is_balanced(t: WeightTree, tol=0) -> tuple[bool, list]:
    """True iff every deficiency (including the extended node) is <= tol."""
    offenders = [(key, val) for key, val in deficiencies(t).items() if val > tol]
    offenders.sort(key=lambda kv: kv[1], reverse=True)
    return (not offenders), offenders


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


def weights_to_csv(t: WeightTree, write) -> None:
    """The CSV rows, in chunks to `write`."""
    ws = [t.nodes[i].weight for i in linearize(t)]
    write_csv(write, "# capax-csv v1 weights\nrank,weight\n", range(len(ws)),
              [Column(ws, format_scalar)])
