"""Exact tie-breaking weight keys and lexicographic shortest paths.

An edge weight is one Python int, a key packing four rungs.  From low to
high bits: `eps` (64 bits), the count of epsilon-weight expansion edges;
`zero` (64 bits), the count of host edges standing for zero-weight input
edges, so that one outweighs any pile of epsilons; `base` (256 bits), the
exact base weight, a rational scaled to an integer at parse time; `inf`
(unbounded), the count of infinite-weight structural edges.  Int order is
lexicographic order on (inf, base, zero, eps), and a sum of keys is the
componentwise sum while no rung overflows.  No count reaches 2^63, and
inputs whose total base reaches BASE_LIMIT = 2^255 are refused, so every
sum a search forms (it uses an edge at most twice) stays in range.  Keys
add and compare as plain ints; `unpack` decodes them at the API edge.

Path comparison refines weight order in two further steps so that shortest
paths are unique: first by real edge count, then by the smallest vertex
that lies on exactly one of the two paths.  Paths with equal weight, equal
length and equal vertex sets are ordered by their dart sequences, which is an
artifact-level total order (the vertex rule alone cannot distinguish
parallel edges).  The vertex rung has one reading: each path's vertex set
comes from its arcs (`compare_chains`), whatever the search nodes are.

Every path the searches walk as one edge is an `Arc`: a real dart, or a
compressed path such as a distance-table entry, which expands itself on
demand.  A search adjacency maps a node to (head node, Arc) pairs, so one
arc can serve several search graphs whose nodes differ (host vertices, or
their split copies in a cut-open graph).
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Sequence

COUNT_BITS = 64
BASE_BITS = 256
ZERO_SHIFT = COUNT_BITS
BASE_SHIFT = 2 * COUNT_BITS
INF_SHIFT = BASE_SHIFT + BASE_BITS
BASE_LIMIT = 1 << (BASE_BITS - 1)
_COUNT_MASK = (1 << COUNT_BITS) - 1
_BASE_MASK = (1 << BASE_BITS) - 1

EPS_EDGE = 1
ZERO_EDGE = 1 << ZERO_SHIFT
INF_EDGE = 1 << INF_SHIFT


def unpack(key: int) -> tuple[int, int, int, int]:
    """The (inf, base, zero, eps) rungs of a weight key, high to low."""
    return (key >> INF_SHIFT, (key >> BASE_SHIFT) & _BASE_MASK,
            (key >> ZERO_SHIFT) & _COUNT_MASK, key & _COUNT_MASK)


class TieBreakWeight(int):
    """An input edge weight: a key holding only the base rung.

    Sums of keys are plain ints; this subclass only names the layout.
    """

    __slots__ = ()

    @classmethod
    def of(cls, base: int) -> "TieBreakWeight":
        return cls(base << BASE_SHIFT)

    @property
    def base(self) -> int:
        return unpack(self)[1]


class Arc:
    """One edge of a search graph: a real dart, or a compressed path.

    A real dart has `parts` None (see `dart_arc`).  A compressed path is a
    concatenation of shorter arcs, such as a distance-table entry assembled
    from child entries, with `parts` the tuple of its pieces.  `darts()`
    expands to the host dart sequence in travel direction and
    `interior_vertices()` to the set of vertices strictly between the
    endpoints (empty for a dart); both are memoized, and only deep ties in
    `compare_chains` and the final readout ask for them.  A distance-table
    entry is always direct: no boundary vertex of its piece lies strictly
    inside it (see `ddg`).
    """

    __slots__ = ("src", "dst", "weight", "nedges", "first_dart",
                 "last_dart", "parts", "_darts", "_interior")

    def __init__(self, src, dst, weight: int, nedges: int,
                 first_dart: int, last_dart: int, parts):
        self.src = src
        self.dst = dst
        self.weight = weight
        self.nedges = nedges
        self.first_dart = first_dart
        self.last_dart = last_dart
        self.parts = parts
        self._darts = None
        self._interior = None

    def darts(self) -> list[int]:
        if self._darts is None:
            if self.parts is None:
                self._darts = [self.first_dart]
            else:
                out: list[int] = []
                for p in self.parts:
                    out.extend(p.darts())
                self._darts = out
        return self._darts

    def interior_vertices(self) -> frozenset:
        if self._interior is None:
            if self.parts is None:
                self._interior = frozenset()
            else:
                out = {p.dst for p in self.parts[:-1]}
                for p in self.parts:
                    out.update(p.interior_vertices())
                self._interior = frozenset(out)
        return self._interior

    def __repr__(self) -> str:  # debug aid only
        return f"Arc({self.src}->{self.dst}, w={unpack(self.weight)}, n={self.nedges})"


def dart_arc(g, d: int) -> Arc:
    """The arc of dart `d` of the embedding `g`."""
    return Arc(g.head[d ^ 1], g.head[d], g.weights[d >> 1], 1, d, d, None)


def dart_arcs(g) -> list[Arc]:
    """The arc of every dart of `g`, indexed by dart."""
    return [dart_arc(g, d) for d in range(2 * g.m)]


def dart_adjacency(arcs: list[Arc], edges, adj: dict | None = None) -> dict:
    """Plain-vertex search arcs over both darts of each edge, in edge
    order, appended to `adj` when given; `arcs` is `dart_arcs` of the
    host.  One row per dart, so parallel edges stay apart."""
    if adj is None:
        adj = {}
    for e in sorted(edges):
        for arc in (arcs[2 * e], arcs[2 * e + 1]):
            adj.setdefault(arc.src, []).append((arc.dst, arc))
    return adj


class PathChain:
    """Immutable linked-list node describing a root-to-node search path:
    the search node, the chain it extends and the arc taken to get here."""

    __slots__ = ("node", "parent", "arc", "weight", "nedges")

    def __init__(self, node, parent: "PathChain | None", arc: Arc | None,
                 weight: int, nedges: int):
        self.node = node
        self.parent = parent
        self.arc = arc
        self.weight = weight
        self.nedges = nedges

    @classmethod
    def source(cls, node) -> "PathChain":
        return cls(node, None, None, 0, 0)

    def nodes(self) -> list:
        out = []
        c: PathChain | None = self
        while c is not None:
            out.append(c.node)
            c = c.parent
        out.reverse()
        return out

    def arcs(self) -> list[Arc]:
        out = []
        c: PathChain | None = self
        while c is not None and c.arc is not None:
            out.append(c.arc)
            c = c.parent
        out.reverse()
        return out

    def darts(self) -> list[int]:
        out: list[int] = []
        for arc in self.arcs():
            out.extend(arc.darts())
        return out


def _suffix_vertices(chain: PathChain, stop: set[int]) -> set:
    """Vertices of the chain nodes strictly below the first node whose id is
    in `stop`, each read from the arc that entered it (a source node is its
    own vertex), plus the interiors of those arcs."""
    out = set()
    c: PathChain | None = chain
    while c is not None and id(c) not in stop:
        arc = c.arc
        if arc is None:
            out.add(c.node)
        else:
            out.add(arc.dst)
            if arc.parts is not None:
                out.update(arc.interior_vertices())
        c = c.parent
    return out


def compare_chains(a: PathChain, b: PathChain) -> int:
    """Total order on search paths: weight, edge count, vertex rule, then
    dart sequence.  Returns -1, 0 or +1.

    The vertex rule only ever walks the divergent suffixes: shared prefix
    nodes are the same objects, and their vertices cancel in the symmetric
    difference.  The path holding the smallest vertex of that difference
    comes first.
    """
    if a.weight != b.weight:
        return -1 if a.weight < b.weight else 1
    if a.nedges != b.nedges:
        return -1 if a.nedges < b.nedges else 1

    a_ids = set()
    c: PathChain | None = a
    while c is not None:
        a_ids.add(id(c))
        c = c.parent
    # walk b back to the first shared node object (may be None for
    # multi-source fronts rooted at different vertices)
    shared: set[int] = set()
    c = b
    while c is not None:
        if id(c) in a_ids:
            shared.add(id(c))
            # everything above the first shared node is shared too
            c = c.parent
            while c is not None:
                shared.add(id(c))
                c = c.parent
            break
        c = c.parent

    va = _suffix_vertices(a, shared)
    vb = _suffix_vertices(b, shared)
    if va != vb:
        return -1 if min(va ^ vb) in va else 1

    da = a.darts()
    db = b.darts()
    if da == db:
        return 0
    return -1 if da < db else 1


def lex_dijkstra(adj: Callable[[object], Iterable[tuple[object, Arc]]],
                 sources: Sequence,
                 targets: Iterable | None = None,
                 bound: tuple[int, int] | None = None) -> dict:
    """Unique lexicographic shortest-path forest from `sources`.

    `adj(node)` yields (head node, Arc) pairs; the head is the search node
    the arc enters, which need not be the arc's `dst` vertex itself (see
    the cut-open universe in `sep_cycle`), but it stands for that vertex:
    ties read vertices from the arcs, and a source node is its own vertex.
    `sources` is a sequence of distinct nodes, each starting at key zero.
    Returns {node: PathChain} for every settled node.  With `targets` the
    search stops once all targets are settled; the other nodes it returns
    then depend on heap order, so callers read only the targets.  With
    `bound` = (weight, nedges) the search stops once the smallest key on
    the heap is strictly above it, so it settles exactly the nodes of the
    unbounded search whose key is at most `bound`.  Deterministic given the
    adjacency order.

    Edge counts are strictly positive on every arc, so nodes whose keys tie on
    (weight, nedges) never relax each other and heap order within such a tie
    class cannot affect the result: the heap orders it by insertion.  A
    candidate is compared in full, and allocated, only when its
    (weight, nedges) beats or ties the node's best so far.
    """
    best: dict = {}
    settled: dict = {}
    heap: list = []
    seq = 0
    want = set(targets) if targets is not None else None

    for s in sources:
        chain = best[s] = PathChain.source(s)
        heapq.heappush(heap, (0, 0, seq, chain))
        seq += 1

    while heap:
        weight, nedges, _, chain = heapq.heappop(heap)
        if bound is not None and (weight, nedges) > bound:
            break
        node = chain.node
        if node in settled or best[node] is not chain:
            continue
        settled[node] = chain
        if want is not None:
            want.discard(node)
            if not want:
                break
        for head, arc in adj(node):
            if head in settled:
                continue
            w = weight + arc.weight
            k = nedges + arc.nedges
            cur = best.get(head)
            if cur is None or w < cur.weight or (w == cur.weight
                                                 and k < cur.nedges):
                cand = PathChain(head, chain, arc, w, k)
            elif w == cur.weight and k == cur.nedges:
                cand = PathChain(head, chain, arc, w, k)
                if compare_chains(cand, cur) >= 0:
                    continue
            else:
                continue
            best[head] = cand
            heapq.heappush(heap, (w, k, seq, cand))
            seq += 1
    return settled
