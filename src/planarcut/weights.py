"""Exact tie-breaking weight algebra and lexicographic shortest paths.

Edge weights carry three integer components: a count of infinite-weight
structural edges, an exact scaled base weight, and a count of epsilon-weight
expansion edges.  Ordering is lexicographic on the triple, so no floating
sentinel values are needed anywhere.

Path comparison refines weight order in two further steps so that shortest
paths are unique: first by real edge count, then by the smallest vertex index
that appears on exactly one of the two paths.  Paths with equal weight, equal
length and equal vertex sets are ordered by their dart sequences, which is an
artifact-level total order (the vertex-index rule alone cannot distinguish
parallel edges).
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import EndpointMismatch, NoPath

INDEX_INF = float("inf")


class TieBreakWeight(NamedTuple):
    """Lexicographically ordered (inf_count, base, eps_count) triple.

    `base` is an exact rational scaled to an integer at parse time.  Tuple
    comparison gives exactly the intended order; addition is componentwise.
    """

    inf_count: int
    base: int
    eps_count: int

    def __add__(self, other: "TieBreakWeight") -> "TieBreakWeight":  # type: ignore[override]
        return TieBreakWeight(
            self.inf_count + other.inf_count,
            self.base + other.base,
            self.eps_count + other.eps_count,
        )

    @property
    def is_finite(self) -> bool:
        return self.inf_count == 0

    @classmethod
    def zero(cls) -> "TieBreakWeight":
        return _ZERO

    @classmethod
    def of(cls, base: int) -> "TieBreakWeight":
        return cls(0, base, 0)

    @classmethod
    def infinite(cls) -> "TieBreakWeight":
        return _INF_EDGE

    @classmethod
    def epsilon(cls) -> "TieBreakWeight":
        return _EPS_EDGE


_ZERO = TieBreakWeight(0, 0, 0)
_INF_EDGE = TieBreakWeight(1, 0, 0)
_EPS_EDGE = TieBreakWeight(0, 0, 1)


class Hop:
    """One edge of a search graph: a real dart or a compressed path.

    `interior_min` is the smallest vertex index strictly between the hop's
    endpoints (INDEX_INF when the hop is a single dart).  `expand_darts`
    produces the underlying real dart sequence in travel direction, and
    `expand_interior` the interior vertex indices; both are only called on
    exact weight/length ties or when output is being reported, so they may be
    lazy and recursive.
    """

    __slots__ = ("head", "weight", "nedges", "interior_min", "first_dart",
                 "last_dart", "_expander", "payload")

    def __init__(self, head, weight: TieBreakWeight, nedges: int,
                 interior_min=INDEX_INF, first_dart: int = -1,
                 last_dart: int = -1, expander=None, payload=None):
        self.head = head
        self.weight = weight
        self.nedges = nedges
        self.interior_min = interior_min
        self.first_dart = first_dart
        self.last_dart = last_dart
        self._expander = expander
        self.payload = payload

    def expand_darts(self) -> list[int]:
        if self._expander is None:
            return [self.first_dart]
        return self._expander(self)

    def __repr__(self) -> str:  # debug aid only
        return f"Hop(->{self.head}, w={tuple(self.weight)}, n={self.nedges})"


def dart_hop(head, dart: int, weight: TieBreakWeight) -> Hop:
    return Hop(head, weight, 1, INDEX_INF, dart, dart)


class PathChain:
    """Immutable linked-list node describing a root-to-node search path."""

    __slots__ = ("node", "parent", "hop", "weight", "nedges")

    def __init__(self, node, parent: "PathChain | None", hop: Hop | None,
                 weight: TieBreakWeight, nedges: int):
        self.node = node
        self.parent = parent
        self.hop = hop
        self.weight = weight
        self.nedges = nedges

    @classmethod
    def source(cls, node) -> "PathChain":
        return cls(node, None, None, _ZERO, 0)

    def extend(self, hop: Hop) -> "PathChain":
        return PathChain(hop.head, self, hop, self.weight + hop.weight,
                         self.nedges + hop.nedges)

    def nodes(self) -> list:
        out = []
        c: PathChain | None = self
        while c is not None:
            out.append(c.node)
            c = c.parent
        out.reverse()
        return out

    def hops(self) -> list[Hop]:
        out = []
        c: PathChain | None = self
        while c is not None and c.hop is not None:
            out.append(c.hop)
            c = c.parent
        out.reverse()
        return out

    def darts(self) -> list[int]:
        out: list[int] = []
        for hop in self.hops():
            out.extend(hop.expand_darts())
        return out


def _suffix_entries(chain: PathChain, stop: set[int]) -> list[PathChain]:
    """Chain nodes strictly below the first node whose id is in `stop`."""
    out = []
    c: PathChain | None = chain
    while c is not None and id(c) not in stop:
        out.append(c)
        c = c.parent
    return out


def _suffix_min_index(entries: list[PathChain], index_of) -> float:
    m = INDEX_INF
    for c in entries:
        idx = index_of(c.node)
        if idx < m:
            m = idx
        if c.hop is not None and c.hop.interior_min < m:
            m = c.hop.interior_min
    return m


def _suffix_index_set(entries: list[PathChain], index_of,
                      expand_interior) -> set:
    out = set()
    for c in entries:
        out.add(index_of(c.node))
        if c.hop is not None and c.hop.interior_min is not INDEX_INF:
            out.update(expand_interior(c.hop))
    return out


def compare_chains(a: PathChain, b: PathChain, index_of: Callable,
                   expand_interior: Callable | None = None) -> int:
    """Total order on search paths: weight, edge count, vertex-index rule,
    then dart sequence.  Returns -1, 0 or +1.

    The index rule only ever walks the divergent suffixes: shared prefix nodes
    are the same objects.  When both suffix minima coincide (the vertex lies on
    both paths and cancels in the set difference) the hops are expanded and the
    exact symmetric difference is compared.
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

    sa = _suffix_entries(a, shared)
    sb = _suffix_entries(b, shared)
    ma = _suffix_min_index(sa, index_of)
    mb = _suffix_min_index(sb, index_of)
    if ma != mb:
        # the smaller minimum cannot appear on the other path, so it is in the
        # set difference
        return -1 if ma < mb else 1

    if ma is not INDEX_INF:
        if expand_interior is None:
            expand_interior = _default_expand_interior
        va = _suffix_index_set(sa, index_of, expand_interior)
        vb = _suffix_index_set(sb, index_of, expand_interior)
        only_a = va - vb
        only_b = vb - va
        ia = min(only_a) if only_a else INDEX_INF
        ib = min(only_b) if only_b else INDEX_INF
        if ia != ib:
            return -1 if ia < ib else 1

    da = a.darts()
    db = b.darts()
    if da == db:
        return 0
    return -1 if da < db else 1


def _default_expand_interior(hop: Hop):
    raise NoPath("hop requires an interior expander for exact tie-breaking")


def lex_dijkstra(adj: Callable[[object], Iterable[Hop]],
                 sources: Sequence,
                 index_of: Callable = lambda v: v,
                 expand_interior: Callable | None = None,
                 targets: Iterable | None = None) -> dict:
    """Unique lexicographic shortest-path forest from `sources`.

    `adj(node)` yields Hop objects.  `sources` is a sequence of nodes or
    prebuilt PathChain seeds.  Returns {node: PathChain} for every settled
    node.  With `targets` the search stops once all targets are settled;
    the other nodes it returns then depend on heap order, so callers read
    only the targets.  Deterministic given the adjacency order.

    Edge counts are strictly positive on every hop, so nodes whose keys tie on
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
        chain = s if isinstance(s, PathChain) else PathChain.source(s)
        cur = best.get(chain.node)
        if cur is None or compare_chains(chain, cur, index_of, expand_interior) < 0:
            best[chain.node] = chain
            heapq.heappush(heap, (chain.weight, chain.nedges, seq, chain))
            seq += 1

    while heap:
        chain = heapq.heappop(heap)[3]
        node = chain.node
        if node in settled or best[node] is not chain:
            continue
        settled[node] = chain
        if want is not None:
            want.discard(node)
            if not want:
                break
        weight = chain.weight
        nedges = chain.nedges
        for hop in adj(node):
            head = hop.head
            if head in settled:
                continue
            w = weight + hop.weight
            k = nedges + hop.nedges
            cur = best.get(head)
            if cur is None or w < cur.weight or (w == cur.weight
                                                 and k < cur.nedges):
                cand = PathChain(head, chain, hop, w, k)
            elif w == cur.weight and k == cur.nedges:
                cand = PathChain(head, chain, hop, w, k)
                if compare_chains(cand, cur, index_of, expand_interior) >= 0:
                    continue
            else:
                continue
            best[head] = cand
            heapq.heappush(heap, (w, k, seq, cand))
            seq += 1
    return settled


def compare_paths(g, p: Sequence[int], q: Sequence[int]) -> int:
    """Order two simple vertex paths of the embedding `g` with common
    endpoints.  Returns -1, 0 or +1; 0 only when they use the same edges.

    Walks both vertex sequences once.  Parallel edges between a consecutive
    pair are resolved to the lexicographically smallest (weight, edge id).
    """
    if not p or not q:
        raise EndpointMismatch("empty path")
    if p[0] != q[0] or p[-1] != q[-1]:
        raise EndpointMismatch(f"paths run {p[0]}..{p[-1]} vs {q[0]}..{q[-1]}")

    wp, ep = _path_weight(g, p)
    wq, eq = _path_weight(g, q)
    if wp != wq:
        return -1 if wp < wq else 1
    if len(p) != len(q):
        return -1 if len(p) < len(q) else 1
    sp, sq = set(p), set(q)
    only_p = sp - sq
    only_q = sq - sp
    ip = min(only_p) if only_p else INDEX_INF
    iq = min(only_q) if only_q else INDEX_INF
    if ip != iq:
        return -1 if ip < iq else 1
    if ep == eq:
        return 0
    return -1 if ep < eq else 1


def _path_weight(g, p: Sequence[int]) -> tuple[TieBreakWeight, list[int]]:
    total = TieBreakWeight.zero()
    edges = []
    for u, v in zip(p, p[1:]):
        e = g.cheapest_edge_between(u, v)
        total = total + g.edge_weight(e)
        edges.append(e)
    return total, edges
