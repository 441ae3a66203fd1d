"""Independent reference implementations used to validate the oracle.

Nothing here shares logic with the region-tree machinery: cuts come from a
Dinic max-flow, cut trees from Gusfield's n-1 flow construction, minimum cycle
bases from Horton candidate sets with GF(2) elimination, and separating cycles
from a whole-graph incision search.  All of it works on plain scaled integer
weights and refuses graphs carrying structural infinity or epsilon edges.
"""

from __future__ import annotations

import heapq
from collections import deque

from .errors import InputError, NoPath, SameVertex, TooLarge
from .planar_core import PlanarEmbedding, dual, is_simple_cycle
from .weights import dart_arc, lex_dijkstra, unpack

_UNREACHED = -1


def _plain_weights(g: PlanarEmbedding) -> list[int]:
    ws = []
    for w in g.weights:
        inf, base, zero, eps = unpack(w)
        if inf or zero or eps:
            raise InputError("baselines handle plain finite weights only")
        ws.append(base)
    return ws


# -- max-flow / min-cut --------------------------------------------------------

class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, c: int) -> int:
        a = len(self.to)
        self.to.append(v)
        self.cap.append(c)
        self.adj[u].append(a)
        self.to.append(u)
        self.cap.append(c)       # undirected edge: symmetric capacity
        self.adj[v].append(a + 1)
        return a

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [_UNREACHED] * self.n
            level[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                for a in self.adj[u]:
                    if self.cap[a] > 0 and level[self.to[a]] == _UNREACHED:
                        level[self.to[a]] = level[u] + 1
                        q.append(self.to[a])
            if level[t] == _UNREACHED:
                return flow
            it = [0] * self.n
            # blocking flow with an explicit arc stack
            stack: list[int] = []
            u = s
            while True:
                if u == t:
                    bottleneck = min(self.cap[a] for a in stack)
                    flow += bottleneck
                    for a in stack:
                        self.cap[a] -= bottleneck
                        self.cap[a ^ 1] += bottleneck
                    # restart from the source; pointers stay valid because
                    # saturated arcs fail the capacity test on revisit
                    stack = []
                    u = s
                    continue
                advanced = False
                while it[u] < len(self.adj[u]):
                    a = self.adj[u][it[u]]
                    v = self.to[a]
                    if self.cap[a] > 0 and level[v] == level[u] + 1:
                        stack.append(a)
                        u = v
                        advanced = True
                        break
                    it[u] += 1
                if advanced:
                    continue
                if u == s:
                    break
                level[u] = _UNREACHED
                a = stack.pop()
                u = self.to[a ^ 1]
                it[u] += 1

    def reachable(self, s: int) -> set[int]:
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for a in self.adj[u]:
                if self.cap[a] > 0 and self.to[a] not in seen:
                    seen.add(self.to[a])
                    q.append(self.to[a])
        return seen


def dinic_min_cut(g: PlanarEmbedding, s: int, t: int) -> tuple[int, set[int], set[int]]:
    """(cut value, source-side vertices, crossing edge ids) for s versus t."""
    if s == t:
        raise SameVertex(f"{s}")
    ws = _plain_weights(g)
    net = _Dinic(g.n)
    arc_of_edge = {}
    for e in range(g.m):
        u, v = g.endpoints(e)
        if u == v:
            continue
        arc_of_edge[e] = net.add(u, v, ws[e])
    value = net.max_flow(s, t)
    side = net.reachable(s)
    cut = set()
    for e, a in arc_of_edge.items():
        u, v = g.endpoints(e)
        if (u in side) != (v in side):
            cut.add(e)
    assert sum(ws[e] for e in cut) == value
    return value, side, cut


def min_cut_value(g: PlanarEmbedding, s: int, t: int) -> int:
    return dinic_min_cut(g, s, t)[0]


# -- Gomory-Hu by n-1 flows ----------------------------------------------------

def naive_gomory_hu(g: PlanarEmbedding) -> tuple[list[int], list[int]]:
    """Gusfield's construction.  Returns (parent, weight); parent[0] == -1.

    The tree realizes every pairwise min-cut value as the minimum weight on
    the tree path.
    """
    n = g.n
    parent = [0] * n
    parent[0] = -1
    fl = [0] * n
    for i in range(1, n):
        s = parent[i]
        value, side, _ = dinic_min_cut(g, i, s)
        fl[i] = value
        for j in range(i + 1, n):
            if j in side and parent[j] == s:
                parent[j] = i
        if s != 0 and parent[s] in side:
            parent[i] = parent[s]
            parent[s] = i
            fl[i] = fl[s]
            fl[s] = value
    return parent, fl


def gh_query(parent: list[int], fl: list[int], u: int, v: int) -> int:
    """Minimum weight on the tree path between u and v."""
    if u == v:
        raise SameVertex(f"{u}")
    depth = [0] * len(parent)
    for i in range(len(parent)):
        chain = []
        x = i
        while parent[x] >= 0 and depth[x] == 0:
            chain.append(x)
            x = parent[x]
        for j, y in enumerate(reversed(chain), start=depth[x] + 1):
            depth[y] = j
    best = None
    while u != v:
        if depth[u] < depth[v]:
            u, v = v, u
        best = fl[u] if best is None else min(best, fl[u])
        u = parent[u]
    assert best is not None
    return best


def gh_sorted_weights(parent: list[int], fl: list[int]) -> list[int]:
    return sorted(fl[i] for i in range(len(parent)) if parent[i] >= 0)


# -- minimum cycle basis by Horton candidates ----------------------------------

def brute_mcb(g: PlanarEmbedding,
              max_edges: int = 240) -> tuple[int, list[frozenset[int]]]:
    """(total weight, basis cycles as edge sets), exact for non-negative
    weights.  Candidate cycles are vertex-rooted shortest-path cycles; the
    consistent lexicographic shortest paths make the candidate set complete.
    Raises TooLarge beyond `max_edges` edges."""
    if g.m > max_edges:
        raise TooLarge(f"{g.m} edges > {max_edges}")
    ws = _plain_weights(g)
    dim = g.m - g.n + 1
    if dim == 0:
        return 0, []

    adj_table: list[list] = [[] for _ in range(g.n)]
    for v in range(g.n):
        for d in g.out[v]:
            if g.head[d] != v:
                adj_table[v].append((g.head[d], dart_arc(g, d)))
    adj = lambda v: adj_table[v]

    candidates: dict[frozenset[int], int] = {}

    def offer(edges: frozenset[int]) -> None:
        if edges and edges not in candidates and is_simple_cycle(g, set(edges)):
            candidates[edges] = sum(ws[e] for e in edges)

    for e in range(g.m):
        u, v = g.endpoints(e)
        if u == v:
            offer(frozenset([e]))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            both = g.edges_between(u, v)
            for i in range(len(both)):
                for j in range(i + 1, len(both)):
                    offer(frozenset([both[i], both[j]]))

    for v in range(g.n):
        tree = lex_dijkstra(adj, [v])
        path_edges = {x: frozenset(d >> 1 for d in c.darts())
                      for x, c in tree.items()}
        for e in range(g.m):
            a, b = g.endpoints(e)
            if a == b or a not in path_edges or b not in path_edges:
                continue
            pa, pb = path_edges[a], path_edges[b]
            if e in pa or e in pb or pa & pb:
                continue
            offer(pa | {e} | pb)

    order = sorted(candidates.items(), key=lambda kv: (kv[1], sorted(kv[0])))
    pivots: dict[int, int] = {}
    basis: list[frozenset[int]] = []
    total = 0
    for edges, weight in order:
        mask = 0
        for e in edges:
            mask |= 1 << e
        while mask:
            p = mask.bit_length() - 1
            if p not in pivots:
                pivots[p] = mask
                basis.append(edges)
                total += weight
                break
            mask ^= pivots[p]
        if len(basis) == dim:
            return total, basis
    raise NoPath(f"candidate cycles span only {len(basis)} of {dim} dimensions")


# -- whole-graph incision search ------------------------------------------------

def _int_dijkstra(adj: list[list[tuple[int, int, int]]], src: int,
                  banned: set[int], target: int | None = None) -> tuple[list[int], list[int]]:
    """Plain integer Dijkstra over (to, weight, edge) adjacency, skipping
    banned edge ids.  Returns (dist, via_edge)."""
    n = len(adj)
    dist = [-1] * n
    via = [-1] * n
    heap = [(0, src, -1)]
    while heap:
        du, u, ve = heapq.heappop(heap)
        if dist[u] != -1:
            continue
        dist[u] = du
        via[u] = ve
        if u == target:
            break
        for v, w, e in adj[u]:
            if e in banned or dist[v] != -1:
                continue
            heapq.heappush(heap, (du + w, v, e))
    return dist, via


def whole_graph_reif_cut(g: PlanarEmbedding, s: int, t: int) -> int:
    """Minimum s-t cut weight found as the cheapest dual cycle crossing a
    shortest s-t path exactly once.  Exact for non-negative weights; verified
    against the flow answer in the test-suite."""
    if s == t:
        raise SameVertex(f"{s}")
    ws = _plain_weights(g)
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n)]
    for e in range(g.m):
        u, v = g.endpoints(e)
        if u == v:
            continue
        adj[u].append((v, ws[e], e))
        adj[v].append((u, ws[e], e))
    dist, via = _int_dijkstra(adj, s, set(), target=t)
    if dist[t] < 0:
        raise NoPath(f"{s} to {t}")
    path_edges = []
    x = t
    while x != s:
        e = via[x]
        path_edges.append(e)
        u, v = g.endpoints(e)
        x = u if x == v else v

    dg = dual(g)
    dadj: list[list[tuple[int, int, int]]] = [[] for _ in range(dg.n)]
    for e in range(dg.m):
        u, v = dg.endpoints(e)
        dadj[u].append((v, ws[e], e))
        dadj[v].append((u, ws[e], e))
    banned = set(path_edges)
    best = None
    for e in path_edges:
        fl = dg.head[2 * e + 1]
        fr = dg.head[2 * e]
        ddist, _ = _int_dijkstra(dadj, fl, banned, target=fr)
        if ddist[fr] < 0:
            continue
        cand = ws[e] + ddist[fr]
        if best is None or cand < best:
            best = cand
    if best is None:
        raise NoPath("no crossing cycle found")
    return best
