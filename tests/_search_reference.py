"""Reference searches shared by the tests: plain dart adjacencies of the
embedding, a lexicographic search that returns table entries and a cut
check; graphs with parallel edges and zero weights; an edge cycle chained
into darts; region-tree ancestry by parent walks (descendant tests,
lca, an edge's home region, the bounding-cycle test and the subpiece rule
they give); and graph-file weight tokens read by `Fraction` alone."""

import random
from fractions import Fraction
from math import gcd

from planarcut.ddg import entry_from_chain
from planarcut.errors import InternalAssertion
from planarcut.generators import grid_graph
from planarcut.planar_core import build_embedding
from planarcut.weights import TieBreakWeight, dart_arc, lex_dijkstra


def graph_adjacency(g, edges=None) -> dict:
    """node -> [(head, Arc)] over real darts, optionally restricted to an
    edge set."""
    adj: dict = {}
    for v in range(g.n):
        row = []
        for d in g.out[v]:
            if edges is not None and (d >> 1) not in edges:
                continue
            row.append((g.head[d], dart_arc(g, d)))
        if row:
            adj[v] = row
    return adj


def ddg_dijkstra(adj: dict, sources, targets=None) -> dict:
    """Canonical shortest paths over an adjacency of (head, Arc) pairs.

    Returns {node: Arc} for settled non-source nodes plus
    {source: None}; with `targets`, read only the targets.
    """
    res = lex_dijkstra(lambda v: adj.get(v, ()), sources, targets=targets)
    return {node: entry_from_chain(chain, ()) if chain.nedges > 0 else None
            for node, chain in res.items()}


def removing_disconnects(g, cut, s, t) -> bool:
    """True when deleting the edge set `cut` separates s from t."""
    adj = [[] for _ in range(g.n)]
    for e in range(g.m):
        if e in cut:
            continue
        u, v = g.endpoints(e)
        adj[u].append(v)
        adj[v].append(u)
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return t not in seen


def _with_twins(g, doubled, copies=1):
    """Edges, weights and rotations of `g` with `copies` parallel twins of
    each edge in `doubled`, each twin beside its edge (same weight)."""
    edges = [g.endpoints(e) for e in range(g.m)]
    weights = list(g.weights)
    rotations = [[d >> 1 for d in g.out[v]] for v in range(g.n)]
    for e in doubled:
        u, v = edges[e]
        for _ in range(copies):
            twin = len(edges)
            edges.append((u, v))
            weights.append(weights[e])
            rotations[u].insert(rotations[u].index(e) + 1, twin)
            rotations[v].insert(rotations[v].index(e), twin)
    return edges, weights, rotations


def fraction_weights(tokens) -> tuple[list, int]:
    """(weight keys, scale) of graph-file weight tokens, every token read by
    `Fraction`: the scale is the least common denominator, and each key
    holds its weight times the scale."""
    values = [Fraction(t) for t in tokens]
    scale = 1
    for w in values:
        scale = scale * w.denominator // gcd(scale, w.denominator)
    return [TieBreakWeight.of(int(w * scale)) for w in values], scale


def parallel_zero_graph(seed=5):
    """4 x 4 grid with every third edge doubled beside itself (same weight)
    and every fourth edge of weight zero."""
    g = grid_graph(4, 4, rng=random.Random(seed))
    edges, weights, rotations = _with_twins(g, range(0, g.m, 3))
    weights = [TieBreakWeight.of(0) if e % 4 == 0 else w
               for e, w in enumerate(weights)]
    return build_embedding(g.n, edges, weights, rotations)


def tripled_zero_graph(seed=15):
    """3 x 3 grid where a coin gives each edge three parallel twins, then
    each edge, twins included, weighs zero with probability 0.3."""
    g = grid_graph(3, 3, rng=random.Random(seed))
    r = random.Random(seed * 31 + 7)
    doubled = [e for e in range(g.m) if r.random() < 0.5]
    edges, weights, rotations = _with_twins(g, doubled, copies=3)
    weights = [TieBreakWeight.of(0) if r.random() < 0.3 else w
               for w in weights]
    return build_embedding(g.n, edges, weights, rotations)


def orient_edge_cycle(g, edge_ids) -> list[int]:
    """Chain a set of edges forming a simple cycle into a dart sequence."""
    edges = list(edge_ids)
    incident: dict[int, list[int]] = {}
    for e in edges:
        u, v = g.endpoints(e)
        incident.setdefault(u, []).append(e)
        incident.setdefault(v, []).append(e)
    if any(len(v) != 2 for v in incident.values()):
        raise InternalAssertion("edge set is not a simple cycle")
    e0 = edges[0]
    darts = [2 * e0]
    used = {e0}
    cur = g.head[2 * e0]
    while len(used) < len(edges):
        nxt = None
        for e in incident[cur]:
            if e not in used:
                nxt = e
                break
        if nxt is None:
            raise InternalAssertion("edge set is not a simple cycle")
        d = 2 * nxt if g.tail(2 * nxt) == cur else 2 * nxt + 1
        if g.tail(d) != cur:
            raise InternalAssertion("edge set is not a simple cycle")
        darts.append(d)
        used.add(nxt)
        cur = g.head[d]
    if cur != g.tail(darts[0]):
        raise InternalAssertion("edge set does not close into a cycle")
    return darts


def tree_is_descendant(tree, ancestor, node):
    """Whether `node` lies in the subtree of `ancestor` (inclusively), by
    walking parent pointers up from `node`."""
    x = node
    while x is not None:
        if x == ancestor:
            return True
        x = tree.parent(x)
    return False


def tree_lca(tree, a, b):
    """Nearest common ancestor of two region-tree nodes, by parent walks."""
    above = set()
    x = a
    while x is not None:
        above.add(x)
        x = tree.parent(x)
    x = b
    while x not in above:
        x = tree.parent(x)
    return x


def edge_home_region(tree, e):
    """The lca of an edge's two faces: the region whose closed graph holds
    the edge off its bounding cycle."""
    g = tree.g
    return tree_lca(tree, g.face_of[2 * e], g.face_of[2 * e + 1])


def is_boundary_edge(tree, e, region):
    """Whether e lies on the region's bounding cycle: the region holds
    exactly one of e's faces."""
    g = tree.g
    return (tree_is_descendant(tree, region, g.face_of[2 * e])
            != tree_is_descendant(tree, region, g.face_of[2 * e + 1]))


def region_subpiece_by_home(tree, region, group_edges):
    """The group edges whose home is the region, plus the group edges on
    the region's bounding cycle: the subpiece rule by lca."""
    cyc = tree.cycles.get(region)
    on_cycle = cyc.edge_ids() if cyc is not None else frozenset()
    return {e for e in group_edges
            if edge_home_region(tree, e) == region or e in on_cycle}
