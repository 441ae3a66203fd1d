"""Reference searches shared by the tests: plain dart adjacencies of the
embedding and a lexicographic search that returns table entries; plus a
graph with parallel edges and zero weights."""

import random

from planarcut.ddg import entry_from_chain
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


def parallel_zero_graph(seed=5):
    """4 x 4 grid with every third edge doubled beside itself (same weight)
    and every fourth edge of weight zero."""
    g = grid_graph(4, 4, rng=random.Random(seed))
    edges = [g.endpoints(e) for e in range(g.m)]
    weights = list(g.weights)
    rotations = [[d >> 1 for d in g.out[v]] for v in range(g.n)]
    for e in range(0, g.m, 3):
        u, v = edges[e]
        twin = len(edges)
        edges.append((u, v))
        weights.append(weights[e])
        rotations[u].insert(rotations[u].index(e) + 1, twin)
        rotations[v].insert(rotations[v].index(e), twin)
    weights = [TieBreakWeight.of(0) if e % 4 == 0 else w
               for e, w in enumerate(weights)]
    return build_embedding(g.n, edges, weights, rotations)
