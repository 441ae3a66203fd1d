"""Reference searches shared by the tests: plain dart adjacencies of the
embedding and a lexicographic search that returns table entries."""

from planarcut.ddg import dart_entry, entry_from_chain, entry_hop, hop_interior
from planarcut.weights import lex_dijkstra


def graph_adjacency(g, edges=None) -> dict:
    """node -> [Hop] over real darts, optionally restricted to an edge set."""
    adj: dict = {}
    for v in range(g.n):
        row = []
        for d in g.out[v]:
            if edges is not None and (d >> 1) not in edges:
                continue
            row.append(entry_hop(dart_entry(g, d)))
        if row:
            adj[v] = row
    return adj


def ddg_dijkstra(adj: dict, sources, targets=None) -> dict:
    """Canonical shortest paths over an adjacency of entry hops.

    Returns {node: DDGEntry} for settled non-source nodes plus
    {source: None}; with `targets`, read only the targets.
    """
    res = lex_dijkstra(lambda v: adj.get(v, ()), sources,
                       expand_interior=hop_interior, targets=targets)
    return {node: entry_from_chain(chain, ()) if chain.nedges > 0 else None
            for node, chain in res.items()}
