"""Dense distance graphs over a recursive subdivision.

Every piece gets a table of unique lexicographic shortest paths between its
boundary vertices: the internal table restricts paths to the piece's own
edges, the external table to everything outside the piece.  Internal tables
are assembled bottom-up by running the lexicographic Dijkstra over the
children's tables; external tables run top-down over the parent's external
table plus the sibling internal tables.

A table entry is an `Arc` (see `weights`): a real dart at the leaves, above
them the tuple of the entries its search chain took.  It remembers its
weight, real edge count, end darts and smallest interior vertex, and it can
expand to the exact host dart sequence on demand (the one memo it keeps) or
walk its parts to its interior vertices (kept nowhere); expansion is also
what the path comparison falls back to on deep ties, so composed
tables reproduce the very same canonical paths that a direct search on the
underlying subgraph finds.  The entries themselves are the search arcs.

Tables hold only *direct* entries: no boundary vertex of the piece that
owns the table lies strictly inside the entry's path.  This loses no path.
Subpaths of a canonical path are canonical, so a canonical path of piece c
split at every boundary vertex of c it passes is a chain of direct entries
of c, and a search over direct entries meets every host path exactly once,
without comparing a path against another decomposition of itself.

An arc is direct in its own table, and a boundary vertex of the piece being
assembled that lies on the arc's path is also a boundary vertex of the
arc's own piece (a child for an internal table; the parent's exterior or a
sibling for an external one).  So a search chain is direct exactly when
none of its intermediate nodes is a boundary vertex; a one-arc chain is its
arc's own entry.  Other chains get no entry.
"""

from __future__ import annotations

from .errors import InternalAssertion
from .subdivision import Subdivision
from .weights import Arc, PathChain, dart_arc, lex_dijkstra


def entry_from_chain(chain: PathChain, boundary) -> Arc | None:
    """Table entry for a search chain of table arcs, or None when an
    intermediate node of the chain is in `boundary`.  A one-arc chain is
    the arc's own entry.  The walk from the chain's end stops at the first
    boundary node."""
    last = chain.arc
    parts = [last]
    interior_min = last.interior_min
    c = chain.parent
    while c.arc is not None:
        if c.node in boundary:
            return None
        if c.node < interior_min:
            interior_min = c.node
        arc = c.arc
        if arc.interior_min < interior_min:
            interior_min = arc.interior_min
        parts.append(arc)
        c = c.parent
    if len(parts) == 1:
        return last
    parts.reverse()
    return Arc(parts[0].src, last.dst, chain.weight, chain.nedges,
               interior_min, parts[0].first_dart, last.last_dart, tuple(parts))


Table = dict  # (src, dst) -> Arc, src != dst, directed


def table_adjacency(tables) -> dict:
    """Search arcs over entry tables as a node -> [(head, Arc)] map, in
    deterministic order."""
    adj: dict = {}
    for table in tables:
        for (a, b), entry in table.items():
            adj.setdefault(a, []).append((b, entry))
    return adj


def _all_pairs(adj: dict, boundary) -> Table:
    """Direct canonical paths over `adj` between ordered pairs of
    `boundary` vertices, one search per source."""
    table: Table = {}
    bset = set(boundary)
    blist = sorted(bset)
    arcs = lambda v: adj.get(v, ())
    for s in blist:
        got = lex_dijkstra(arcs, [s], targets=blist)
        for t in blist:
            chain = got.get(t)
            if t == s or chain is None:
                continue
            entry = entry_from_chain(chain, bset)
            if entry is None:
                continue
            if entry.src != s or entry.dst != t:
                raise InternalAssertion("table entry endpoints drifted")
            table[(s, t)] = entry
    return table


class DDGSet:
    __slots__ = ("sd", "int_tables", "ext_tables", "stats")

    def __init__(self, sd: Subdivision):
        self.sd = sd
        self.int_tables: list[Table | None] = [None] * len(sd.pieces)
        self.ext_tables: list[Table | None] = [None] * len(sd.pieces)
        self.stats = {"int_entries": 0, "ext_entries": 0, "dijkstra_sources": 0}


def build_ddgs(sd: Subdivision) -> DDGSet:
    ddg = DDGSet(sd)
    g = sd.g
    levels = sd.levels()

    for level in reversed(levels):
        for pid in level:
            piece = sd.pieces[pid]
            if piece.is_leaf:
                table: Table = {}
                if piece.edges:
                    e = piece.edges[0]
                    u, v = g.endpoints(e)
                    bset = set(piece.boundary)
                    if u != v and u in bset and v in bset:
                        table[(u, v)] = dart_arc(g, 2 * e)
                        table[(v, u)] = dart_arc(g, 2 * e + 1)
                ddg.int_tables[pid] = table
            else:
                children = [ddg.int_tables[c] for c in piece.children]
                adj = table_adjacency(children)
                ddg.int_tables[pid] = _all_pairs(adj, piece.boundary)
                ddg.stats["dijkstra_sources"] += len(piece.boundary)
            ddg.stats["int_entries"] += len(ddg.int_tables[pid])

    for level in levels:
        for pid in level:
            piece = sd.pieces[pid]
            if piece.parent < 0:
                ddg.ext_tables[pid] = {}
                continue
            parent = sd.pieces[piece.parent]
            around = [ddg.ext_tables[parent.id]]
            for sib in parent.children:
                if sib != pid:
                    around.append(ddg.int_tables[sib])
            adj = table_adjacency(around)
            ddg.ext_tables[pid] = _all_pairs(adj, piece.boundary)
            ddg.stats["dijkstra_sources"] += len(piece.boundary)
            ddg.stats["ext_entries"] += len(ddg.ext_tables[pid])
    return ddg
