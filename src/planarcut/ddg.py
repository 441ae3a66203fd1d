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

Only *direct* entries feed the searches.  An entry is direct when no
boundary vertex of the piece that owns its table lies strictly inside its
path.  This loses no path: subpaths of a canonical path are canonical, so an
entry s -> t of table c that passes through x in the boundary of c equals
entry (s, x) followed by entry (x, t) of the same table.  Splitting a host
path at every boundary vertex it passes therefore gives exactly one chain of
direct arcs, and the search still meets every host path once, now without
comparing a path against another decomposition of itself.

The flag costs one pass over the search chain.  An arc is direct in its own
table, and a boundary vertex of the piece being assembled that lies on the
arc's path is also a boundary vertex of the arc's own piece (a child for an
internal table; the parent's exterior or a sibling for an external one).
So no arc hides a boundary vertex of the new piece: a new entry is direct
exactly when no intermediate node of its chain is a boundary vertex, and a
one-arc chain reuses its arc's entry, which is direct in the new table too.
Tables still hold every pair, for the readers outside this module.
"""

from __future__ import annotations

from .errors import InternalAssertion
from .subdivision import Subdivision
from .weights import Arc, PathChain, dart_arc, lex_dijkstra


def entry_from_chain(chain: PathChain, boundary) -> Arc:
    """Table entry for a search chain of table arcs.

    A one-arc chain is the arc's own entry.  A longer chain gets a new entry
    that is direct when none of its intermediate nodes is in `boundary`.
    """
    parts = tuple(chain.arcs())
    if len(parts) == 1:
        return parts[0]
    interior_min = parts[-1].interior_min
    direct = True
    for p in parts[:-1]:
        if p.interior_min < interior_min:
            interior_min = p.interior_min
        if p.dst < interior_min:
            interior_min = p.dst
        if p.dst in boundary:
            direct = False
    return Arc(parts[0].src, parts[-1].dst, chain.weight, chain.nedges,
               interior_min, parts[0].first_dart, parts[-1].last_dart,
               parts, direct)


Table = dict  # (src, dst) -> Arc, src != dst, directed


def table_adjacency(tables) -> dict:
    """Search arcs over entry tables: the direct entries as a
    node -> [(head, Arc)] map, in deterministic order."""
    adj: dict = {}
    for table in tables:
        for (a, b), entry in table.items():
            if entry.direct:
                adj.setdefault(a, []).append((b, entry))
    return adj


def _all_pairs(adj: dict, boundary) -> Table:
    """Canonical paths over `adj` between every ordered pair of `boundary`
    vertices, one search per source."""
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
