"""Dense distance graphs over a recursive subdivision.

Every piece gets a table of unique lexicographic shortest paths between its
boundary vertices: the internal table restricts paths to the piece's own
edges, the external table to everything outside the piece.  Internal tables
are assembled bottom-up by running the lexicographic Dijkstra over the
children's tables; external tables run top-down over the parent's external
table plus the sibling internal tables.

Only big pieces (`Piece.tabled`: the root and those with more than
`subdivision.R` edges) get their tables up front (`build_ddgs`); they are
most of the search work and few of the pieces.  A small piece gets its
tables on first use (`DDGSet.int_table`, `DDGSet.ext_table`), and only the
level loop's fast engine asks for them.  Wherever a small piece would enter
a search as its internal table it enters as its real darts instead, one
adjacency row per dart, so parallel edges stay apart.  A small piece's
internal table is a search over its own darts.  Its external table is a
search over its exterior graph (`DDGSet.ext_graph`): the real darts of A
minus the piece plus the external table of A, where A is its nearest
ancestor that already has an external table.  That search is exact: a
canonical path outside the piece, split at the boundary vertices of A it
passes, is a chain of real darts of A and of direct entries of A's external
table; and an interior vertex of such an entry is touched only by edges
outside A, so it is never a boundary vertex of the piece (every one of
those is touched by a piece edge).  Every table therefore holds the same
paths whichever way it was built.  A one-edge leaf gets no external table:
the fast engine's call for it searches the exterior graph once, from one
end of the edge to the other (see `sep_cycle`).

A table entry is an `Arc` (see `weights`): a real dart at the leaves, above
them the tuple of the entries its search chain took.  It remembers its
weight, real edge count and end darts, and it expands on demand, memoized,
to the exact host dart sequence and to its interior vertex set.  Deep ties
in the path comparison read those expansions, so composed tables reproduce
the very same canonical paths that a direct search on the underlying
subgraph finds.  The entries themselves are the search arcs.

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
from .subdivision import Piece, Subdivision
from .weights import Arc, PathChain, dart_adjacency, dart_arcs, lex_dijkstra


def entry_from_chain(chain: PathChain, boundary) -> Arc | None:
    """Table entry for a search chain of table arcs, or None when an
    intermediate node of the chain is in `boundary`.  A one-arc chain is
    the arc's own entry.  The walk from the chain's end stops at the first
    boundary node."""
    last = chain.arc
    parts = [last]
    c = chain.parent
    while c.arc is not None:
        if c.node in boundary:
            return None
        parts.append(c.arc)
        c = c.parent
    if len(parts) == 1:
        return last
    parts.reverse()
    return Arc(parts[0].src, last.dst, chain.weight, chain.nedges,
               parts[0].first_dart, last.last_dart, tuple(parts))


Table = dict  # (src, dst) -> Arc, src != dst, directed


def table_adjacency(tables, adj: dict | None = None) -> dict:
    """Search arcs over entry tables as a node -> [(head, Arc)] map, in
    deterministic order, appended to `adj` when given."""
    if adj is None:
        adj = {}
    for table in tables:
        for (a, b), entry in table.items():
            adj.setdefault(a, []).append((b, entry))
    return adj


def _all_pairs(arcs, boundary) -> Table:
    """Direct canonical paths between ordered pairs of `boundary` vertices
    over the search graph `arcs` (node -> rows), one search per source."""
    table: Table = {}
    bset = set(boundary)
    blist = sorted(bset)
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


def _rows(adj: dict):
    """The node -> rows search graph of an adjacency map."""
    return lambda v: adj.get(v, ())


class DDGSet:
    """The internal and external table of every piece, read through
    `int_table` and `ext_table`.  A small piece's tables are built by the
    first call that asks for them and kept; `ext_graph` is the search graph
    its external table tabulates.  `arcs` holds the arc of every host dart,
    shared by every search over real darts."""

    __slots__ = ("sd", "arcs", "_int", "_ext", "_ext_adj", "stats")

    def __init__(self, sd: Subdivision):
        self.sd = sd
        self.arcs = dart_arcs(sd.g)
        self._int: list[Table | None] = [None] * len(sd.pieces)
        self._ext: list[Table | None] = [None] * len(sd.pieces)
        # ancestor id -> search graph of its external table plus its darts
        self._ext_adj: dict[int, dict] = {}
        self.stats = {"int_entries": 0, "ext_entries": 0,
                      "dijkstra_sources": 0, "first_use_tables": 0}

    def int_table(self, pid: int) -> Table:
        table = self._int[pid]
        if table is None:
            piece = self.sd.pieces[pid]
            adj = dart_adjacency(self.arcs, piece.edges)
            table = self._int[pid] = self._tabulate(_rows(adj), piece,
                                                    "int_entries")
            self.stats["first_use_tables"] += 1
        return table

    def ext_table(self, pid: int) -> Table:
        table = self._ext[pid]
        if table is None:
            piece = self.sd.pieces[pid]
            table = self._ext[pid] = self._tabulate(
                self.ext_graph(pid), piece, "ext_entries")
            self.stats["first_use_tables"] += 1
        return table

    def ext_graph(self, pid: int):
        """Search graph of everything outside small piece `pid`, as a
        node -> rows callable: the real darts of A minus the piece plus the
        external table of A, where A is the nearest ancestor with an
        external table.  The graph of A is built once and kept; the piece's
        own vertices get filtered rows on top of it."""
        pieces = self.sd.pieces
        piece = pieces[pid]
        a = pieces[piece.parent]
        while self._ext[a.id] is None:
            a = pieces[a.parent]
        base = self._ext_adj.get(a.id)
        if base is None:
            base = self._ext_adj[a.id] = dart_adjacency(
                self.arcs, a.edges, table_adjacency([self._ext[a.id]]))
        # the piece's darts leave its own vertices; an entry of ext(A)
        # starts on an edge outside A, so it stays
        inside = set(piece.edges)
        own = {v: [(h, arc) for h, arc in base[v]
                   if (arc.first_dart >> 1) not in inside]
               for v in piece.vertices}

        def rows(v):
            r = own.get(v)
            return base.get(v, ()) if r is None else r
        return rows

    def _tabulate(self, arcs, piece: Piece, kind: str) -> Table:
        table = _all_pairs(arcs, piece.boundary)
        self.stats["dijkstra_sources"] += len(piece.boundary)
        self.stats[kind] += len(table)
        return table

    def _piece_arcs(self, pids, adj: dict) -> dict:
        """Append to `adj` the search arcs of pieces `pids`: a big piece's
        internal table entries, a small piece's real darts."""
        pieces = self.sd.pieces
        for c in pids:
            if not pieces[c].tabled:
                dart_adjacency(self.arcs, pieces[c].edges, adj)
            else:
                table_adjacency([self._int[c]], adj)
        return adj


def build_ddgs(sd: Subdivision) -> DDGSet:
    """Tables of every big piece: internal ones bottom-up, external ones
    top-down.  A big piece's parent is big too, so its external table is
    always there when a child needs it."""
    ddg = DDGSet(sd)
    levels = sd.levels()

    for level in reversed(levels):
        for pid in level:
            piece = sd.pieces[pid]
            if piece.tabled:
                adj = ddg._piece_arcs(piece.children, {})
                ddg._int[pid] = ddg._tabulate(_rows(adj), piece,
                                              "int_entries")

    for level in levels:
        for pid in level:
            piece = sd.pieces[pid]
            if piece.parent < 0:
                ddg._ext[pid] = {}
            elif piece.tabled:
                parent = sd.pieces[piece.parent]
                adj = table_adjacency([ddg._ext[parent.id]])
                ddg._piece_arcs([c for c in parent.children if c != pid], adj)
                ddg._ext[pid] = ddg._tabulate(_rows(adj), piece,
                                              "ext_entries")
    return ddg
