"""Dense distance graphs over a recursive subdivision.

Every piece gets a table of unique lexicographic shortest paths between its
boundary vertices: the internal table restricts paths to the piece's own
edges, the external table to everything outside the piece.  Internal tables
are assembled bottom-up by running the lexicographic Dijkstra over the
children's tables; external tables run top-down over the parent's external
table plus the sibling internal tables.

A table entry is a compressed path.  It remembers its weight, real edge
count, end darts and smallest interior vertex, and it can expand to the exact
host dart sequence on demand (memoized); expansion is also what the path
comparison falls back to on deep ties, so composed tables reproduce the very
same canonical paths that a direct search on the underlying subgraph finds.

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
from .planar_core import PlanarEmbedding
from .subdivision import Subdivision
from .weights import INDEX_INF, Hop, PathChain, lex_dijkstra


class DDGEntry:
    """Compressed canonical shortest path between two host vertices."""

    __slots__ = ("src", "dst", "weight", "nedges", "interior_min",
                 "first_dart", "last_dart", "parts", "direct", "_darts",
                 "_interior")

    def __init__(self, src, dst, weight, nedges, interior_min,
                 first_dart, last_dart, parts, direct=True):
        self.src = src
        self.dst = dst
        self.weight = weight
        self.nedges = nedges
        self.interior_min = interior_min
        self.first_dart = first_dart
        self.last_dart = last_dart
        self.parts = parts          # None for a single real dart
        self.direct = direct        # see the module docstring
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

    def interior_vertices(self) -> set:
        if self._interior is None:
            if self.parts is None:
                self._interior = set()
            else:
                acc = set()
                for p in self.parts[:-1]:
                    acc.update(p.interior_vertices())
                    acc.add(p.dst)
                acc.update(self.parts[-1].interior_vertices())
                self._interior = acc
        return self._interior

    def __repr__(self) -> str:  # debug aid only
        return f"DDGEntry({self.src}->{self.dst}, w={tuple(self.weight)}, n={self.nedges})"


def entry_hop(entry: DDGEntry) -> Hop:
    return Hop(entry.dst, entry.weight, entry.nedges, entry.interior_min,
               entry.first_dart, entry.last_dart,
               expander=_expand_hop, payload=entry)


def _expand_hop(hop: Hop) -> list[int]:
    return hop.payload.darts()


def hop_interior(hop: Hop) -> set:
    if hop.payload is None:
        return set()
    return hop.payload.interior_vertices()


def dart_entry(g: PlanarEmbedding, d: int) -> DDGEntry:
    e = d >> 1
    return DDGEntry(g.tail(d), g.head[d], g.weights[e], 1, INDEX_INF, d, d, None)


def entry_from_chain(chain: PathChain, boundary) -> DDGEntry:
    """Table entry for a search chain of table arcs.

    A one-arc chain is the arc's own entry.  A longer chain gets a new entry
    that is direct when none of its intermediate nodes is in `boundary`.
    """
    parts = [hop.payload for hop in chain.hops()]
    if any(p is None for p in parts):
        raise InternalAssertion("search hop without a table entry payload")
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
    return DDGEntry(parts[0].src, parts[-1].dst, chain.weight, chain.nedges,
                    interior_min, parts[0].first_dart, parts[-1].last_dart,
                    parts, direct)


Table = dict  # (src, dst) -> DDGEntry, src != dst, directed


def table_adjacency(tables) -> dict:
    """Search arcs over entry tables: the direct entries as a node -> [Hop]
    map, in deterministic order."""
    adj: dict = {}
    for table in tables:
        for (a, _b), entry in table.items():
            if entry.direct:
                adj.setdefault(a, []).append(entry_hop(entry))
    return adj


def _all_pairs(adj: dict, boundary) -> Table:
    """Canonical paths over `adj` between every ordered pair of `boundary`
    vertices, one search per source."""
    table: Table = {}
    bset = set(boundary)
    blist = sorted(bset)
    arcs = lambda v: adj.get(v, ())
    for s in blist:
        got = lex_dijkstra(arcs, [s], expand_interior=hop_interior,
                           targets=blist)
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


def build_ddgs(sd: Subdivision, with_ext: bool = True) -> DDGSet:
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
                        table[(u, v)] = dart_entry(g, 2 * e)
                        table[(v, u)] = dart_entry(g, 2 * e + 1)
                ddg.int_tables[pid] = table
            else:
                children = [ddg.int_tables[c] for c in piece.children]
                adj = table_adjacency(children)
                ddg.int_tables[pid] = _all_pairs(adj, piece.boundary)
                ddg.stats["dijkstra_sources"] += len(piece.boundary)
            ddg.stats["int_entries"] += len(ddg.int_tables[pid])

    if not with_ext:
        return ddg

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
