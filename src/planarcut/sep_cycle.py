"""Minimum cycles separating two faces, found as shortest paths after
cutting the host open along a face-to-face path.

A minimum-weight cycle separating faces f and g must cross any shortest
path X between the two face boundaries, and with lexicographic weights the
crossing is unique.  Cutting the host open along X (each path vertex split
into a side-0 and a side-1 copy) turns every once-crossing cycle through a
path vertex x into a simple path from (x, 0) to (x, 1).  The minimum over
all crossing vertices is the wanted cycle.

Two engines share this machinery.  The safe engine searches the full edge
set of a region and is quadratic per call.  The fast engine searches one
subdivision piece plus precomputed distance-table arcs for everything
outside it; arcs whose hidden path touches X are expanded into their real
edges so that crossings inside them stay visible, and every cycle, closed
through the piece exterior or not, is found by the same crossing sweep.
A one-edge leaf needs neither X nor the sweep: every cycle separating the
two faces of its edge e contains e, so the cycle is e plus the canonical
path between e's ends outside the piece, one search (the edge-plus-path
cycle form of Horton's cycle basis algorithm).  Both engines return the
same cycle in canonical dart form.
"""

from __future__ import annotations

from .ddg import table_adjacency
from .errors import InternalAssertion, NoPath
from .planar_core import PlanarEmbedding
from .region_tree import CompactCycle, RegionTree, region_subpiece
from .weights import (PathChain, compare_chains, dart_adjacency, dart_arcs,
                      lex_dijkstra)


class FallbackNeeded(Exception):
    """The table-backed engine cannot serve this request; the caller should
    redo it with the whole-region engine."""


def new_stats() -> dict:
    return {"dijkstras": 0, "candidates": 0, "expanded_arcs": 0,
            "compact_arcs": 0}


# ---------------------------------------------------------------------------
# cutting open along a path


def _corner_position(g: PlanarEmbedding, v: int, face: int) -> float:
    """Fractional rotation slot of the corner of `face` at vertex `v`.

    The corner between out-darts rot[p] and rot[p + 1] belongs to the face
    left of rot[p], so it sits at position p + 0.5.
    """
    rot = g.out[v]
    for p, d in enumerate(rot):
        if g.face_of[d ^ 1] == face:
            return p + 0.5
    raise InternalAssertion(f"face {face} has no corner at vertex {v}")


class XCut:
    """A simple face-to-face path with every vertex split into two sides.

    Side 0 of a path vertex is the clockwise interval of its rotation from
    the exit dart to the entry dart.  At the two path endpoints the entry
    and exit positions are the corners of the separated faces, placed at
    fractional slots, so cycles passing through an endpoint are still split
    on the correct side.  A zero-length path (the faces share a vertex) is
    allowed and yields a single split vertex.
    """

    __slots__ = ("g", "darts", "edges", "order", "vset", "_pos")

    def __init__(self, g: PlanarEmbedding, darts, start: int,
                 face_a: int, face_b: int):
        self.g = g
        self.darts = list(darts)
        self.edges = frozenset(d >> 1 for d in self.darts)
        order = [start]
        for d in self.darts:
            if g.head[d ^ 1] != order[-1]:
                raise InternalAssertion("cut path darts do not chain")
            order.append(g.head[d])
        if len(set(order)) != len(order):
            raise InternalAssertion("cut path revisits a vertex")
        self.order = order
        self.vset = frozenset(order)
        last = len(order) - 1
        pos = {}
        for i, v in enumerate(order):
            if i == 0:
                q_in = _corner_position(g, v, face_a)
            else:
                q_in = float(g.slot_of[self.darts[i - 1] ^ 1])
            if i == last:
                q_out = _corner_position(g, v, face_b)
            else:
                q_out = float(g.slot_of[self.darts[i]])
            if q_in == q_out:
                raise InternalAssertion("degenerate cut corner")
            pos[v] = (q_in, q_out)
        self._pos = pos

    def __contains__(self, v: int) -> bool:
        return v in self._pos

    def side_of(self, v: int, d: int) -> int:
        """Side of dart `d` leaving path vertex `v` (0 for the clockwise
        interval from the exit dart to the entry dart)."""
        q_in, q_out = self._pos[v]
        s = self.g.slot_of[d]
        if s == q_in or s == q_out:
            raise InternalAssertion("side query for a cut path dart")
        if q_out < q_in:
            return 0 if q_out < s < q_in else 1
        return 0 if (s > q_out or s < q_in) else 1


def _cut_node(xcut: XCut, v: int, d: int):
    """Universe node for vertex `v` entered or left through dart `d`
    (with tail(d) == v)."""
    if v in xcut:
        return (v, xcut.side_of(v, d))
    return v


class CutUniverse:
    """Adjacency oracle over the cut-open search graph, built once from its
    real edge set and its compact arcs.

    Nodes are host vertices, except cut path vertices which appear as
    (v, side) copies; a copy stands for its vertex, which is the `dst` of
    every arc entering it, so path comparison needs no node map.  Real
    edges are traversed dart by dart; darts leaving a copy must lie on its
    side, and cut path edges connect equal-side copies.  Compact table arcs
    attach to the copies matching their end darts and are expanded only
    during tie-breaking and final readout.  A row pairs each arc with the
    node it enters, so a table entry serves here as it is.  The sweep
    starts from every cut path vertex, and each lies on a real edge: a
    table arc that the cut path takes touches it and is expanded, and the
    vertex of a zero-length path is a seed on a group edge.
    """

    __slots__ = ("g", "xcut", "real", "dart_arcs", "arcs", "_adj")

    def __init__(self, g: PlanarEmbedding, xcut: XCut, real_edges: set,
                 dart_arcs: list, compact_arcs):
        self.g = g
        self.xcut = xcut
        self.real = real_edges
        self.dart_arcs = dart_arcs
        self.arcs = {}
        for arc in compact_arcs:
            src = _cut_node(xcut, arc.src, arc.first_dart)
            dst = _cut_node(xcut, arc.dst, arc.last_dart ^ 1)
            self.arcs.setdefault(src, []).append((dst, arc))
        self._adj = {}

    def adjacency(self, node):
        rows = self._adj.get(node)
        if rows is None:
            rows = self._build(node)
            self._adj[node] = rows
        return rows

    def _build(self, node) -> list:
        g = self.g
        x = self.xcut
        if type(node) is tuple:
            v, side = node
        else:
            v, side = node, None
        rows = []
        for d in g.out[v]:
            e = d >> 1
            if e not in self.real:
                continue
            w = g.head[d]
            if e in x.edges:
                # an edge of the cut path survives once per side
                if side is None:
                    raise InternalAssertion("plain node incident to cut path")
                rows.append(((w, side), self.dart_arcs[d]))
                continue
            if side is not None and x.side_of(v, d) != side:
                continue
            rows.append((_cut_node(x, w, d ^ 1), self.dart_arcs[d]))
        rows.extend(self.arcs.get(node, ()))
        return rows


# ---------------------------------------------------------------------------
# candidate cycles and their total order


def _canonical_darts(darts) -> tuple:
    """Smallest dart tuple over both orientations and all rotations of a
    simple cycle."""
    best = None
    for seq in (darts, [d ^ 1 for d in reversed(darts)]):
        i = seq.index(min(seq))
        rot = tuple(seq[i:]) + tuple(seq[:i])
        if best is None or rot < best:
            best = rot
    return best


def _is_simple(g: PlanarEmbedding, darts) -> bool:
    """True when the closed walk `darts` repeats no edge and no vertex."""
    return (len({d >> 1 for d in darts}) == len(darts)
            and len({g.head[d] for d in darts}) == len(darts))


def _beats(g: PlanarEmbedding, a: CompactCycle, b: CompactCycle) -> bool:
    """Same tie-break ladder as path comparison: weight, edge count, then
    the smaller uncommon vertex index, the smaller uncommon edge id, and
    finally the canonical dart tuple."""
    if a.weight != b.weight:
        return a.weight < b.weight
    if a.nedges != b.nedges:
        return a.nedges < b.nedges
    va, vb = frozenset(a.vertices(g)), frozenset(b.vertices(g))
    if va != vb:
        return min(va ^ vb) in va
    ea, eb = a.edge_ids(), b.edge_ids()
    if ea != eb:
        return min(ea ^ eb) in ea
    return a.darts() < b.darts()


def _crossing_sweep(universe: CutUniverse,
                    stats: dict) -> CompactCycle | None:
    """One shortest-path run per crossing vertex, from its side-0 copy to
    its side-1 copy.  Returns the best simple cycle found, with canonical
    darts.

    Each run is bounded by the incumbent's (weight, nedges): a run stopped
    by the bound would reach its target at a larger key, so its cycle could
    neither win nor tie."""
    g = universe.g
    best = None
    for x in universe.xcut.order:
        bound = None if best is None else (best.weight, best.nedges)
        res = lex_dijkstra(universe.adjacency, [(x, 0)], targets=[(x, 1)],
                           bound=bound)
        stats["dijkstras"] += 1
        chain = res.get((x, 1))
        if chain is None or chain.nedges == 0:
            continue
        stats["candidates"] += 1
        darts = chain.darts()
        # a closed walk that reuses an edge or a vertex decomposes into the
        # simple winner plus nonnegative slack, so it can be dropped outright
        if not _is_simple(g, darts):
            continue
        cand = CompactCycle(g, _canonical_darts(darts))
        if best is None or _beats(g, cand, best):
            best = cand
    return best


# ---------------------------------------------------------------------------
# shared path search helpers


def _face_seed_vertices(g: PlanarEmbedding, face: int, edges) -> list:
    seeds = set()
    for d in g.faces[face]:
        if (d >> 1) in edges:
            seeds.add(g.head[d])
            seeds.add(g.head[d ^ 1])
    return sorted(seeds)


def _best_target_chain(res: dict, targets) -> PathChain | None:
    best = None
    for t in targets:
        chain = res.get(t)
        if chain is None:
            continue
        if best is None or compare_chains(chain, best) < 0:
            best = chain
    return best


# ---------------------------------------------------------------------------
# safe engine: search the whole region


def min_separating_cycle_safe(g: PlanarEmbedding, tree: RegionTree,
                              region: int, face_a: int, face_b: int,
                              stats: dict) -> CompactCycle:
    """Minimum cycle separating two faces of one region, searching every
    region edge.  Independent of the subdivision and distance tables."""
    edges = region_subpiece(tree, region, range(g.m))

    arcs = dart_arcs(g)
    adj = dart_adjacency(arcs, edges)
    seeds = _face_seed_vertices(g, face_a, edges)
    targets = _face_seed_vertices(g, face_b, edges)
    if not seeds or not targets:
        raise InternalAssertion("separated faces have no region edges")

    res = lex_dijkstra(lambda v: adj.get(v, ()), seeds, targets=targets)
    stats["dijkstras"] += 1
    chain = _best_target_chain(res, targets)
    if chain is None:
        raise NoPath(f"faces {face_a} and {face_b} not connected in region")

    xcut = XCut(g, chain.darts(), chain.nodes()[0], face_a, face_b)
    best = _crossing_sweep(CutUniverse(g, xcut, edges, arcs, ()), stats)
    if best is None:
        raise NoPath(f"no cycle separates faces {face_a} and {face_b}")
    return best


# ---------------------------------------------------------------------------
# fast engine: one piece of the subdivision plus distance-table arcs


class PieceContext:
    """Search context for separating-pair queries against one edge group of
    one subdivision piece.

    The group is the union of the piece children currently being merged (or
    the piece's own edges at the leaf level).  Siblings are the children
    outside the group; their interiors are represented by their internal
    distance tables, and everything outside the piece by the piece's
    external table.  A one-edge group, a leaf's, reads no table: its cycle
    is one search over the piece's exterior graph (`DDGSet.ext_graph`), so
    `ext_table` stays None.
    """

    def __init__(self, g: PlanarEmbedding, tree: RegionTree, sd, ddgs,
                 piece_id: int, group_edges, sibling_ids=()):
        self.g = g
        self.tree = tree
        self.ddgs = ddgs
        self.piece_id = piece_id
        self.arcs = ddgs.arcs
        self.group_edges = frozenset(group_edges)
        self.sibling_ids = list(sibling_ids)
        self.sib_edges = [frozenset(sd.pieces[c].edges)
                          for c in self.sibling_ids]
        self.sib_tables = [ddgs.int_table(c) for c in self.sibling_ids]
        self.ext_table = None
        if len(self.group_edges) > 1 or self.sibling_ids:
            self.ext_table = ddgs.ext_table(piece_id)
        self.edge_sibling = {}
        for i, edges in enumerate(self.sib_edges):
            for e in edges:
                self.edge_sibling.setdefault(e, i)


def _arc_touches_cut(entry, xcut: XCut, exact: bool) -> bool:
    """True when the arc's hidden path shares an edge end or an interior
    vertex with the cut path, so side bookkeeping inside it matters.

    Without `exact` the caller vouches that no interior vertex of the arc
    is on the cut path (see `min_separating_cycle_fast`), so only the end
    darts are checked.  With `exact` the parts are walked down to darts.
    """
    if (entry.first_dart >> 1) in xcut.edges:
        return True
    if (entry.last_dart >> 1) in xcut.edges:
        return True
    if entry.parts is None or not exact:
        return False
    vset = xcut.vset
    stack = [entry]
    while stack:
        parts = stack.pop().parts
        for p in parts[:-1]:
            if p.dst in vset:
                return True
        stack.extend(p for p in parts if p.parts is not None)
    return False


def _group_path_adjacency(ctx: PieceContext, real_edges) -> dict:
    """Plain-vertex adjacency for the X search: the group's real darts plus
    compact arcs over the sibling interiors and the piece exterior."""
    return table_adjacency(ctx.sib_tables + [ctx.ext_table],
                           dart_adjacency(ctx.arcs, real_edges))


def _one_edge_cycle(ctx: PieceContext, face_a: int, face_b: int,
                    stats: dict) -> CompactCycle:
    """The cycle of a one-edge group: its edge plus the canonical path
    between the edge's ends over the piece's exterior graph, searched in
    the direction of the crossing sweep (see `min_separating_cycle_fast`).
    """
    g = ctx.g
    (e,) = ctx.group_edges
    d = 2 * e
    if g.head[d] < g.head[d ^ 1]:
        d ^= 1
    x, y = g.head[d ^ 1], g.head[d]
    # d leaves x: on side 0 the sweep's walk starts with it, else it ends
    # with its reverse
    if XCut(g, [], x, face_a, face_b).side_of(x, d) == 0:
        src, dst, first, last = y, x, [d], []
    else:
        src, dst, first, last = x, y, [], [d ^ 1]
    res = lex_dijkstra(ctx.ddgs.ext_graph(ctx.piece_id), [src],
                       targets=[dst])
    stats["dijkstras"] += 1
    chain = res.get(dst)
    if chain is None:
        raise FallbackNeeded("the edge's ends are not joined outside it")
    stats["candidates"] += 1
    darts = first + chain.darts() + last
    if not _is_simple(g, darts):
        raise FallbackNeeded("the edge's cycle is not simple")
    return CompactCycle(g, _canonical_darts(darts))


def min_separating_cycle_fast(ctx: PieceContext, region: int,
                              face_a: int, face_b: int,
                              stats: dict) -> CompactCycle:
    """Minimum cycle separating two faces of `region`, searching the
    region's subpiece directly and everything else through table arcs.

    The sibling tables not entered by X, then the piece's external table,
    feed the universe the same way: entries touching X are expanded into
    their real edges, the others enter as compact arcs.  Tables hold only
    direct entries (see `ddg`), and this is exact.  A canonical path s->t
    of a table's piece that passes through boundary vertices of the piece
    is the chain of direct entries of the same table split at those
    vertices, since canonical paths have canonical subpaths.  Each part
    either touches X and is expanded, or enters as a compact arc on the
    side copies its end darts pick, which are the copies the cut-open walk
    along the whole path visits.  So the optimal cycle is still in the
    universe, and every universe arc spells a real cut-open path.

    Whether an entry touches X is decided from piece facts, without vertex
    sets.  Its end darts are checked against X's edges.  Inside, recall
    that a vertex is in the boundary of a piece exactly when an edge
    outside the piece touches it.  Every X vertex is touched by an X edge
    or, when X is a single vertex, by the group edge that made it a seed.
    - A sibling S that X does not enter.  An interior vertex of an entry of
      S lies on a path of S edges and, the entry being direct, not in the
      boundary of S, so only S edges touch it.  An X vertex is touched by
      an X edge or a group edge, which is outside S, so it is no such
      vertex.
    - The external table of the piece P, when every X edge lies in P.  An
      interior vertex of an external entry is touched only by edges
      outside P, and an X vertex by an edge in P.  Again only the end
      darts can meet X.
    - When X uses an external arc it has edges outside P, and the external
      entries are walked part by part.

    A one-edge group, a leaf's call, is one search (`_one_edge_cycle`).
    Its faces are the two faces of its edge e, and every cycle separating
    them contains e (Jordan curve), so the cycle is e plus the canonical
    path between e's ends over the piece's exterior graph: the real darts
    of A minus e plus the external table of A, A the nearest ancestor that
    has one.  The search walks the cycle the way the sweep would, so it
    returns the sweep's own walk.  The X search would pick the end
    x = min(u, v) by the vertex-index rule, and the sweep would run from
    side 0 of x to side 1.  So when e's dart leaving x is on side 0 the
    search runs from the other end y to x and e comes first; otherwise it runs
    from x to y and e comes last.  The other direction would give the same
    cycle.  Weight, edge count and the vertex-set rule do not depend on
    direction.  Keys grow strictly along a path, since every arc adds an
    edge, so tied shortest paths with one vertex set visit it in one order
    and differ only in parallel edges, which the chord pass can add.  Their
    tied set is then a product of choices at each place, and the
    dart-sequence rule takes the smallest edge id at each place from either
    end.
    """
    g = ctx.g
    if ctx.ext_table is None:
        return _one_edge_cycle(ctx, face_a, face_b, stats)

    real = region_subpiece(ctx.tree, region, ctx.group_edges)
    seeds = _face_seed_vertices(g, face_a, real)
    targets = _face_seed_vertices(g, face_b, real)
    if not seeds or not targets:
        raise FallbackNeeded("pair faces have no edges in the group")
    adj = _group_path_adjacency(ctx, real)
    res = lex_dijkstra(lambda v: adj.get(v, ()), seeds, targets=targets)
    stats["dijkstras"] += 1
    chain = _best_target_chain(res, targets)
    if chain is None:
        raise FallbackNeeded("face boundaries not connected through tables")

    xcut = XCut(g, chain.darts(), chain.nodes()[0], face_a, face_b)

    # sibling pieces entered by X contribute their real edges; their tables
    # would hide the crossings
    touched = {ctx.edge_sibling[e] for e in xcut.edges
               if e in ctx.edge_sibling}
    for i in touched:
        real.update(ctx.sib_edges[i])
    leaves_piece = any(e not in ctx.group_edges and e not in ctx.edge_sibling
                       for e in xcut.edges)
    tables = [(t, False) for i, t in enumerate(ctx.sib_tables)
              if i not in touched]
    tables.append((ctx.ext_table, leaves_piece))
    compact = []
    for table, exact in tables:
        for entry in table.values():
            if _arc_touches_cut(entry, xcut, exact):
                real.update(d >> 1 for d in entry.darts())
                stats["expanded_arcs"] += 1
            else:
                compact.append(entry)
    stats["compact_arcs"] += len(compact)

    best = _crossing_sweep(CutUniverse(g, xcut, real, ctx.arcs, compact),
                           stats)
    if best is None:
        raise FallbackNeeded("no separating cycle in the table universe")
    return best
