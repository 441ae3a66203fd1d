"""Recursive balanced subdivision of an embedded planar graph into pieces.

A piece is a connected edge subset of the host graph; children partition their
parent's edges.  DDG assembly relies only on that partition property and on
boundaries, never on how a split is chosen, so the split rule is a policy:
it is there to keep boundaries small, and with them the distance tables.

Every piece splits by its best BFS level cut.  Levels are counted from either
end of an approximate diameter; the cut at level L puts an edge below when
its nearer endpoint lies below L.  One pass over the distance array scores
every level by prefix sums: the larger of the two sides' boundaries,
inherited boundary vertices and cut vertices alike.  The best level under the
17/20 cap wins.  On a long strip the levels cut across it.  A level cut reads
only adjacency, so no split builds faces.

A piece that no level splits under the cap, such as parallel edges between
two vertices (all of them lie below level 1), falls back to a plain connected
edge bipartition by BFS edge order.

Boundary vertices are always recomputed from global incidence: a vertex is
boundary for a piece exactly when some edge outside the piece touches it,
that is, when fewer than all of its darts are piece darts.
"""

from __future__ import annotations

from collections import deque

from .errors import InternalAssertion
from .planar_core import PlanarEmbedding

# pieces of more than R edges, and the root, get their distance tables up
# front; smaller ones get theirs on first use (see `ddg`).  8 to 32 built
# equally fast, and 24 did the least table work (CHANGES.md)
R = 24


class Piece:
    __slots__ = ("id", "parent", "children", "edges", "vertices", "boundary",
                 "depth")

    def __init__(self, pid: int, parent: int, edges: list[int], depth: int):
        self.id = pid
        self.parent = parent
        self.children: list[int] = []
        self.edges = edges                  # sorted host edge ids
        self.vertices: list[int] = []       # sorted host vertex ids
        self.boundary: list[int] = []       # sorted host vertex ids
        self.depth = depth

    @property
    def is_leaf(self) -> bool:
        return not self.children


class SubPiece:
    """Embedded subgraph of the host induced by a piece's edges."""

    __slots__ = ("sub", "v_host", "e_host")

    def __init__(self, sub: PlanarEmbedding, v_host: list[int],
                 e_host: list[int]):
        self.sub = sub
        self.v_host = v_host
        self.e_host = e_host


class Subdivision:
    def __init__(self, g: PlanarEmbedding):
        self.g = g
        self.pieces: list[Piece] = []
        self.root = 0
        self.edge_leaf: list[int] = [-1] * g.m
        self.stats: dict = {"fallback_splits": 0, "level_splits": 0}

    def levels(self) -> list[list[int]]:
        depth = max((p.depth for p in self.pieces), default=0)
        out: list[list[int]] = [[] for _ in range(depth + 1)]
        for p in self.pieces:
            out[p.depth].append(p.id)
        return out

    def subpiece(self, pid: int) -> SubPiece:
        """The embedded subgraph of one piece, built afresh on each call."""
        g = self.g
        v_host, e_host, head, out = _local_indices(g, self.pieces[pid])
        sub = PlanarEmbedding(len(v_host), head, out,
                              [g.weights[e] for e in e_host], g.scale)
        return SubPiece(sub, v_host, e_host)

    def hole_faces(self, pid: int) -> int:
        """Faces of the piece's own embedding that touch its boundary."""
        sp = self.subpiece(pid)
        bset = set(self.pieces[pid].boundary)
        return sum(1 for orbit in sp.sub.faces
                   if any(sp.v_host[sp.sub.head[d]] in bset for d in orbit))


def _local_indices(g: PlanarEmbedding, piece: Piece) -> tuple[
        list[int], list[int], list[int], list[list[int]]]:
    """A piece in local indices, as (v_host, e_host, head, out): local
    vertex i is host vertex v_host[i], local edge j is host edge e_host[j]
    with darts 2j and 2j + 1, and out keeps the host's rotation order."""
    v_host = piece.vertices
    v_sub = {h: i for i, h in enumerate(v_host)}
    e_host = piece.edges
    e_sub = {h: i for i, h in enumerate(e_host)}
    out: list[list[int]] = []
    for hv in v_host:
        row = []
        for d in g.out[hv]:
            se = e_sub.get(d >> 1)
            if se is not None:
                row.append(2 * se + (d & 1))
        out.append(row)
    head = [0] * (2 * len(e_host))
    for se, he in enumerate(e_host):
        head[2 * se] = v_sub[g.head[2 * he]]
        head[2 * se + 1] = v_sub[g.head[2 * he + 1]]
    return v_host, e_host, head, out


# -- recursive construction ------------------------------------------------------

def recursive_subdivide(g: PlanarEmbedding) -> Subdivision:
    """Piece tree over g down to single-edge leaves."""
    sd = Subdivision(g)
    root = Piece(0, -1, sorted(range(g.m)), 0)
    sd.pieces.append(root)
    _set_vertices(g, root)

    queue = deque([0])
    while queue:
        pid = queue.popleft()
        piece = sd.pieces[pid]
        if len(piece.edges) <= 1:
            if piece.edges:
                sd.edge_leaf[piece.edges[0]] = pid
            continue
        groups, rule = _split(sd, piece)
        # a group holding the whole piece would requeue it forever
        if any(len(part) >= len(piece.edges) for part in groups):
            raise InternalAssertion(f"split of piece {pid} made no progress")
        sd.stats[rule] += 1
        for part in groups:
            child = Piece(len(sd.pieces), pid, sorted(part), piece.depth + 1)
            sd.pieces.append(child)
            piece.children.append(child.id)
            _set_vertices(g, child)
            queue.append(child.id)
    _check_partition(sd)
    depths = [p.depth for p in sd.pieces]
    sd.stats["pieces"] = len(sd.pieces)
    sd.stats["depth"] = max(depths)
    sd.stats["max_boundary"] = max(len(p.boundary) for p in sd.pieces)
    tabled = [p for p in sd.pieces if _is_tabled(p)]
    sd.stats["boundary_square_sum"] = sum(len(p.boundary) ** 2
                                          for p in tabled)
    sd.stats["max_boundary_ratio"] = round(max(
        len(p.boundary) / len(p.edges) ** 0.5 for p in tabled), 3)
    return sd


def _is_tabled(piece: Piece) -> bool:
    return piece.parent < 0 or len(piece.edges) > R


def _split(sd: Subdivision, piece: Piece) -> tuple[list[set[int]], str]:
    """Connected children of a piece, and the stat key of the rule that
    made them: the best BFS level cut, else the fallback."""
    level = _level_split(sd, piece)
    if level is not None:
        return level, "level_splits"
    return _fallback_split(sd, piece), "fallback_splits"


def _dart_counts(g: PlanarEmbedding, edges) -> dict[int, int]:
    """Vertex -> number of its darts that belong to `edges`."""
    darts: dict[int, int] = {}
    for e in edges:
        u = g.head[2 * e + 1]
        v = g.head[2 * e]
        darts[u] = darts.get(u, 0) + 1
        darts[v] = darts.get(v, 0) + 1
    return darts


def _set_vertices(g: PlanarEmbedding, piece: Piece) -> None:
    """Vertices and boundary of a piece from one pass over its edges: a
    vertex is boundary when fewer than all of its darts are piece darts."""
    darts = _dart_counts(g, piece.edges)
    piece.vertices = sorted(darts)
    piece.boundary = [v for v in piece.vertices if darts[v] < len(g.out[v])]


def _connected_edge_groups(g: PlanarEmbedding, edges: set[int]) -> list[set[int]]:
    remaining = set(edges)
    groups = []
    while remaining:
        seed = next(iter(remaining))
        comp = {seed}
        remaining.discard(seed)
        stack = [seed]
        while stack:
            e = stack.pop()
            for x in g.endpoints(e):
                for d in g.out[x]:
                    e2 = d >> 1
                    if e2 in remaining:
                        remaining.discard(e2)
                        comp.add(e2)
                        stack.append(e2)
        groups.append(comp)
    return groups


def _bfs_farthest(head: list[int], out: list[list[int]],
                  start: int) -> tuple[int, list[int]]:
    dist = [-1] * len(out)
    dist[start] = 0
    q = deque([start])
    last = start
    while q:
        u = q.popleft()
        last = u
        for d in out[u]:
            v = head[d]
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    return last, dist


def _level_split(sd: Subdivision, piece: Piece) -> list[set[int]] | None:
    """Connected children of a piece's best BFS level cut, or None when no
    level keeps both sides under the balance cap.  Levels are counted from
    either end of an approximate diameter.  An edge lies below level L when
    its nearer endpoint does; the cut vertices of L are the level-L
    vertices with an edge at or above L."""
    v_host, e_host, head, out = _local_indices(sd.g, piece)
    bset = set(piece.boundary)
    inherited = [h in bset for h in v_host]
    cap = max(2, (len(e_host) * 17) // 20)
    a, _ = _bfs_farthest(head, out, 0)
    b, dist_a = _bfs_farthest(head, out, a)
    _, dist_b = _bfs_farthest(head, out, b)
    best = None
    for dist in (dist_a, dist_b):
        got = _best_level(head, dist, inherited, cap)
        if got is not None and (best is None or got[:2] < best[:2]):
            best = got + (dist,)
    if best is None:
        return None
    _, _, level, dist = best
    below, above = set(), set()
    for he, u, v in zip(e_host, head[1::2], head[::2]):
        (below if min(dist[u], dist[v]) < level else above).add(he)
    # the edges below a level reach the source through BFS tree edges
    return [below] + _connected_edge_groups(sd.g, above)


def _best_level(head: list[int], dist: list[int], inherited: list[bool],
                cap: int) -> tuple[int, int, int] | None:
    """(largest side boundary, larger side's edges, level) of the best cut
    under `cap`, scored for every level by prefix sums in O(n + m)."""
    m = len(head) // 2
    top = max(dist)
    below_at = [0] * (top + 1)     # edges by nearer-endpoint level
    # level of a vertex's highest edge: its parent edge's at least
    reach = [max(d - 1, 0) for d in dist]
    for u, v in zip(head[1::2], head[::2]):
        du = dist[u]
        dv = dist[v]
        if du <= dv:
            below_at[du] += 1
            reach[u] = du
        if dv <= du:
            if dv < du:
                below_at[dv] += 1
            reach[v] = dv
    held_at = [0] * (top + 1)      # inherited boundary vertices by level
    held_reach = [0] * (top + 1)   # ... by the level of their highest edge
    cut_at = [0] * (top + 1)       # other vertices cut at their own level
    for v in range(len(dist)):
        if inherited[v]:
            held_at[dist[v]] += 1
            held_reach[reach[v]] += 1
        elif reach[v] == dist[v]:
            cut_at[dist[v]] += 1
    best = None
    below = 0
    held_below = held_at[0]
    held_above = sum(held_at)
    for level in range(1, top + 1):
        below += below_at[level - 1]
        if below == m:
            break
        held_below += held_at[level]
        held_above -= held_reach[level - 1]
        larger = max(below, m - below)
        if larger > cap:
            continue
        got = (max(held_below, held_above) + cut_at[level], larger, level)
        if best is None or got < best:
            best = got
    return best


def _fallback_split(sd: Subdivision, piece: Piece) -> list[set[int]]:
    """Connected halves by a BFS edge order."""
    g = sd.g
    edge_set = set(piece.edges)
    order = []
    seen = set()
    start = piece.edges[0]
    q = deque([start])
    seen.add(start)
    while q:
        e = q.popleft()
        order.append(e)
        for x in g.endpoints(e):
            for d in g.out[x]:
                e2 = d >> 1
                if e2 in edge_set and e2 not in seen:
                    seen.add(e2)
                    q.append(e2)
    half = len(order) // 2
    first, second = set(order[:half]), set(order[half:])
    groups = []
    for part in (first, second):
        groups.extend(_connected_edge_groups(g, part))
    return groups


def _check_partition(sd: Subdivision) -> None:
    for piece in sd.pieces:
        if piece.is_leaf:
            continue
        combined: list[int] = []
        for c in piece.children:
            combined.extend(sd.pieces[c].edges)
        if sorted(combined) != piece.edges:
            raise InternalAssertion(f"children of piece {piece.id} do not partition it")
    if any(l < 0 for l in sd.edge_leaf):
        raise InternalAssertion("some edge has no leaf piece")
