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

Splits work on host vertex and edge ids.  `Subdivision.edge_leaf` is the
edge owner array: it starts as all 0, the root, and each new child writes
its id over its edges.  Pieces split in FIFO order, so the piece being
split owns exactly the edges that name it, and its BFS passes walk host
rotations keeping the darts whose edge it owns.  Once the queue is empty
every edge is owned by its one-edge leaf.
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

    @property
    def tabled(self) -> bool:
        """Whether the piece gets its distance tables up front (see R)."""
        return self.parent < 0 or len(self.edges) > R


class Subdivision:
    def __init__(self, g: PlanarEmbedding):
        self.g = g
        self.pieces: list[Piece] = []
        self.root = 0
        # edge -> owning piece; the leaf once the build is done
        self.edge_leaf: list[int] = [0] * g.m
        self.stats: dict = {"fallback_splits": 0, "level_splits": 0}

    def levels(self) -> list[list[int]]:
        depth = max((p.depth for p in self.pieces), default=0)
        out: list[list[int]] = [[] for _ in range(depth + 1)]
        for p in self.pieces:
            out[p.depth].append(p.id)
        return out

    def hole_faces(self, pid: int) -> int:
        """Faces of the piece's own embedding that touch its boundary,
        traced on the host's rotations cut down to the piece's darts."""
        g = self.g
        piece = self.pieces[pid]
        inside = set(piece.edges)
        bset = set(piece.boundary)
        rot = {v: [d for d in g.out[v] if d >> 1 in inside]
               for v in piece.vertices}
        seen: set[int] = set()
        holes = 0
        for d0 in (2 * e + k for e in piece.edges for k in (0, 1)):
            touches = False
            d = d0
            while d not in seen:
                seen.add(d)
                v = g.head[d]
                touches = touches or v in bset
                d = rot[v][(rot[v].index(d ^ 1) + 1) % len(rot[v])]
            holes += touches
        return holes


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
            for e in child.edges:
                sd.edge_leaf[e] = child.id
            queue.append(child.id)
    _check_partition(sd)
    depths = [p.depth for p in sd.pieces]
    sd.stats["pieces"] = len(sd.pieces)
    sd.stats["depth"] = max(depths)
    sd.stats["max_boundary"] = max(len(p.boundary) for p in sd.pieces)
    tabled = [p for p in sd.pieces if p.tabled]
    sd.stats["boundary_square_sum"] = sum(len(p.boundary) ** 2
                                          for p in tabled)
    sd.stats["max_boundary_ratio"] = round(max(
        len(p.boundary) / len(p.edges) ** 0.5 for p in tabled), 3)
    return sd


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


def _bfs_farthest(g: PlanarEmbedding, owner: list[int], pid: int,
                  start: int) -> tuple[int, dict[int, int]]:
    """The last vertex a BFS from `start` over the edges that `owner`
    gives to piece `pid` reaches, and the hop distance of every vertex it
    reaches."""
    head = g.head
    out = g.out
    dist = {start: 0}
    q = deque([start])
    last = start
    while q:
        u = q.popleft()
        last = u
        for d in out[u]:
            if owner[d >> 1] == pid:
                v = head[d]
                if v not in dist:
                    dist[v] = dist[u] + 1
                    q.append(v)
    return last, dist


def _level_split(sd: Subdivision, piece: Piece) -> list[set[int]] | None:
    """Connected children of a piece's best BFS level cut, or None when no
    level keeps both sides under the balance cap.  Levels are counted from
    either end of an approximate diameter.  An edge lies below level L when
    its nearer endpoint does; the cut vertices of L are the level-L
    vertices with an edge at or above L."""
    g = sd.g
    head = g.head
    owner = sd.edge_leaf
    pid = piece.id
    bset = set(piece.boundary)
    cap = max(2, (len(piece.edges) * 17) // 20)
    a, _ = _bfs_farthest(g, owner, pid, piece.vertices[0])
    b, dist_a = _bfs_farthest(g, owner, pid, a)
    _, dist_b = _bfs_farthest(g, owner, pid, b)
    best = None
    for dist in (dist_a, dist_b):
        got = _best_level(head, piece.edges, dist, bset, cap)
        if got is not None and (best is None or got[:2] < best[:2]):
            best = got + (dist,)
    if best is None:
        return None
    _, _, level, dist = best
    below, above = set(), set()
    for e in piece.edges:
        near = min(dist[head[2 * e + 1]], dist[head[2 * e]])
        (below if near < level else above).add(e)
    # the edges below a level reach the source through BFS tree edges
    return [below] + _connected_edge_groups(g, above)


def _best_level(head: list[int], edges: list[int], dist: dict[int, int],
                boundary: set[int], cap: int) -> tuple[int, int, int] | None:
    """(largest side boundary, larger side's edges, level) of the best cut
    of `edges` under `cap`, scored for every level by prefix sums in
    O(n + m).  `dist` holds the level of every vertex of `edges`, and
    `boundary` their inherited boundary vertices."""
    m = len(edges)
    top = max(dist.values())
    below_at = [0] * (top + 1)     # edges by nearer-endpoint level
    # level of a vertex's highest edge: its parent edge's at least
    reach = {v: max(d - 1, 0) for v, d in dist.items()}
    for e in edges:
        u = head[2 * e + 1]
        v = head[2 * e]
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
    for v, d in dist.items():
        if v in boundary:
            held_at[d] += 1
            held_reach[reach[v]] += 1
        elif reach[v] == d:
            cut_at[d] += 1
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
    owner = sd.edge_leaf
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
                if owner[e2] == piece.id and e2 not in seen:
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
    for e, pid in enumerate(sd.edge_leaf):
        if sd.pieces[pid].edges != [e]:
            raise InternalAssertion(f"edge {e} is not owned by its leaf")
