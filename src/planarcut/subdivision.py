"""Recursive balanced subdivision of an embedded planar graph into pieces.

A piece is a connected edge subset of the host graph; children partition their
parent's edges.  A split of more than three edges tries a fundamental-cycle
separator: a BFS tree from an approximate center is interdigitated with the
dual spanning tree over the piece's faces, so each non-tree edge's enclosed
face weight is a subtree sum available in O(1).  The best few candidates are
re-scored exactly by an edge partition and the most balanced one wins, unless
a child would hold more than 17/20 of the piece's edges.  Face weights
alternate by depth between edge count and boundary-vertex count, which keeps
boundaries from concentrating in one child.

A tabled piece (more than `R` edges, or the root) gets its distance tables up
front, at about one search per boundary vertex over its children's tables
(see `ddg`), so its split also weighs BFS level cuts by the boundaries they
make.  Levels are counted from either end of an approximate diameter; the cut
at level L puts an edge below when its nearer endpoint lies below L.  One
pass over the distance array scores every level by prefix sums: the larger
of the two sides' boundaries, inherited boundary vertices and cut vertices
alike.  The best level under the 17/20 cap wins when that boundary is
strictly smaller than the cycle separator's largest child boundary.  On a
long strip the cycles run along the strip and the levels cut across it.

A piece with neither falls back to a plain connected edge bipartition by BFS
edge order, which keeps the construction correct (DDG assembly relies only
on the partition property and on boundaries, never on balance).  Pieces of at
most `R` edges keep the cycle-or-fallback rule: scoring level cuts there made
the subdivision slower and the builds no faster (CHANGES.md).

Boundary vertices are always recomputed from global incidence: a vertex is
boundary for a piece exactly when some edge outside the piece touches it,
that is, when fewer than all of its darts are piece darts.
"""

from __future__ import annotations

from collections import deque

from .errors import Disconnected, InternalAssertion
from .planar_core import PlanarEmbedding

_EXACT_CANDIDATES = 8

# pieces of more than R edges, and the root, get their distance tables up
# front (see `ddg`), and only their splits weigh BFS level cuts; 8 to 32
# built equally fast, and 24 did the least table work (CHANGES.md)
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
        self.stats: dict = {"fallback_splits": 0, "separator_splits": 0,
                            "level_splits": 0}

    def levels(self) -> list[list[int]]:
        depth = max((p.depth for p in self.pieces), default=0)
        out: list[list[int]] = [[] for _ in range(depth + 1)]
        for p in self.pieces:
            out[p.depth].append(p.id)
        return out

    def subpiece(self, pid: int) -> SubPiece:
        """The embedded subgraph of one piece, built afresh on each call."""
        return _build_subpiece(self.g, self.pieces[pid])

    def hole_faces(self, pid: int) -> int:
        """Faces of the piece's own embedding that touch its boundary."""
        sp = self.subpiece(pid)
        bset = set(self.pieces[pid].boundary)
        return sum(1 for orbit in sp.sub.faces
                   if any(sp.v_host[sp.sub.head[d]] in bset for d in orbit))


def _build_subpiece(g: PlanarEmbedding, piece: Piece) -> SubPiece:
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
    sub = PlanarEmbedding(len(v_host), head, out,
                          [g.weights[e] for e in e_host], g.scale)
    return SubPiece(sub, v_host, e_host)


# -- separator ------------------------------------------------------------------

def _bfs_farthest(sub: PlanarEmbedding, start: int) -> tuple[int, list[int]]:
    dist = [-1] * sub.n
    dist[start] = 0
    q = deque([start])
    last = start
    while q:
        u = q.popleft()
        last = u
        for d in sub.out[u]:
            v = sub.head[d]
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    return last, dist


def _bfs_tree_from_center(sub: PlanarEmbedding) -> list[int]:
    """parent_dart[v]: dart entering v from its BFS parent, -1 at the root."""
    a, _ = _bfs_farthest(sub, 0)
    b, dist_a = _bfs_farthest(sub, a)
    # walk the a..b shortest path halfway back from b
    path = [b]
    cur = b
    while cur != a:
        for d in sub.out[cur]:
            v = sub.head[d]
            if dist_a[v] == dist_a[cur] - 1:
                cur = v
                path.append(cur)
                break
        else:
            raise InternalAssertion("BFS distance field inconsistent")
    center = path[len(path) // 2]
    parent_dart = [-1] * sub.n
    seen = [False] * sub.n
    seen[center] = True
    q = deque([center])
    while q:
        u = q.popleft()
        for d in sub.out[u]:
            v = sub.head[d]
            if not seen[v]:
                seen[v] = True
                parent_dart[v] = d
                q.append(v)
    if not all(seen):
        raise Disconnected("piece subgraph is not connected")
    return parent_dart


def cycle_separator(sub: PlanarEmbedding,
                    face_weights: list[int]) -> tuple[set[int], set[int]] | None:
    """Best fundamental-cycle separator of an embedded connected graph.

    Returns (cycle edge ids, faces enclosed against the root face) maximising
    the smaller side of `face_weights`, or None when the graph is a tree or no
    candidate separates anything.  The top estimated candidates are re-scored
    exactly before choosing.
    """
    if sub.m < 3 or sub.m - sub.n + 1 <= 0:
        return None
    parent_dart = _bfs_tree_from_center(sub)
    tree_edges = set()
    for v in range(sub.n):
        d = parent_dart[v]
        if d >= 0:
            tree_edges.add(d >> 1)
    nontree = [e for e in range(sub.m) if e not in tree_edges]
    if not nontree:
        return None

    root_face = sub.infinite_face
    # dual spanning tree over faces through non-tree edges
    dual_adj: list[list[tuple[int, int]]] = [[] for _ in range(len(sub.faces))]
    for e in nontree:
        f1 = sub.face_of[2 * e]
        f2 = sub.face_of[2 * e + 1]
        dual_adj[f1].append((f2, e))
        dual_adj[f2].append((f1, e))
    dual_parent = [-2] * len(sub.faces)
    dual_parent_edge = [-1] * len(sub.faces)
    order = []
    dual_parent[root_face] = -1
    q = deque([root_face])
    while q:
        f = q.popleft()
        order.append(f)
        for f2, e in dual_adj[f]:
            if dual_parent[f2] == -2:
                dual_parent[f2] = f
                dual_parent_edge[f2] = e
                q.append(f2)
    if len(order) != len(sub.faces):
        raise InternalAssertion("dual spanning tree did not reach every face")
    subtree = list(face_weights)
    for f in reversed(order):
        if dual_parent[f] >= 0:
            subtree[dual_parent[f]] += subtree[f]
    total = subtree[root_face]

    # enclosed weight of the fundamental cycle of non-tree edge e is the dual
    # subtree hanging under e
    child_face = {}
    for f in range(len(sub.faces)):
        e = dual_parent_edge[f]
        if e >= 0:
            child_face[e] = f
    scored = []
    for e in nontree:
        f = child_face.get(e)
        if f is None:
            # non-tree edge whose dual edge is also not in the dual tree:
            # impossible by interdigitation
            raise InternalAssertion("non-tree edge missing from dual tree")
        inside = subtree[f]
        scored.append((min(inside, total - inside), e))
    scored.sort(reverse=True)

    best = None
    for est, e in scored[:_EXACT_CANDIDATES]:
        cyc = _fundamental_cycle(sub, parent_dart, e)
        inside = _enclosed_faces(sub, cyc, root_face)
        if not inside or len(inside) == len(sub.faces):
            continue
        w_in = sum(face_weights[f] for f in inside)
        score = min(w_in, total - w_in)
        if best is None or score > best[0]:
            best = (score, cyc, inside)
    if best is None:
        return None
    return best[1], best[2]


def _fundamental_cycle(sub: PlanarEmbedding, parent_dart: list[int],
                       e: int) -> set[int]:
    cyc = {e}
    u, v = sub.endpoints(e)
    # climb both endpoints to the root, then trim the common prefix
    pu = []
    x = u
    while parent_dart[x] >= 0:
        pu.append(parent_dart[x] >> 1)
        x = sub.head[parent_dart[x] ^ 1]
    pv = []
    x = v
    while parent_dart[x] >= 0:
        pv.append(parent_dart[x] >> 1)
        x = sub.head[parent_dart[x] ^ 1]
    su, sv = set(pu), set(pv)
    cyc.update(eu for eu in pu if eu not in sv)
    cyc.update(ev for ev in pv if ev not in su)
    return cyc


def _enclosed_faces(sub: PlanarEmbedding, cyc: set[int], root_face: int) -> set[int]:
    comp = set()
    seed = sub.face_of[2 * next(iter(cyc))]
    stack = [seed]
    comp.add(seed)
    while stack:
        f = stack.pop()
        for d in sub.faces[f]:
            if (d >> 1) in cyc:
                continue
            f2 = sub.face_of[d ^ 1]
            if f2 not in comp:
                comp.add(f2)
                stack.append(f2)
    if root_face in comp:
        return {f for f in range(len(sub.faces)) if f not in comp}
    return comp


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
    made them: the cycle separator, a BFS level cut on a tabled piece when
    its largest child boundary is strictly smaller, else the fallback."""
    sp = cycle = None
    # a piece is connected, so one with fewer edges than vertices is a tree
    # and has no fundamental cycle
    if len(piece.edges) > 3 and len(piece.edges) >= len(piece.vertices):
        sp = sd.subpiece(piece.id)
        cycle = _separator_split(sd, piece, sp)
    if _is_tabled(piece):
        level = _level_split(sd, piece, sp or sd.subpiece(piece.id))
        if level is not None and (cycle is None or level[0] < max(
                _boundary_size(sd.g, part) for part in cycle)):
            return level[1], "level_splits"
    if cycle is not None:
        return cycle, "separator_splits"
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


def _boundary_size(g: PlanarEmbedding, edges) -> int:
    return sum(1 for v, k in _dart_counts(g, edges).items()
               if k < len(g.out[v]))


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


def _separator_split(sd: Subdivision, piece: Piece,
                     sp: SubPiece) -> list[set[int]] | None:
    sub = sp.sub
    if piece.depth % 2 == 0 or not piece.boundary:
        face_weights = _face_weights_edges(sub)
    else:
        face_weights = _face_weights_boundary(sub, sp, set(piece.boundary))
        if sum(face_weights) == 0:
            face_weights = _face_weights_edges(sub)
    got = cycle_separator(sub, face_weights)
    if got is None:
        return None
    cyc, inside = got
    side_in = set()
    side_out = set()
    for se in range(sub.m):
        if se in cyc:
            side_in.add(sp.e_host[se])
        elif sub.face_of[2 * se] in inside:
            side_in.add(sp.e_host[se])
        else:
            side_out.add(sp.e_host[se])
    if not side_in or not side_out:
        return None
    groups = []
    for part in (side_in, side_out):
        groups.extend(_connected_edge_groups(sd.g, part))
    if len(groups) < 2:
        return None
    # a lopsided separator loses to the plain halving fallback
    if max(len(p) for p in groups) > max(2, (len(piece.edges) * 17) // 20):
        return None
    return groups


def _level_split(sd: Subdivision, piece: Piece,
                 sp: SubPiece) -> tuple[int, list[set[int]]] | None:
    """Best BFS level cut of a piece, as (largest side boundary, connected
    children), or None when no level keeps both sides under the balance
    cap.  Levels are counted from either end of an approximate diameter.
    An edge lies below level L when its nearer endpoint does; the cut
    vertices of L are the level-L vertices with an edge at or above L."""
    sub = sp.sub
    bset = set(piece.boundary)
    inherited = [h in bset for h in sp.v_host]
    cap = max(2, (sub.m * 17) // 20)
    a, _ = _bfs_farthest(sub, 0)
    b, dist_a = _bfs_farthest(sub, a)
    _, dist_b = _bfs_farthest(sub, b)
    best = None
    for dist in (dist_a, dist_b):
        got = _best_level(sub, dist, inherited, cap)
        if got is not None and (best is None or got[:2] < best[:2]):
            best = got + (dist,)
    if best is None:
        return None
    score, _, level, dist = best
    below, above = set(), set()
    for he, u, v in zip(sp.e_host, sub.head[1::2], sub.head[::2]):
        (below if min(dist[u], dist[v]) < level else above).add(he)
    # the edges below a level reach the source through BFS tree edges
    return score, [below] + _connected_edge_groups(sd.g, above)


def _best_level(sub: PlanarEmbedding, dist: list[int], inherited: list[bool],
                cap: int) -> tuple[int, int, int] | None:
    """(largest side boundary, larger side's edges, level) of the best cut
    under `cap`, scored for every level by prefix sums in O(n + m)."""
    top = max(dist)
    below_at = [0] * (top + 1)     # edges by nearer-endpoint level
    # level of a vertex's highest edge: its parent edge's at least
    reach = [max(d - 1, 0) for d in dist]
    for u, v in zip(sub.head[1::2], sub.head[::2]):
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
    for v in range(sub.n):
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
        if below == sub.m:
            break
        held_below += held_at[level]
        held_above -= held_reach[level - 1]
        larger = max(below, sub.m - below)
        if larger > cap:
            continue
        got = (max(held_below, held_above) + cut_at[level], larger, level)
        if best is None or got < best:
            best = got
    return best


def _face_weights_edges(sub: PlanarEmbedding) -> list[int]:
    w = [0] * len(sub.faces)
    for e in range(sub.m):
        w[sub.face_of[2 * e]] += 1
    return w


def _face_weights_boundary(sub: PlanarEmbedding, sp: SubPiece,
                           bset: set[int]) -> list[int]:
    w = [0] * len(sub.faces)
    for v in range(sub.n):
        if sp.v_host[v] in bset and sub.out[v]:
            w[sub.face_of[sub.out[v][0]]] += 1
    return w


def _fallback_split(sd: Subdivision, piece: Piece) -> list[set[int]]:
    """Connected halves by a BFS edge order; always makes progress."""
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
    # a group holding the whole piece would requeue it forever
    if any(len(p) >= len(piece.edges) for p in groups):
        raise InternalAssertion(f"fallback split of piece {piece.id} "
                                "made no progress")
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
