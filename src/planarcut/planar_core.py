"""Planar combinatorial embeddings, duality and the structural transforms.

A graph is stored as a rotation system over darts.  Edge e owns darts 2e and
2e+1, `rev` is the xor-1 involution, and each vertex keeps the clockwise cyclic
order of its outgoing darts.  Faces are the orbits of the permutation
d -> out[head(d)][slot(rev(d)) + 1]; a rotation system is accepted exactly when
Euler's formula V - E + F = 2 holds, so parallel edges and self-loops are
representable natively.

The dual shares dart ids with the primal: the dual head of d is the primal
face containing d, and the dual rotation at a face is the face orbit itself.
Applying the construction twice returns the original embedding, and dual faces
correspond one-to-one to primal vertices.
"""

from __future__ import annotations

from .errors import (Disconnected, InputError, InternalAssertion,
                     NegativeWeight, NonPlanarEmbedding, UnknownEdge,
                     UnknownVertex, WeightTooLarge)
from .weights import BASE_LIMIT, BASE_SHIFT, EPS_EDGE, INF_EDGE, TieBreakWeight


class PlanarEmbedding:
    """Immutable planar multigraph with a fixed combinatorial embedding."""

    __slots__ = ("n", "m", "head", "out", "slot_of", "weights", "scale",
                 "fnext", "face_of", "faces", "infinite_face", "_between",
                 "dual_of")

    def __init__(self, n: int, head: list[int], out: list[list[int]],
                 weights: list[int], scale: int = 1,
                 infinite_face: int | None = None):
        self.n = n
        self.m = len(weights)
        self.head = head
        self.out = out
        self.weights = weights
        self.scale = scale
        self.dual_of = None
        self._between = None

        if len(head) != 2 * self.m:
            raise InputError("dart table size must be twice the edge count")

        slot_of = [-1] * (2 * self.m)
        for v, rot in enumerate(out):
            for i, d in enumerate(rot):
                if d < 0 or d >= 2 * self.m or slot_of[d] != -1:
                    raise NonPlanarEmbedding("rotation system is not a dart partition")
                if head[d ^ 1] != v:
                    raise NonPlanarEmbedding(f"dart {d} listed at vertex {v}, tail is {head[d ^ 1]}")
                slot_of[d] = i
        if any(s == -1 for s in slot_of):
            raise NonPlanarEmbedding("rotation system misses some darts")
        self.slot_of = slot_of

        fnext = [0] * (2 * self.m)
        for d in range(2 * self.m):
            rot = out[head[d]]
            fnext[d] = rot[(slot_of[d ^ 1] + 1) % len(rot)]
        self.fnext = fnext

        face_of = [-1] * (2 * self.m)
        faces: list[list[int]] = []
        for d0 in range(2 * self.m):
            if face_of[d0] != -1:
                continue
            orbit = []
            d = d0
            while face_of[d] == -1:
                face_of[d] = len(faces)
                orbit.append(d)
                d = fnext[d]
            if d != d0:
                raise NonPlanarEmbedding("face permutation orbit broke")
            faces.append(orbit)
        self.face_of = face_of
        self.faces = faces

        self._check_connected()
        if n - self.m + len(faces) != 2:
            raise NonPlanarEmbedding(
                f"Euler check failed: V={n} E={self.m} F={len(faces)}")

        if infinite_face is None:
            infinite_face = 0 if faces else -1
        if faces and not (0 <= infinite_face < len(faces)):
            raise InputError(f"infinite face {infinite_face} out of range")
        self.infinite_face = infinite_face

    # -- dart primitives ---------------------------------------------------

    @staticmethod
    def rev(d: int) -> int:
        return d ^ 1

    def tail(self, d: int) -> int:
        return self.head[d ^ 1]

    @staticmethod
    def edge_of(d: int) -> int:
        return d >> 1

    def darts_of(self, e: int) -> tuple[int, int]:
        if not 0 <= e < self.m:
            raise UnknownEdge(f"edge {e}")
        return 2 * e, 2 * e + 1

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.head[2 * e + 1], self.head[2 * e]

    def edge_weight(self, e: int) -> int:
        if not 0 <= e < self.m:
            raise UnknownEdge(f"edge {e}")
        return self.weights[e]

    def dart_weight(self, d: int) -> int:
        return self.weights[d >> 1]

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise UnknownVertex(f"vertex {v}")
        return len(self.out[v])

    def face_vertices(self, f: int) -> list[int]:
        return [self.head[d] for d in self.faces[f]]

    def edges_between(self, u: int, v: int) -> list[int]:
        self._build_between()
        return self._between.get((u, v) if u <= v else (v, u), [])

    def _build_between(self) -> None:
        if self._between is not None:
            return
        between: dict[tuple[int, int], list[int]] = {}
        for e in range(self.m):
            u, v = self.endpoints(e)
            key = (u, v) if u <= v else (v, u)
            between.setdefault(key, []).append(e)
        self._between = between

    def _check_connected(self) -> None:
        if self.n == 0:
            return
        seen = [False] * self.n
        stack = [0]
        seen[0] = True
        count = 1
        while stack:
            v = stack.pop()
            for d in self.out[v]:
                w = self.head[d]
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        if count != self.n:
            raise Disconnected(f"{self.n - count} vertices unreachable from 0")

    def __repr__(self) -> str:
        return f"PlanarEmbedding(n={self.n}, m={self.m}, f={len(self.faces)})"


def build_embedding(n: int, edges: list[tuple[int, int]],
                    weights: list[TieBreakWeight],
                    rotations: list[list[int]],
                    scale: int = 1,
                    infinite_face: int | None = None) -> PlanarEmbedding:
    """Construct an embedding from per-vertex clockwise edge-id rotations.

    A self-loop's edge id appears twice in its vertex's rotation; the first
    occurrence stands for dart 2e and the second for dart 2e+1.  Weights
    are `TieBreakWeight.of` keys; their total must stay below BASE_LIMIT
    (see `weights`).
    """
    m = len(edges)
    if len(weights) != m:
        raise InputError("weights and edges disagree in length")
    if weights and min(weights) < 0:
        raise NegativeWeight("edge weights must be non-negative")
    if sum(weights) >> BASE_SHIFT >= BASE_LIMIT:
        raise WeightTooLarge("total scaled edge weight reaches 2^255")
    head = [0] * (2 * m)
    for e, (u, v) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise UnknownVertex(f"edge {e} endpoints {(u, v)}")
        head[2 * e] = v
        head[2 * e + 1] = u
    seen_once: set[int] = set()
    out: list[list[int]] = []
    for v, rot in enumerate(rotations):
        row = []
        for e in rot:
            if not 0 <= e < m:
                raise UnknownEdge(f"rotation of vertex {v} names edge {e}")
            u, w = edges[e]
            if u == w:
                if u != v:
                    raise NonPlanarEmbedding(f"loop {e} listed at foreign vertex {v}")
                if e in seen_once:
                    row.append(2 * e + 1)
                else:
                    seen_once.add(e)
                    row.append(2 * e)
            elif v == u:
                row.append(2 * e)
            elif v == w:
                row.append(2 * e + 1)
            else:
                raise NonPlanarEmbedding(f"edge {e} listed at foreign vertex {v}")
        out.append(row)
    return PlanarEmbedding(n, head, out, weights, scale, infinite_face)


# -- duality ----------------------------------------------------------------

def dual(g: PlanarEmbedding) -> PlanarEmbedding:
    """Dual embedding sharing dart ids with g.

    head*(d) = face_of(d); the rotation at a face vertex is the face orbit.
    Faces of the dual correspond to primal vertices: every dart of dual
    face f has the same primal head, the vertex f stands for, which is
    checked here.
    """
    head = [g.face_of[d] for d in range(2 * g.m)]
    out = [[d ^ 1 for d in orbit] for orbit in g.faces]
    dg = PlanarEmbedding(len(g.faces), head, out, list(g.weights), g.scale)
    dg.dual_of = g
    for orbit in dg.faces:
        if len({g.head[d] for d in orbit}) != 1:
            raise InternalAssertion("dual face does not collapse to one primal vertex")
    return dg


def cut_cycle_duality_check(g: PlanarEmbedding, edge_set: set[int]) -> tuple[bool, bool]:
    """(edge set is a simple cycle of g, edge set is a bond of dual(g)).

    The two answers must agree for any edge set of a planar embedding; callers
    assert that.
    """
    is_cycle = is_simple_cycle(g, edge_set)
    dg = g.dual_of if g.dual_of is not None else dual(g)
    is_bond = _is_bond(dg, edge_set)
    return is_cycle, is_bond


def is_simple_cycle(g: PlanarEmbedding, edge_set: set[int]) -> bool:
    if not edge_set:
        return False
    deg: dict[int, int] = {}
    for e in edge_set:
        if not 0 <= e < g.m:
            raise UnknownEdge(f"edge {e}")
        u, v = g.endpoints(e)
        if u == v:
            # a self-loop alone is a cycle; mixed with others it is not simple
            return len(edge_set) == 1
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    # connectivity over the chosen edges
    verts = list(deg)
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for e in edge_set:
        u, v = g.endpoints(e)
        adj[u].append(v)
        adj[v].append(u)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(verts)


def _is_bond(dg: PlanarEmbedding, edge_set: set[int]) -> bool:
    """True when removing edge_set splits dg into exactly two components and
    every removed edge runs between the components."""
    if not edge_set:
        return False
    comp = [-1] * dg.n
    ncomp = 0
    for s in range(dg.n):
        if comp[s] != -1:
            continue
        comp[s] = ncomp
        stack = [s]
        while stack:
            x = stack.pop()
            for d in dg.out[x]:
                if (d >> 1) in edge_set:
                    continue
                y = dg.head[d]
                if comp[y] == -1:
                    comp[y] = ncomp
                    stack.append(y)
        ncomp += 1
    if ncomp != 2:
        return False
    for e in edge_set:
        u, v = dg.endpoints(e)
        if comp[u] == comp[v]:
            return False
    return True


# -- transform plumbing ------------------------------------------------------


class TransformTrace:
    """How one structural transform rewrote the embedding.

    dart_origin[d] -> dart of the previous graph (-1 for added structure)
    face_cover[f]  -> previous face geometrically containing face f

    Edges a transform adds get ids after the previous graph's edges.
    """

    __slots__ = ("dart_origin", "face_cover")

    def __init__(self, dart_origin: list[int], face_cover: list[int]):
        self.dart_origin = dart_origin
        self.face_cover = face_cover


class _Mutable:
    """Half-edge builder used by the transforms.

    Rotations are circular doubly linked lists over out-darts keyed by dart id,
    so chord/spoke insertion at a known position is O(1).  freeze() re-derives
    faces and validates Euler.
    """

    def __init__(self, g: PlanarEmbedding):
        self.src = g
        self.n = g.n
        self.head = list(g.head)
        self.weights = list(g.weights)
        self.dart_origin = list(range(2 * g.m))
        size = 2 * g.m
        self.rot_next = [0] * size
        self.rot_prev = [0] * size
        self.anchor: list[int] = [-1] * g.n
        for v, rot in enumerate(g.out):
            if not rot:
                continue
            self.anchor[v] = rot[0]
            for i, d in enumerate(rot):
                nd = rot[(i + 1) % len(rot)]
                self.rot_next[d] = nd
                self.rot_prev[nd] = d

    # rotations -------------------------------------------------------------

    def new_vertex(self) -> int:
        v = self.n
        self.n += 1
        self.anchor.append(-1)
        return v

    def _grow_darts(self) -> int:
        base = len(self.head)
        self.head.extend((0, 0))
        self.rot_next.extend((0, 0))
        self.rot_prev.extend((0, 0))
        self.dart_origin.extend((-1, -1))
        return base

    def _attach(self, d: int, v: int, after: int | None) -> None:
        """Insert out-dart d at vertex v, clockwise-after `after`."""
        if after is None:
            if self.anchor[v] == -1:
                self.anchor[v] = d
                self.rot_next[d] = d
                self.rot_prev[d] = d
                return
            after = self.anchor[v]
        nxt = self.rot_next[after]
        self.rot_next[after] = d
        self.rot_prev[d] = after
        self.rot_next[d] = nxt
        self.rot_prev[nxt] = d

    def _detach(self, d: int, v: int) -> None:
        if self.rot_next[d] == d:
            self.anchor[v] = -1
            return
        p, nx = self.rot_prev[d], self.rot_next[d]
        self.rot_next[p] = nx
        self.rot_prev[nx] = p
        if self.anchor[v] == d:
            self.anchor[v] = nx

    def add_edge(self, u: int, v: int, weight: int,
                 after_u: int | None, after_v: int | None) -> int:
        """New edge u-v; its out-dart at u goes clockwise-after after_u."""
        e = len(self.weights)
        self.weights.append(weight)
        d = self._grow_darts()
        self.head[d] = v
        self.head[d + 1] = u
        self._attach(d, u, after_u)
        self._attach(d + 1, v, after_v)
        return e

    def freeze(self, infinite_face_prev: int | None) -> tuple[PlanarEmbedding, TransformTrace]:
        out: list[list[int]] = []
        for v in range(self.n):
            row = []
            a = self.anchor[v]
            if a != -1:
                d = a
                while True:
                    row.append(d)
                    d = self.rot_next[d]
                    if d == a:
                        break
            out.append(row)
        g2 = PlanarEmbedding(self.n, self.head, out, self.weights,
                             self.src.scale, infinite_face=0)
        face_cover = self._face_cover(g2)
        if infinite_face_prev is not None:
            # the first new face inside the previous infinite face
            g2.infinite_face = face_cover.index(infinite_face_prev)
        return g2, TransformTrace(self.dart_origin, face_cover)

    def _face_cover(self, g2: PlanarEmbedding) -> list[int]:
        prev = self.src
        cover = [-1] * len(g2.faces)
        pending = []
        for f, orbit in enumerate(g2.faces):
            for d in orbit:
                od = self.dart_origin[d]
                if od != -1:
                    cover[f] = prev.face_of[od]
                    break
            else:
                pending.append(f)
        # faces bounded purely by added edges inherit across those edges
        while pending:
            rest = []
            for f in pending:
                for d in g2.faces[f]:
                    nb = cover[g2.face_of[d ^ 1]]
                    if nb != -1:
                        cover[f] = nb
                        break
                else:
                    rest.append(f)
            if len(rest) == len(pending):
                raise InternalAssertion("face cover propagation stalled")
            pending = rest
        return cover


# -- transforms ---------------------------------------------------------------

def subdivide_to_simple(g: PlanarEmbedding) -> tuple[PlanarEmbedding, TransformTrace]:
    """Subdivide edges until the embedding is simple and all faces have at
    least three darts.  Weight goes entirely to the first half of each split,
    the other halves weigh exactly zero, so cycle and cut weights are
    untouched.  Needed before triangulation because duals of graphs with
    bridges or shared-boundary faces carry self-loops and parallel edges."""
    mut = _Mutable(g)

    loops = [e for e in range(g.m) if g.head[2 * e] == g.head[2 * e + 1]]
    seen_pairs: set[tuple[int, int]] = set()
    parallels = []
    for e in range(g.m):
        u, v = g.endpoints(e)
        if u == v:
            continue
        key = (u, v) if u <= v else (v, u)
        if key in seen_pairs:
            parallels.append(e)
        else:
            seen_pairs.add(key)

    for e in loops:
        _subdivide_edge(mut, e)
        _subdivide_edge(mut, e)
    for e in parallels:
        _subdivide_edge(mut, e)

    # a lone edge (or any residual short walk) still yields a face of size < 3
    while True:
        g2, trace = mut.freeze(g.infinite_face)
        short = [f for f in range(len(g2.faces)) if len(g2.faces[f]) < 3]
        if not short:
            return g2, trace
        d = g2.faces[short[0]][0]
        _subdivide_edge(mut, d >> 1)


def _subdivide_edge(mut: _Mutable, e: int) -> int:
    """Split edge e at a fresh vertex; e keeps its id and weight as the first
    half, the second half weighs zero."""
    d_forward = 2 * e
    d_back = 2 * e + 1
    v = mut.head[d_forward]
    x = mut.new_vertex()
    e2 = len(mut.weights)
    mut.weights.append(0)
    nd = mut._grow_darts()        # nd: x -> v, nd+1: v -> x
    mut.head[nd] = v
    mut.head[nd + 1] = x
    mut.dart_origin[nd] = mut.dart_origin[d_forward]
    mut.dart_origin[nd + 1] = mut.dart_origin[d_back]
    # v's slot of the old back dart is taken over by the new back dart
    mut._attach(nd + 1, v, d_back)
    mut._detach(d_back, v)
    # x carries both halves; rotation order is immaterial for degree 2
    mut.head[d_forward] = x
    mut._attach(d_back, x, None)
    mut._attach(nd, x, d_back)
    return e2


def triangulate(g: PlanarEmbedding,
                faces: list[int]) -> tuple[PlanarEmbedding, TransformTrace]:
    """Chord the listed faces down to triangles with infinite-weight edges.

    The oracle pipeline runs this after the bounding cycle and passes the
    faces whose walk visits a vertex twice: pinched finite faces and sky
    arcs that repeat a vertex.  Left alone, they would leave an edge with
    one face on both sides after the degree-3 expansion.  Ear positions
    whose chord would join a vertex to itself are skipped; a walk of more
    than three darts with no other position raises InternalAssertion."""
    mut = _Mutable(g)
    for f in faces:
        walk = list(g.faces[f])
        while len(walk) > 3:
            k = len(walk)
            pos = -1
            for i in range(k):
                x = walk[i]
                y = walk[(i + 1) % k]
                if mut.head[y] != mut.head[x ^ 1]:
                    pos = i
                    break
            if pos == -1:
                raise InternalAssertion("no valid ear on face walk; input face not simple")
            x = walk[pos]
            y = walk[(pos + 1) % k]
            tv = mut.head[x ^ 1]
            hv = mut.head[y]
            # chord tv->hv: out-dart at tv goes just before x (cw), the back
            # dart at hv just after rev(y), closing triangle [x, y, back]
            e = mut.add_edge(tv, hv, INF_EDGE,
                             after_u=mut.rot_prev[x], after_v=y ^ 1)
            c_fwd = 2 * e
            walk[pos:pos + 2] = [c_fwd]
            if pos + 2 > k:   # wrapped pair: y was walk[0]
                walk.pop(0)
    return mut.freeze(g.infinite_face)


def degree_three_transform(g: PlanarEmbedding) -> tuple[PlanarEmbedding, TransformTrace]:
    """Expand every vertex of degree above three into a path of copies joined
    by epsilon-weight edges (a tree of the dual triangulation).  Result has
    maximum degree three; vertices of degree three or less are untouched."""
    mut = _Mutable(g)
    for v in range(g.n):
        rot = g.out[v]
        k = len(rot)
        if k <= 3:
            continue
        # v keeps rot[0], rot[1]; copy i takes rot[i+1]; the last copy takes
        # rot[k-2] and rot[k-1].  Consecutive rotation darts land on the same
        # or adjacent copies except across the wrap corner, whose face walk
        # runs along the whole copy path.
        copies = [v] + [mut.new_vertex() for _ in range(k - 3)]
        for d in rot[2:]:
            mut._detach(d, v)
        prev = v
        attach_after = rot[1]
        for i in range(1, k - 2):
            c = copies[i]
            e = mut.add_edge(prev, c, EPS_EDGE,
                             after_u=attach_after, after_v=None)
            after = 2 * e + 1
            darts = [rot[i + 1]] if i < k - 3 else [rot[k - 2], rot[k - 1]]
            for d in darts:
                mut.head[d ^ 1] = c
                mut._attach(d, c, after)
                after = d
            prev = c
            attach_after = darts[-1]
    return mut.freeze(g.infinite_face)


def add_bounding_cycle(g: PlanarEmbedding) -> tuple[PlanarEmbedding, TransformTrace]:
    """Enclose the infinite face with a zero-weight triangle ("sky").

    The old infinite walk splits into three arcs at the first visits of
    three distinct vertices, spread over the walk.  Sky vertex s[t] takes
    two infinite-weight spokes, to the start and the end of arc t, so the
    old infinite face becomes three sky arcs (faces of an arc and two
    spokes) and three spoke triangles (two spokes and a sky edge).  The new
    infinite face is the outside of the sky triangle.  A sky arc that
    repeats a vertex and a vertex whose degree rose above three are the
    caller's concern; the oracle pipeline runs the chord pass and the
    degree-3 pass after this one."""
    mut = _Mutable(g)
    walk = g.faces[g.infinite_face]
    seen: set[int] = set()
    firsts = []
    for i, d in enumerate(walk):
        if g.head[d] not in seen:
            seen.add(g.head[d])
            firsts.append(i)
    if len(firsts) < 3:
        raise InputError("bounding cycle needs three vertices on the infinite face")
    cuts = [firsts[t * len(firsts) // 3] for t in range(3)]

    s = [mut.new_vertex(), mut.new_vertex(), mut.new_vertex()]
    ring = [mut.add_edge(s[t], s[(t + 1) % 3], 0, after_u=None, after_v=None)
            for t in range(3)]
    for t in range(3):
        mut.anchor[s[t]] = 2 * ring[t]
    # split t ends arc t-1 and starts arc t.  Its spokes fill the walk's
    # corner clockwise-after rev(walk[i]), the one to s[t-1] first; at a sky
    # vertex the arc-end spoke follows the edge to the next sky vertex and
    # the arc-start spoke precedes the edge to the previous one
    for t, i in enumerate(cuts):
        a = walk[i]
        w = g.head[a]
        mut.add_edge(w, s[t], INF_EDGE, after_u=a ^ 1,
                     after_v=mut.rot_prev[2 * ring[t - 1] + 1])
        mut.add_edge(w, s[t - 1], INF_EDGE, after_u=a ^ 1,
                     after_v=2 * ring[t - 1])
    g2, trace = mut.freeze(None)
    g2.infinite_face = g2.face_of[2 * ring[0]]
    return g2, trace
