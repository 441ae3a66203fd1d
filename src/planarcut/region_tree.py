"""Nesting tree of basis cycles over the faces of an embedded graph.

Nodes are the graph's faces plus one node per inserted cycle (a region).
Initially the tree is a star: a root region holding every face.  Each
insertion replaces one region by two, partitioning its children between the
inside and the outside of the new cycle.  The partition is discovered by two
breadth-first searches seeded on the two sides of the cycle and run in
lockstep, so only the smaller side's area is traversed and relocated; which
side is the enclosed one is settled by a crossing-parity walk on a static
dual spanning tree.  Each region but the root keeps its bounding cycle as
a `CompactCycle`: the cycle's host darts in order, with its weight and edge
count.  The root's is the boundary of the infinite face.

Every ancestry question is one upward walk over the parent pointers of
a `DynamicTree` (`child_toward`); the trees stay shallow (see
`dynamic_tree`).  A face's class under a region is the child of the region
toward it, or None outside.  Faces' classes give the region's closed graph
(see `region_subpiece`), and during an insertion the classes met on the
smaller side are the members to move; whether a face pair ends up
separated is read off the same classes.  Nothing relocates while an
insertion or a subpiece query runs, so each walks once per face, up to the
region only.

Every edge must have two different faces, and the constructor checks this
once.  The oracle's host has no bridge: before the degree-3 expansion it
rings the infinite face with a bounding cycle and then chords every face
whose walk repeats a vertex.
"""

from __future__ import annotations

from collections import deque

from .dynamic_tree import DynamicTree
from .errors import InductionViolated, InternalAssertion, NotSeparating
from .planar_core import PlanarEmbedding

class CompactCycle:
    """A simple cycle of the embedding as its dart tuple, with its weight
    and edge count."""

    __slots__ = ("_darts", "weight", "nedges", "_edge_ids")

    def __init__(self, g: PlanarEmbedding, darts):
        darts = tuple(darts)
        if not darts:
            raise InternalAssertion("empty cycle")
        w = 0
        prev = g.head[darts[-1]]
        for d in darts:
            if g.head[d ^ 1] != prev:
                raise InternalAssertion("cycle darts do not chain")
            prev = g.head[d]
            w += g.weights[d >> 1]
        self._darts = darts
        self.weight = w
        self.nedges = len(darts)
        self._edge_ids = None

    def darts(self) -> tuple:
        return self._darts

    def edge_ids(self) -> frozenset:
        if self._edge_ids is None:
            self._edge_ids = frozenset(d >> 1 for d in self._darts)
        return self._edge_ids

    def vertices(self, g: PlanarEmbedding) -> list:
        return [g.head[d] for d in self._darts]

    def __len__(self) -> int:
        return self.nedges


class RegionTree:
    """Region nesting forest over the faces of `g`."""

    def __init__(self, g: PlanarEmbedding):
        self.g = g
        self.n_faces = len(g.faces)
        self.root = self.n_faces
        self._next_region = self.n_faces + 1
        self.dt = DynamicTree()
        self.children: dict[int, set[int]] = {self.root: set()}
        self.cycles: dict[int, CompactCycle] = {}
        self.stats = {"inserts": 0, "relocations": 0}
        if any(g.face_of[2 * e] == g.face_of[2 * e + 1] for e in range(g.m)):
            raise InternalAssertion("an edge has the same face on both sides")

        self.dt.add_node(self.root)
        for f in range(self.n_faces):
            self.dt.add_node(f)
            self.dt.link(f, self.root)
            self.children[self.root].add(f)

        # static dual spanning tree for enclosure parity walks
        par_face = [-2] * self.n_faces
        par_edge = [-1] * self.n_faces
        par_face[g.infinite_face] = -1
        q = deque([g.infinite_face])
        while q:
            fid = q.popleft()
            for d in g.faces[fid]:
                nf = g.face_of[d ^ 1]
                if par_face[nf] == -2:
                    par_face[nf] = fid
                    par_edge[nf] = d >> 1
                    q.append(nf)
        if any(p == -2 for p in par_face):
            raise InternalAssertion("dual graph is not connected")
        self._dual_parent = par_face
        self._dual_edge = par_edge

    # -- queries ----------------------------------------------------------------

    def is_region(self, node: int) -> bool:
        return node >= self.n_faces

    def parent(self, node: int):
        return self.dt.parent_of(node)

    def enclosed_parity(self, face: int, cycle_edges: frozenset) -> bool:
        """True iff `face` is enclosed by the cycle with the given edge set."""
        parity = False
        f = face
        while self._dual_parent[f] >= 0:
            if self._dual_edge[f] in cycle_edges:
                parity = not parity
            f = self._dual_parent[f]
        return parity

    def complete(self) -> bool:
        """Whether every region holds exactly one face as a child."""
        parents = {self.parent(f) for f in range(self.n_faces)}
        return len(parents) == self.n_faces == len(self.children)

    # -- insertion ----------------------------------------------------------------

    def insert_cycle(self, cycle: CompactCycle, region: int,
                     pair: tuple[int, int]) -> tuple[int, int]:
        """Split `region` along `cycle`, which must separate the face pair.

        Returns (inside region id, outside region id).  The smaller child set
        is relocated; the region node itself stays for the larger side.
        """
        g = self.g
        darts = cycle.darts()
        edges_c = cycle.edge_ids()
        f, gface = pair
        classes = _FaceClasses(self.dt, region)
        if classes[f] is None or classes[gface] is None:
            raise NotSeparating("pair does not live under the region")

        side_darts = self._side_third_darts(darts)
        small_side, members = self._lockstep_search(classes, edges_c,
                                                    side_darts)
        # every face on one side of a simple cycle has the same parity
        flank = self._cycle_flank_faces(darts, small_side)
        inside = self.enclosed_parity(flank[0], edges_c)
        if not members:
            # the side saw no usable edge: its members are the flank faces'
            members = {classes[x] for x in flank} - {None}
        if (classes[f] in members) == (classes[gface] in members):
            raise NotSeparating("cycle does not separate the pair")

        # move `members` under a fresh region node
        new_region = self._next_region
        self._next_region += 1
        self.dt.add_node(new_region)
        self.children[new_region] = set()

        for node in members:
            self.dt.cut(node)
            self.children[region].discard(node)
            self.dt.link(node, new_region)
            self.children[new_region].add(node)
        self.stats["relocations"] += len(members)
        self.stats["inserts"] += 1

        if inside:
            # relocated members are enclosed by the cycle: new region gets C,
            # hangs under the old one
            self.dt.link(new_region, region)
            self.children[region].add(new_region)
            self.cycles[new_region] = cycle
            r_in, r_out = new_region, region
        else:
            # relocated members are outside: the new region takes the old
            # bounding cycle and the old node shrinks to the inside of C
            parent = self.parent(region)
            if parent is not None:
                self.dt.cut(region)
                self.children[parent].discard(region)
                self.dt.link(new_region, parent)
                self.children[parent].add(new_region)
            self.dt.link(region, new_region)
            self.children[new_region].add(region)
            if region == self.root:
                self.root = new_region
            else:
                self.cycles[new_region] = self.cycles[region]
            self.cycles[region] = cycle
            r_in, r_out = region, new_region

        if not self.children[r_in] or not self.children[r_out]:
            raise InternalAssertion("cycle insertion emptied a region")
        return r_in, r_out

    # -- internals ----------------------------------------------------------------

    def _side_third_darts(self, darts) -> tuple[list[int], list[int]]:
        """Non-cycle darts leaving cycle vertices, split by geometric side.

        Side 0 holds the darts swept clockwise from the outgoing cycle dart
        up to the incoming one; with clockwise rotations that is the side
        whose flank faces are face_of[d ^ 1] (see _cycle_flank_faces).
        """
        g = self.g
        side_a: list[int] = []
        side_b: list[int] = []
        k = len(darts)
        for i in range(k):
            d_in = darts[i]
            d_out = darts[(i + 1) % k]
            v = g.head[d_in]
            rot = g.out[v]
            deg = len(rot)
            p_out = g.slot_of[d_out]
            p_in = g.slot_of[d_in ^ 1]
            j = (p_out + 1) % deg
            side = side_a
            while j != p_out:
                d = rot[j]
                if j == p_in:
                    side = side_b
                elif d != d_out and d != (d_in ^ 1):
                    side.append(d)
                j = (j + 1) % deg
        return side_a, side_b

    def _lockstep_search(self, classes: "_FaceClasses", edges_c: frozenset,
                         side_darts) -> tuple[int, set]:
        g = self.g
        face_of = g.face_of
        fronts = [deque(side_darts[0]), deque(side_darts[1])]
        seen: list[set] = [set(), set()]
        members: list[set] = [set(), set()]
        active = [True, True]
        small = None
        while small is None:
            for s in (0, 1):
                if not active[s]:
                    continue
                advanced = False
                while fronts[s]:
                    d = fronts[s].popleft()
                    e = d >> 1
                    if e in seen[s] or e in edges_c:
                        continue
                    if e in seen[1 - s]:
                        raise InternalAssertion("cycle sides leaked into each other")
                    f1 = face_of[2 * e]
                    f2 = face_of[2 * e + 1]
                    c1 = classes[f1]
                    c2 = classes[f2]
                    if c1 == c2:
                        # not in the region (see region_subpiece)
                        continue
                    seen[s].add(e)
                    for c in (c1, c2):
                        if c is not None:
                            members[s].add(c)
                    for x in g.endpoints(e):
                        fronts[s].extend(g.out[x])
                    advanced = True
                    break
                if not advanced:
                    active[s] = False
                    small = s
                    break
        return small, members[small]

    def _cycle_flank_faces(self, darts, side: int) -> list[int]:
        """Faces adjacent to the cycle on one side (0: right of darts).

        With clockwise rotations the face corner immediately clockwise of an
        outgoing dart belongs to the face of its reversal, so the right flank
        of dart d is face_of[d ^ 1].
        """
        face_of = self.g.face_of
        return [face_of[d ^ 1] if side == 0 else face_of[d] for d in darts]


class _FaceClasses(dict):
    """Face -> child of `region` on the path to it (None outside the
    region), walked once per face while nothing relocates."""

    __slots__ = ("dt", "region")

    def __init__(self, dt: DynamicTree, region: int):
        super().__init__()
        self.dt = dt
        self.region = region

    def __missing__(self, face: int):
        c = self[face] = self.dt.child_toward(self.region, face)
        return c


# -- piece-level helpers -------------------------------------------------------

def regions_with_unseparated_pair(tree: RegionTree,
                                  side_edges: tuple) -> dict[int, tuple[int, int]]:
    """Regions holding an unseparated face pair touching both edge groups.

    `side_edges` is a pair of edge-id iterables (the two halves of the group
    being merged).  A face touches a side when one of that side's edges
    borders it.  Each region may hold at most one face per side; more is an
    induction failure.
    """
    g = tree.g
    touch: dict[int, dict[int, int]] = {}
    for side, edges in enumerate(side_edges):
        for e in edges:
            for fid in (g.face_of[2 * e], g.face_of[2 * e + 1]):
                r = tree.parent(fid)
                per = touch.setdefault(r, {})
                mask = per.get(fid, 0)
                per[fid] = mask | (1 << side)
    out: dict[int, tuple[int, int]] = {}
    for r, per in sorted(touch.items()):
        if len(per) < 2:
            continue
        if len(per) > 2:
            raise InductionViolated(
                f"region {r} holds {len(per)} unseparated faces in one group")
        (fa, ma), (fb, mb) = sorted(per.items())
        if (ma | mb) != 3:
            raise InductionViolated(
                f"region {r} pair does not straddle the group halves")
        out[r] = (fa, fb)
    return out


def region_subpiece(tree: RegionTree, region: int, group_edges) -> set:
    """Edges of the region subpiece: the group edges in the region's closed
    graph (interior edges, child bounding cycles and the region's own
    bounding cycle).

    Each face's class is the child of the region toward it, or None
    outside.  An edge with one face inside lies on the bounding cycle; one
    with both inside is interior or on a child's cycle exactly when the
    region is the lca of its faces.  These are the edges whose two faces
    have different classes.  Each face is walked once, up to the region."""
    classes = _FaceClasses(tree.dt, region)
    face_of = tree.g.face_of
    return {e for e in group_edges
            if classes[face_of[2 * e]] != classes[face_of[2 * e + 1]]}
