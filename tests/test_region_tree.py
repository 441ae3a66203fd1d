import math
import random
from itertools import permutations

import pytest

from _search_reference import (edge_home_region, is_boundary_edge,
                               orient_edge_cycle,
                               region_subpiece_by_home, tree_is_descendant,
                               tree_lca)
from planarcut.errors import (InductionViolated, InternalAssertion,
                              NotSeparating)
from planarcut.generators import (embedding_from_coordinates, grid_graph,
                                  random_delaunay_graph)
from planarcut.region_tree import (CompactCycle, RegionTree, region_subpiece,
                                   regions_with_unseparated_pair)


def face_edges(g, fid):
    return sorted({d >> 1 for d in g.faces[fid]})


def finite_faces(g):
    return [f for f in range(len(g.faces)) if f != g.infinite_face]


def face_sibling(tree, f):
    r = tree.parent(f)
    for c in sorted(tree.children[r]):
        if c != f and not tree.is_region(c):
            return c
    raise AssertionError("no sibling face available")


def insert_face_boundary(tree, fid):
    g = tree.g
    cyc = CompactCycle(g, orient_edge_cycle(g, face_edges(g, fid)))
    tree.insert_cycle(cyc, tree.parent(fid), (fid, face_sibling(tree, fid)))


def check_boundary_classification(tree):
    """An edge lies on a region's stored cycle iff the ancestry tests say so."""
    g = tree.g
    for r, cyc in tree.cycles.items():
        if cyc is None:
            continue
        for e in range(g.m):
            assert is_boundary_edge(tree, e, r) == (e in cyc.edge_ids()), (e, r)


def check_parity_matches_descendants(tree):
    """Faces enclosed by a region's cycle are exactly its face descendants."""
    for r, cyc in tree.cycles.items():
        if cyc is None or r == tree.root:
            continue
        enclosed = {f for f in range(tree.n_faces)
                    if tree.enclosed_parity(f, cyc.edge_ids())}
        below = {f for f in range(tree.n_faces)
                 if tree_is_descendant(tree, r, f)}
        assert enclosed == below, r


def test_star_init(tri):
    tree = RegionTree(tri)
    assert tree.children[tree.root] == {0, 1}
    assert not tree.complete()
    assert tree_lca(tree, 0, 1) == tree.root
    assert tree.dt.child_toward(tree.root, 1) == 1
    assert tree.dt.child_toward(0, 1) is None
    for e in range(tri.m):
        assert edge_home_region(tree, e) == tree.root
        assert not is_boundary_edge(tree, e, tree.root)


def test_triangle_single_insert(tri):
    tree = RegionTree(tri)
    inner = [f for f in range(2) if f != tri.infinite_face][0]
    insert_face_boundary(tree, inner)
    assert tree.complete()
    assert tree.stats["inserts"] == 1
    r_in = tree.parent(inner)
    assert r_in != tree.root
    assert tree.parent(tri.infinite_face) == tree.root
    for e in range(tri.m):
        assert edge_home_region(tree, e) == tree.root
        assert is_boundary_edge(tree, e, r_in)
    check_boundary_classification(tree)
    check_parity_matches_descendants(tree)


@pytest.mark.parametrize("order", list(permutations(range(4))))
def test_grid_square_insert_orders(grid3, order):
    g = grid3
    tree = RegionTree(g)
    squares = finite_faces(g)
    assert len(squares) == 4
    for i in order:
        assert not tree.complete()
        insert_face_boundary(tree, squares[i])
    assert tree.complete()
    assert tree.parent(g.infinite_face) == tree.root
    check_boundary_classification(tree)
    check_parity_matches_descendants(tree)
    nodes = tree.n_faces + tree.stats["inserts"] + 1
    assert tree.stats["relocations"] <= nodes * math.ceil(math.log2(nodes))


def test_grid_ring_takes_exterior_branch(grid3):
    g = grid3
    tree = RegionTree(g)
    squares = finite_faces(g)
    ring = sorted({d >> 1 for d in g.faces[g.infinite_face]})
    assert len(ring) == 8

    insert_face_boundary(tree, squares[0])
    old_root = tree.root
    cyc = CompactCycle(g, orient_edge_cycle(g, ring))
    tree.insert_cycle(cyc, tree.root, (squares[1], g.infinite_face))
    assert tree.root != old_root, "outer-side relocation must rebuild the root"
    insert_face_boundary(tree, squares[1])
    insert_face_boundary(tree, squares[2])

    assert tree.complete()
    assert tree.parent(g.infinite_face) == tree.root
    r_ring = [c for c in tree.children[tree.root] if tree.is_region(c)]
    assert len(r_ring) == 1
    r_ring = r_ring[0]
    assert tree.cycles[r_ring].edge_ids() == frozenset(ring)
    # all four squares sit strictly inside the ring region
    for f in squares:
        assert tree_is_descendant(tree, r_ring, f)
    assert tree_lca(tree, squares[0], g.infinite_face) == tree.root
    check_boundary_classification(tree)
    check_parity_matches_descendants(tree)


@pytest.mark.parametrize("n,seed", [(8, 1), (8, 5), (12, 2), (12, 7), (16, 3)])
def test_delaunay_face_boundaries_random_order(n, seed):
    g = random_delaunay_graph(n, seed=seed)
    tree = RegionTree(g)
    faces = finite_faces(g)
    rng = random.Random(seed * 31 + 1)
    rng.shuffle(faces)
    for f in faces:
        insert_face_boundary(tree, f)
    assert tree.complete()
    assert tree.stats["inserts"] == len(g.faces) - 1
    check_boundary_classification(tree)
    check_parity_matches_descendants(tree)
    nodes = tree.n_faces + tree.stats["inserts"] + 1
    assert tree.stats["relocations"] <= nodes * math.ceil(math.log2(nodes))


def test_unseparated_scan_and_guard(grid3):
    g = grid3
    tree = RegionTree(g)
    squares = finite_faces(g)
    for f in squares[:3]:
        insert_face_boundary(tree, f)

    last = squares[3]
    shared = [e for e in face_edges(g, last)
              if g.face_of[2 * e] == g.infinite_face
              or g.face_of[2 * e + 1] == g.infinite_face]
    assert shared
    found = regions_with_unseparated_pair(tree, ([shared[0]], [shared[0]]))
    assert found == {tree.root: tuple(sorted((last, g.infinite_face)))}

    inner = [e for e in face_edges(g, squares[0])
             if e in set(face_edges(g, squares[1]))]
    if inner:
        assert regions_with_unseparated_pair(tree, ([inner[0]], [inner[0]])) == {}

    # three faces of one region touching a merged group is an induction bug
    fresh = RegionTree(g)
    side_a = face_edges(g, squares[0])
    side_b = face_edges(g, squares[3])
    with pytest.raises(InductionViolated):
        regions_with_unseparated_pair(fresh, (side_a, side_b))


def test_not_separating_rejected(grid3):
    g = grid3
    tree = RegionTree(g)
    squares = finite_faces(g)
    cyc = CompactCycle(g, orient_edge_cycle(g, face_edges(g, squares[0])))
    with pytest.raises(NotSeparating):
        tree.insert_cycle(cyc, tree.root, (squares[1], squares[2]))


def test_region_subpiece_runs(grid3):
    g = grid3
    tree = RegionTree(g)
    squares = finite_faces(g)
    ring = sorted({d >> 1 for d in g.faces[g.infinite_face]})
    insert_face_boundary(tree, squares[0])
    cyc = CompactCycle(g, orient_edge_cycle(g, ring))
    tree.insert_cycle(cyc, tree.root, (squares[1], g.infinite_face))
    r_ring = tree.parent(squares[1])
    assert tree.cycles[r_ring].edge_ids() == frozenset(ring)

    cross = [e for e in range(g.m) if e not in set(ring)
             and e not in set(face_edges(g, squares[0]))]
    darts = tree.cycles[r_ring].darts()
    run_edges = {darts[0] >> 1, darts[1] >> 1, darts[-1] >> 1}
    group = set(cross) | run_edges
    # interior group edges plus the group's part of the bounding cycle
    assert region_subpiece(tree, r_ring, group) == set(cross) | run_edges
    everything = set(range(g.m))
    ups = face_ancestors(tree)
    assert region_subpiece(tree, r_ring, everything) == {
        e for e in everything if reference_edge_in_region(g, ups, e, r_ring)}
    assert region_subpiece(tree, r_ring, everything) == \
        region_subpiece_by_home(tree, r_ring, everything)


def test_compact_cycle_checks_its_darts():
    g = grid_graph(3, 3, rng=random.Random(4))
    darts = orient_edge_cycle(g, face_edges(g, finite_faces(g)[0]))
    cyc = CompactCycle(g, darts)
    assert cyc.darts() == tuple(darts)
    assert cyc.nedges == len(cyc) == len(darts)
    total = 0
    for d in darts:
        total = total + g.weights[d >> 1]
    assert cyc.weight == total
    assert len(set(g.weights[d >> 1] for d in darts)) > 1
    with pytest.raises(InternalAssertion):
        CompactCycle(g, [])
    with pytest.raises(InternalAssertion):
        CompactCycle(g, darts[:-1])
    with pytest.raises(InternalAssertion):
        CompactCycle(g, [darts[0], darts[2], darts[1], darts[3]])


# -- face classes during builds ------------------------------------------------

def face_ancestors(tree):
    """Face -> its ancestors, nearest first, by walking parent pointers."""
    out = {}
    for f in range(tree.n_faces):
        up = [f]
        while tree.parent(up[-1]) is not None:
            up.append(tree.parent(up[-1]))
        out[f] = up
    return out


def reference_edge_in_region(g, ups, e, region):
    """An edge belongs to a region when exactly one face is below it, or
    both are and the region is the edge's home (lca of its faces)."""
    f1, f2 = g.face_of[2 * e], g.face_of[2 * e + 1]
    up1, up2 = ups[f1], ups[f2]
    d1, d2 = region in up1, region in up2
    if d1 != d2:
        return True
    if not d1:
        return False
    on2 = set(up2)
    return next(x for x in up1 if x in on2) == region


def check_edge_in_region(tree):
    """`region_subpiece` over every edge keeps exactly the edges of each
    region's closed graph."""
    ups = face_ancestors(tree)
    every = range(tree.g.m)
    for r in tree.children:
        assert region_subpiece(tree, r, every) == {
            e for e in every if reference_edge_in_region(tree.g, ups, e, r)}, r


def test_edge_in_region_with_a_bridge():
    """A pendant edge inside a square has that face on both sides.  The
    oracle's host never has one (see test_oracle), and the tree refuses
    it rather than classify it."""
    base = grid_graph(3, 3)
    pts = [(float(c), float(r)) for r in range(3) for c in range(3)]
    edges = [base.endpoints(e) for e in range(base.m)] + [(4, 9)]
    g = embedding_from_coordinates(pts + [(0.5, 0.5)], edges)
    bridge = g.m - 1
    assert g.face_of[2 * bridge] == g.face_of[2 * bridge + 1]
    with pytest.raises(InternalAssertion):
        RegionTree(g)


@pytest.mark.parametrize("name", ["strip", "delaunay"])
def test_build_classifies_each_face_once_per_insert(name, monkeypatch):
    from planarcut.dynamic_tree import DynamicTree
    from planarcut.oracle import build_oracle

    g = (grid_graph(3, 16, rng=random.Random(5)) if name == "strip"
         else random_delaunay_graph(12, seed=0))
    current = [None]
    asked = []
    real_child_toward = DynamicTree.child_toward
    real_insert = RegionTree.insert_cycle

    def child_toward(self, ancestor, item):
        if current[0] is not None:
            asked.append((current[0], item))
        return real_child_toward(self, ancestor, item)

    def insert_cycle(self, *args, **kwargs):
        current[0] = self.stats["inserts"]
        try:
            return real_insert(self, *args, **kwargs)
        finally:
            current[0] = None

    checked = [0]

    def hook(tree, cycle, region):
        check_edge_in_region(tree)
        checked[0] += 1

    monkeypatch.setattr(DynamicTree, "child_toward", child_toward)
    monkeypatch.setattr(RegionTree, "insert_cycle", insert_cycle)
    orc = build_oracle(g, insert_hook=hook)
    assert checked[0] == orc.stats["inserts"] > 0
    assert asked
    assert len(asked) == len(set(asked)), "a face was classified twice"
