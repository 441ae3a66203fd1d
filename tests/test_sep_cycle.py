import pytest

import planarcut.sep_cycle
from planarcut.baseline import dinic_min_cut
from planarcut.ddg import build_ddgs
from planarcut.generators import (grid_graph, random_delaunay_graph,
                                  theta_graph)
from planarcut.planar_core import build_embedding, dual
from planarcut.region_tree import CompactCycle, RegionTree
from planarcut.sep_cycle import (PieceContext, _beats, _canonical_darts,
                                 min_separating_cycle_fast,
                                 min_separating_cycle_safe, new_stats)
from planarcut.weights import TieBreakWeight, unpack
from planarcut.subdivision import recursive_subdivide


def separates(g, edge_ids, fa, fb):
    """Dual-side check: removing the cycle's dual edges disconnects fa, fb."""
    dg = dual(g)
    seen = {fa}
    stack = [fa]
    while stack:
        f = stack.pop()
        for d in dg.out[f]:
            if (d >> 1) in edge_ids:
                continue
            nf = dg.head[d]
            if nf not in seen:
                seen.add(nf)
                stack.append(nf)
    return fb not in seen


def check_cycle_shape(g, cyc):
    darts = cyc.darts()
    assert darts
    heads = [g.head[d] for d in darts]
    assert len(set(heads)) == len(heads)
    assert len({d >> 1 for d in darts}) == len(darts)
    for i, d in enumerate(darts):
        assert g.tail(d) == heads[i - 1]
    assert cyc.nedges == len(darts)


def all_face_pairs(g):
    nf = len(g.faces)
    return [(a, b) for a in range(nf) for b in range(a + 1, nf)]


@pytest.mark.parametrize("make", [
    lambda: grid_graph(3, 3),
    lambda: grid_graph(4, 3),
    lambda: theta_graph(1, 2),
    lambda: random_delaunay_graph(10, 3),
    lambda: random_delaunay_graph(14, 8),
], ids=["grid3", "grid4x3", "theta", "delaunay10", "delaunay14"])
def test_safe_engine_matches_dual_min_cut(make):
    g = make()
    dg = dual(g)
    tree = RegionTree(g)
    for fa, fb in all_face_pairs(g):
        cyc = min_separating_cycle_safe(g, tree, tree.root, fa, fb,
                                        new_stats())
        check_cycle_shape(g, cyc)
        assert separates(g, cyc.edge_ids(), fa, fb)
        inf, base, _, _ = unpack(cyc.weight)
        assert inf == 0
        assert dinic_min_cut(dg, fa, fb)[0] == base


def test_adjacent_faces_cross_at_shared_vertex():
    # faces sharing an edge force that edge into every separating cycle,
    # and the cut path degenerates to a single split vertex
    g = grid_graph(3, 3)
    tree = RegionTree(g)
    e = 0
    fa = g.face_of[2 * e]
    fb = g.face_of[2 * e + 1]
    assert fa != fb
    stats = new_stats()
    cyc = min_separating_cycle_safe(g, tree, tree.root, fa, fb, stats)
    assert e in cyc.edge_ids()
    assert stats["dijkstras"] >= 2
    assert separates(g, cyc.edge_ids(), fa, fb)


def test_safe_engine_is_deterministic():
    g = random_delaunay_graph(12, 4)
    tree = RegionTree(g)
    for fa, fb in all_face_pairs(g)[:20]:
        one = min_separating_cycle_safe(g, tree, tree.root, fa, fb,
                                        new_stats())
        two = min_separating_cycle_safe(g, tree, tree.root, fa, fb,
                                        new_stats())
        swapped = min_separating_cycle_safe(g, tree, tree.root, fb, fa,
                                            new_stats())
        assert one.darts() == two.darts()
        assert one.darts() == swapped.darts()


def group_face_pairs(g, edges):
    pairs = set()
    for e in sorted(edges):
        fa = g.face_of[2 * e]
        fb = g.face_of[2 * e + 1]
        if fa != fb:
            pairs.add((min(fa, fb), max(fa, fb)))
    return sorted(pairs)


@pytest.mark.parametrize("make", [
    lambda: grid_graph(3, 3),
    lambda: grid_graph(4, 4),
    lambda: random_delaunay_graph(12, 5),
], ids=["grid3", "grid4", "delaunay12"])
def test_fast_engine_matches_safe_on_whole_pieces(make):
    g = make()
    sd = recursive_subdivide(g)
    ddgs = build_ddgs(sd)
    tree = RegionTree(g)
    checked = 0
    for piece in sd.pieces:
        if piece.parent == -1 or len(piece.edges) < 3:
            continue
        ctx = PieceContext(g, tree, sd, ddgs, piece.id, set(piece.edges))
        for fa, fb in group_face_pairs(g, piece.edges)[:4]:
            safe = min_separating_cycle_safe(g, tree, tree.root, fa, fb,
                                             new_stats())
            fast = min_separating_cycle_fast(ctx, tree.root, fa, fb,
                                             new_stats())
            assert fast.darts() == safe.darts()
            assert fast.weight == safe.weight
            checked += 1
    assert checked >= 4


def test_fast_engine_with_sibling_tables():
    g = grid_graph(4, 4)
    sd = recursive_subdivide(g)
    ddgs = build_ddgs(sd)
    tree = RegionTree(g)
    checked = 0
    for piece in sd.pieces:
        if piece.is_leaf or piece.parent == -1:
            continue
        for kid in piece.children:
            group = set(sd.pieces[kid].edges)
            if len(group) < 2:
                continue
            sibs = [c for c in piece.children if c != kid]
            ctx = PieceContext(g, tree, sd, ddgs, piece.id, group, sibs)
            for fa, fb in group_face_pairs(g, group)[:2]:
                safe = min_separating_cycle_safe(g, tree, tree.root, fa, fb,
                                                 new_stats())
                stats = new_stats()
                fast = min_separating_cycle_fast(ctx, tree.root, fa, fb,
                                                 stats=stats)
                assert fast.darts() == safe.darts()
                checked += 1
    assert checked >= 4


def is_rotation(a, b) -> bool:
    return len(a) == len(b) and any(b[i:] + b[:i] == a
                                    for i in range(len(b)))


def test_one_edge_leaves_walk_as_the_sweep_walks(monkeypatch):
    # a ring 0-1-...-5 with edges 1-2 and 3-4 doubled, all of weight 1: the
    # path closing edge 0 ties at two places.  Each one-edge leaf reads no
    # external table, finds the safe engine's cycle, and walks it in the
    # orientation of the safe engine's crossing sweep
    one = TieBreakWeight.of(1)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 2), (3, 4)]
    g = build_embedding(6, edges, [one] * len(edges),
                        [[0, 5], [0, 1, 6], [1, 2, 6], [2, 3, 7], [3, 4, 7],
                         [4, 5]])
    assert len(g.faces) == 4
    sd = recursive_subdivide(g)
    ddgs = build_ddgs(sd)
    tree = RegionTree(g)
    walks = []
    canonical = planarcut.sep_cycle._canonical_darts

    def recorded(darts):
        walks.append(list(darts))
        return canonical(darts)

    monkeypatch.setattr(planarcut.sep_cycle, "_canonical_darts", recorded)
    cycles = {}
    for piece in sd.pieces:
        if not piece.is_leaf:
            continue
        (e,) = piece.edges
        fa, fb = sorted((g.face_of[2 * e], g.face_of[2 * e + 1]))
        ctx = PieceContext(g, tree, sd, ddgs, piece.id, piece.edges)
        assert ctx.ext_table is None
        walks.clear()
        fast = min_separating_cycle_fast(ctx, tree.root, fa, fb, new_stats())
        safe = min_separating_cycle_safe(g, tree, tree.root, fa, fb,
                                         new_stats())
        assert fast.darts() == safe.darts()
        # the faces of an edge meet at its ends: one crossing vertex, one
        # candidate in the safe sweep
        fast_walk, safe_walk = walks
        assert is_rotation(fast_walk, safe_walk), e
        cycles[e] = fast.edge_ids()
    assert len(cycles) == len(edges)
    assert ddgs.stats["first_use_tables"] == 0
    assert cycles[0] == {0, 1, 2, 3, 4, 5}


def test_zero_length_cut_sides():
    # two faces meeting at one vertex: both sides of the split vertex exist
    # and the sweep still finds the separating cycle
    g = grid_graph(3, 3)
    tree = RegionTree(g)
    for fa, fb in all_face_pairs(g):
        shared = set(g.face_vertices(fa)) & set(g.face_vertices(fb))
        shared_edges = {d >> 1 for d in g.faces[fa]} & {d >> 1
                                                        for d in g.faces[fb]}
        if not shared or shared_edges:
            continue
        cyc = min_separating_cycle_safe(g, tree, tree.root, fa, fb,
                                        new_stats())
        assert separates(g, cyc.edge_ids(), fa, fb)
        assert shared & set(cyc.vertices(g))


def test_candidate_ladder_past_weight_and_length():
    """Among cycles of equal weight and length, the one holding the
    smallest uncommon vertex wins, then the one holding the smallest
    uncommon edge; a cycle never beats itself."""
    g = grid_graph(3, 3)
    squares = []
    for f in range(len(g.faces)):
        if f != g.infinite_face:
            darts = g.faces[f]
            squares.append(CompactCycle(g, _canonical_darts(darts)))
    first = [c for c in squares if 0 in c.vertices(g)]
    assert len(first) == 1 and len(squares) == 4
    for c in squares:
        assert not _beats(g, c, c)
        if c is not first[0]:
            assert _beats(g, first[0], c)
            assert not _beats(g, c, first[0])

    # three parallel edges of one weight: two-cycles on the same vertices
    one = TieBreakWeight.of(1)
    bundle = build_embedding(2, [(0, 1)] * 3, [one] * 3,
                             [[0, 1, 2], [2, 1, 0]])
    pair = {}
    for f, darts in enumerate(bundle.faces):
        pair[frozenset(d >> 1 for d in darts)] = CompactCycle(
            bundle, _canonical_darts(darts))
    lo, hi = pair[frozenset({0, 1})], pair[frozenset({1, 2})]
    assert _beats(bundle, lo, hi) and not _beats(bundle, hi, lo)
