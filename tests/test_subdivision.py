import math
import random

import pytest

from planarcut import subdivision
from planarcut.errors import InternalAssertion
from planarcut.generators import (grid_graph, random_delaunay_graph,
                                  random_grid_subgraph, triangle_graph)
from planarcut.oracle import HostChain
from planarcut.planar_core import build_embedding
from planarcut.subdivision import (R, recursive_subdivide, _bfs_farthest,
                                   _best_level, _connected_edge_groups,
                                   _dart_counts)
from planarcut.weights import TieBreakWeight


def check_invariants(sd):
    g = sd.g
    assert sorted(sd.pieces[sd.root].edges) == list(range(g.m))
    assert sd.pieces[sd.root].boundary == []
    for p in sd.pieces:
        # connectivity
        assert len(_connected_edge_groups(g, set(p.edges))) == 1
        # vertices derived from edges
        vs = set()
        for e in p.edges:
            vs.update(g.endpoints(e))
        assert p.vertices == sorted(vs)
        # boundary by global incidence
        eset = set(p.edges)
        want = [v for v in p.vertices
                if any((d >> 1) not in eset for d in g.out[v])]
        assert p.boundary == want
        if p.is_leaf:
            assert len(p.edges) == 1
        else:
            combined = []
            for c in p.children:
                child = sd.pieces[c]
                assert child.parent == p.id
                assert child.depth == p.depth + 1
                assert 0 < len(child.edges) < len(p.edges)
                combined.extend(child.edges)
            assert sorted(combined) == p.edges
            # siblings only meet at boundary vertices
            for i, a in enumerate(p.children):
                for b in p.children[i + 1:]:
                    shared = set(sd.pieces[a].vertices) & set(sd.pieces[b].vertices)
                    assert shared <= set(sd.pieces[a].boundary)
                    assert shared <= set(sd.pieces[b].boundary)
    for e in range(g.m):
        leaf = sd.pieces[sd.edge_leaf[e]]
        assert leaf.is_leaf and leaf.edges == [e]


def test_grid_structure():
    g = grid_graph(3, 3)
    sd = recursive_subdivide(g)
    check_invariants(sd)
    # a split tree with one leaf per edge
    assert g.m + 1 <= sd.stats["pieces"] <= 2 * g.m - 1
    assert sd.stats["depth"] <= 12
    levels = sd.levels()
    assert sum(len(l) for l in levels) == len(sd.pieces)
    assert levels[0] == [sd.root]


def test_single_edge_graph_is_one_leaf():
    from planarcut.planar_core import build_embedding
    g = build_embedding(2, [(0, 1)], [TieBreakWeight.of(7)], [[0], [0]])
    sd = recursive_subdivide(g)
    assert len(sd.pieces) == 1
    assert sd.pieces[0].is_leaf
    assert sd.edge_leaf == [0]


def test_triangle_subdivision():
    sd = recursive_subdivide(triangle_graph(1, 2, 3))
    check_invariants(sd)
    # parallel edges between two vertices all lie below level 1, so no
    # level splits them and the fallback must run
    from planarcut.planar_core import build_embedding
    g = build_embedding(2, [(0, 1)] * 3, [TieBreakWeight.of(1)] * 3,
                        [[0, 1, 2], [2, 1, 0]])
    sd = recursive_subdivide(g)
    check_invariants(sd)
    assert sd.stats["fallback_splits"] >= 1


def test_fallback_split_without_progress_raises(monkeypatch):
    # a fallback split whose group is the whole piece would requeue it
    # forever; it must raise, also under `python -O`
    g = triangle_graph(1, 2, 3)
    monkeypatch.setattr(subdivision, "_connected_edge_groups",
                        lambda g, edges: [set(range(g.m))])
    with pytest.raises(InternalAssertion, match="no progress"):
        recursive_subdivide(g)


def test_path_graph_tree_fallback():
    from planarcut.planar_core import build_embedding
    n = 9
    edges = [(i, i + 1) for i in range(n - 1)]
    rot = [[0]] + [[i - 1, i] for i in range(1, n - 1)] + [[n - 2]]
    g = build_embedding(n, edges, [TieBreakWeight.of(1)] * (n - 1), rot)
    sd = recursive_subdivide(g)
    check_invariants(sd)
    assert sd.stats["fallback_splits"] == 0
    assert sd.stats["depth"] <= 2 * math.ceil(math.log2(n)) + 2


@pytest.mark.parametrize("seed", [3, 11, 27])
def test_delaunay_invariants(seed):
    g = random_delaunay_graph(24, seed=seed)
    sd = recursive_subdivide(g)
    check_invariants(sd)
    assert sd.stats["depth"] <= 40


@pytest.mark.parametrize("seed", [5, 19])
def test_sparse_grid_invariants(seed):
    g = random_grid_subgraph(5, 5, seed=seed, keep=0.55)
    sd = recursive_subdivide(g)
    check_invariants(sd)


def test_separator_splits_used_on_larger_graphs():
    g = grid_graph(6, 6)
    sd = recursive_subdivide(g)
    check_invariants(sd)
    assert sd.stats["level_splits"] > 0
    assert sd.stats["max_boundary"] <= g.n // 2


def own_embedding(g, piece):
    """The piece's edges as an embedding of their own, with the host's
    rotation order at each vertex."""
    v_sub = {v: i for i, v in enumerate(piece.vertices)}
    e_sub = {e: i for i, e in enumerate(piece.edges)}
    edges = [tuple(v_sub[x] for x in g.endpoints(e)) for e in piece.edges]
    rotations = [[e_sub[d >> 1] for d in g.out[v] if (d >> 1) in e_sub]
                 for v in piece.vertices]
    return build_embedding(len(piece.vertices), edges,
                           [g.weights[e] for e in piece.edges], rotations)


def test_hole_faces_match_own_embedding():
    # host-rotation face tracing must count the faces of the piece's own
    # embedding that touch its boundary
    g = grid_graph(5, 4)
    sd = recursive_subdivide(g)
    assert sd.hole_faces(sd.root) == 0
    for p in sd.pieces:
        sub = own_embedding(g, p)
        bset = {p.vertices.index(v) for v in p.boundary}
        want = sum(1 for orbit in sub.faces
                   if any(sub.head[d] in bset for d in orbit))
        assert sd.hole_faces(p.id) == want
        if p.boundary:
            assert want >= 1


def test_levels_cover_each_edge_once_per_level():
    g = grid_graph(4, 5)
    sd = recursive_subdivide(g)
    for level in sd.levels():
        seen = []
        for pid in level:
            seen.extend(sd.pieces[pid].edges)
        # pieces at one level never share an edge
        assert len(seen) == len(set(seen))


# -- level cuts ------------------------------------------------------------------

def cut_host(g):
    return HostChain(g, dualize=True).host


LEVEL_GRAPHS = {
    "strip": lambda: cut_host(grid_graph(3, 64, rng=random.Random(1))),
    "delaunay": lambda: cut_host(random_delaunay_graph(50, seed=0)),
    "grid": lambda: cut_host(grid_graph(8, 8, rng=random.Random(2))),
    "sparse": lambda: random_grid_subgraph(8, 8, seed=4, keep=0.45),
}


def test_strip_tabled_pieces_have_small_boundaries():
    # fundamental cycles alone split this strip along its length, leaving
    # pieces of 31-71 edges with 20-26 boundary vertices
    sd = recursive_subdivide(cut_host(grid_graph(3, 64)))
    check_invariants(sd)
    tabled = [p for p in sd.pieces if p.parent < 0 or len(p.edges) > R]
    assert max(len(p.boundary) for p in tabled) <= 12
    assert sd.stats["level_splits"] > 0
    assert sd.stats["boundary_square_sum"] == sum(len(p.boundary) ** 2
                                                  for p in tabled)
    assert sd.stats["max_boundary_ratio"] == round(max(
        len(p.boundary) / len(p.edges) ** 0.5 for p in tabled), 3)


@pytest.mark.parametrize("name", sorted(LEVEL_GRAPHS))
def test_level_splits_are_balanced_connected_partitions(name, monkeypatch):
    split = subdivision._split
    seen = []

    def recorded(sd, piece):
        groups, rule = split(sd, piece)
        if rule == "level_splits":
            seen.append((piece, groups))
        return groups, rule

    monkeypatch.setattr(subdivision, "_split", recorded)
    sd = recursive_subdivide(LEVEL_GRAPHS[name]())
    check_invariants(sd)
    assert len(seen) == sd.stats["level_splits"] > 0
    for piece, groups in seen:
        assert len(groups) >= 2
        assert max(len(p) for p in groups) <= max(2, len(piece.edges) * 17
                                                  // 20)
        assert sorted(e for p in groups for e in p) == piece.edges
        for p in groups:
            assert len(_connected_edge_groups(sd.g, p)) == 1


def boundary_size(g, edges):
    return sum(1 for v, k in _dart_counts(g, edges).items()
               if k < len(g.out[v]))


def brute_best_level(g, piece, dist, cap):
    """The best level by building both sides of every level outright."""
    best = None
    for level in range(1, max(dist.values()) + 1):
        below, above = set(), set()
        for e in piece.edges:
            u, v = g.endpoints(e)
            side = below if min(dist[u], dist[v]) < level else above
            side.add(e)
        if not above:
            break
        larger = max(len(below), len(above))
        if larger <= cap:
            score = max(boundary_size(g, below), boundary_size(g, above))
            got = (score, larger, level)
            if best is None or got < best:
                best = got
    return best


@pytest.mark.parametrize("name", sorted(LEVEL_GRAPHS))
def test_level_scores_match_built_sides(name):
    # the prefix sums over one distance array must give each level the
    # boundary its two sides really have
    sd = recursive_subdivide(LEVEL_GRAPHS[name]())
    checked = 0
    for piece in sd.pieces:
        if len(piece.edges) < 3:
            continue
        # once built, edge_leaf names leaves; give this piece its edges back
        owner = [-1] * sd.g.m
        for e in piece.edges:
            owner[e] = piece.id
        bset = set(piece.boundary)
        cap = max(2, len(piece.edges) * 17 // 20)
        a, _ = _bfs_farthest(sd.g, owner, piece.id, piece.vertices[0])
        for start in (a, piece.vertices[-1]):
            _, dist = _bfs_farthest(sd.g, owner, piece.id, start)
            assert sorted(dist) == piece.vertices
            assert _best_level(sd.g.head, piece.edges, dist, bset, cap) == \
                brute_best_level(sd.g, piece, dist, cap)
            checked += 1
    assert checked > 20
