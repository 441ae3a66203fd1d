import random

import pytest

from planarcut.errors import (Disconnected, InputError, NegativeWeight,
                              NonPlanarEmbedding, WeightTooLarge)
from planarcut.generators import (embedding_from_coordinates, grid_graph,
                                  random_delaunay_graph, random_grid_subgraph,
                                  theta_graph, triangle_graph)
from planarcut.planar_core import (PlanarEmbedding, add_bounding_cycle,
                                   build_embedding, cut_cycle_duality_check,
                                   degree_three_transform, dual,
                                   subdivide_to_simple, triangulate)
from planarcut.oracle import HostChain, build_oracle
from planarcut.weights import (BASE_LIMIT, EPS_EDGE, INF_EDGE, TieBreakWeight,
                               unpack)

W = TieBreakWeight


def euler_ok(g):
    return g.n - g.m + len(g.faces) == 2


def is_simple(g):
    seen = set()
    for e in range(g.m):
        u, v = g.endpoints(e)
        if u == v:
            return False
        key = (u, v) if u <= v else (v, u)
        if key in seen:
            return False
        seen.add(key)
    return all(len(orbit) >= 3 for orbit in g.faces)


def finite_base_total(g):
    return sum(base for inf, base, _, _ in map(unpack, g.weights) if inf == 0)


# -- construction and validation ----------------------------------------------

def test_triangle_structure(tri):
    assert (tri.n, tri.m, len(tri.faces)) == (3, 3, 2)
    assert euler_ok(tri)
    assert all(len(f) == 3 for f in tri.faces)
    assert tri.edge_weight(1) == W.of(2)
    assert sorted(tri.endpoints(0)) == [0, 1]


def test_grid_structure(grid3):
    assert (grid3.n, grid3.m, len(grid3.faces)) == (9, 12, 5)
    assert len(grid3.faces[grid3.infinite_face]) == 8
    inner = [f for i, f in enumerate(grid3.faces) if i != grid3.infinite_face]
    assert all(len(f) == 4 for f in inner)


def test_theta_structure(theta):
    assert (theta.n, theta.m, len(theta.faces)) == (5, 6, 3)
    assert all(len(f) == 4 for f in theta.faces)


def test_dart_primitives(tri):
    for e in range(tri.m):
        d, r = tri.darts_of(e)
        assert tri.rev(d) == r
        assert tri.edge_of(d) == e
        assert tri.head[r] == tri.tail(d)


def test_twisted_rotation_rejected():
    # K4 embedded from coordinates is planar; swapping one rotation is not
    pts = [(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (2.0, 1.0)]
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]
    g = embedding_from_coordinates(pts, edges)
    assert euler_ok(g)
    rotations = [[d >> 1 for d in g.out[v]] for v in range(g.n)]
    rotations[3] = [rotations[3][0], rotations[3][2], rotations[3][1]]
    with pytest.raises(NonPlanarEmbedding):
        build_embedding(g.n, [g.endpoints(e) for e in range(g.m)],
                        list(g.weights), rotations)


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        build_embedding(4, [(0, 1), (2, 3)], [W.of(1), W.of(1)],
                        [[0], [0], [1], [1]])


def test_negative_weight_rejected():
    with pytest.raises(NegativeWeight):
        build_embedding(2, [(0, 1)], [W.of(-1)], [[0], [0]])


def test_total_weight_bound():
    below = build_embedding(2, [(0, 1), (0, 1)],
                            [W.of(BASE_LIMIT - 2), W.of(1)], [[0, 1], [1, 0]])
    # a cut or cycle of the whole total fits its rung
    assert build_oracle(below).query_weight(0, 1) == BASE_LIMIT - 1
    assert build_oracle(below, mode="mcb").mcb()[0][1] == BASE_LIMIT - 1
    with pytest.raises(WeightTooLarge):
        build_embedding(2, [(0, 1), (0, 1)], [W.of(BASE_LIMIT - 1), W.of(1)],
                        [[0, 1], [1, 0]])
    # a single base too wide for its rung is refused as well
    with pytest.raises(WeightTooLarge):
        build_embedding(2, [(0, 1)], [W.of(2 * BASE_LIMIT)], [[0], [0]])


def test_self_loop_and_parallel_edges_build():
    loop = build_embedding(1, [(0, 0)], [W.of(5)], [[0, 0]])
    assert (loop.n, loop.m, len(loop.faces)) == (1, 1, 2)
    para = build_embedding(2, [(0, 1), (0, 1)], [W.of(1), W.of(2)],
                           [[0, 1], [1, 0]])
    assert (para.n, para.m, len(para.faces)) == (2, 2, 2)
    assert para.edges_between(1, 0) == [0, 1]


# -- duality -------------------------------------------------------------------

def test_dual_counts(grid3):
    dg = dual(grid3)
    assert dg.n == len(grid3.faces)
    assert dg.m == grid3.m
    assert len(dg.faces) == grid3.n
    assert euler_ok(dg)


def test_dual_faces_are_primal_vertices(grid3, theta):
    for g in (grid3, theta):
        dg = dual(g)
        f2v = [g.head[orbit[0]] for orbit in dg.faces]
        for d in range(2 * g.m):
            assert f2v[dg.face_of[d]] == g.head[d]


def test_dual_is_involution(grid3):
    dg = dual(grid3)
    ddg = dual(dg)
    assert ddg.n == grid3.n or ddg.n == len(dg.faces)
    # dart d heads the dual face standing for its primal head vertex
    f2v = [grid3.head[orbit[0]] for orbit in dg.faces]
    for d in range(2 * grid3.m):
        assert f2v[ddg.head[d]] == grid3.head[d]


def test_dual_of_triangle_is_parallel_pair_bundle(tri):
    dg = dual(tri)
    assert (dg.n, dg.m) == (2, 3)
    assert all(sorted(dg.endpoints(e)) == [0, 1] for e in range(3))


def test_duality_check_on_known_sets(tri, grid3):
    assert cut_cycle_duality_check(tri, {0, 1, 2}) == (True, True)
    assert cut_cycle_duality_check(tri, {0, 1}) == (False, False)
    face = [f for i, f in enumerate(grid3.faces) if i != grid3.infinite_face][0]
    cyc = {d >> 1 for d in face}
    assert cut_cycle_duality_check(grid3, cyc) == (True, True)


def test_duality_check_agrees_on_random_sets(grid3):
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(1, grid3.m)
        edge_set = set(rng.sample(range(grid3.m), k))
        a, b = cut_cycle_duality_check(grid3, edge_set)
        assert a == b, f"cycle/bond disagreement on {sorted(edge_set)}"


def test_duality_check_agrees_on_random_delaunay():
    g = random_delaunay_graph(24, seed=3)
    rng = random.Random(11)
    for _ in range(150):
        k = rng.randint(2, min(12, g.m))
        edge_set = set(rng.sample(range(g.m), k))
        a, b = cut_cycle_duality_check(g, edge_set)
        assert a == b


# -- subdivide_to_simple -------------------------------------------------------

def test_subdivide_noop_on_simple_graph(theta):
    g2, trace = subdivide_to_simple(theta)
    assert g2.m == theta.m
    assert g2.n == theta.n
    assert is_simple(g2)


def test_subdivide_parallel_bundle(tri):
    dg = dual(tri)
    g2, trace = subdivide_to_simple(dg)
    assert is_simple(g2)
    assert euler_ok(g2)
    assert finite_base_total(g2) == finite_base_total(dg)
    added = range(dg.m, g2.m)
    assert len(added) == 2
    assert all(g2.edge_weight(e) == 0 for e in added)


def test_subdivide_self_loop():
    g = build_embedding(1, [(0, 0)], [W.of(4)], [[0, 0]])
    g2, _ = subdivide_to_simple(g)
    assert is_simple(g2)
    assert (g2.n, g2.m) == (3, 3)
    assert finite_base_total(g2) == 4


def test_subdivide_single_edge():
    g = build_embedding(2, [(0, 1)], [W.of(3)], [[0], [0]])
    g2, _ = subdivide_to_simple(g)
    assert euler_ok(g2)
    assert all(len(f) >= 3 for f in g2.faces)
    assert finite_base_total(g2) == 3


def test_subdivide_keeps_infinite_face(grid3):
    g2, trace = subdivide_to_simple(grid3)
    assert trace.face_cover[g2.infinite_face] == grid3.infinite_face


# -- triangulate ---------------------------------------------------------------

def test_triangulate_grid(grid3):
    g2, trace = triangulate(grid3, list(range(len(grid3.faces))))
    assert euler_ok(g2)
    assert all(len(f) == 3 for f in g2.faces)
    added = range(grid3.m, g2.m)
    # each size-k face takes k-3 chords: four quads and the outer octagon
    assert len(added) == 4 * 1 + 5
    assert all(g2.edge_weight(e) == INF_EDGE for e in added)
    assert finite_base_total(g2) == finite_base_total(grid3)


def test_triangulate_respects_face_restriction(grid3):
    inf = grid3.infinite_face
    finite = [f for f in range(len(grid3.faces)) if f != inf]
    g2, trace = triangulate(grid3, faces=finite)
    assert trace.face_cover[g2.infinite_face] == inf
    assert len(g2.faces[g2.infinite_face]) == 8
    others = [f for f in range(len(g2.faces)) if f != g2.infinite_face]
    assert all(len(g2.faces[f]) == 3 for f in others)


def test_triangulate_face_cover_is_consistent(grid3):
    g2, trace = triangulate(grid3, list(range(len(grid3.faces))))
    for f2, orbit in enumerate(g2.faces):
        f1 = trace.face_cover[f2]
        for d in orbit:
            od = trace.dart_origin[d]
            if od != -1:
                assert grid3.face_of[od] == f1


# -- add_bounding_cycle --------------------------------------------------------

def test_bounding_cycle_on_triangle(tri):
    g2, trace = add_bounding_cycle(tri)
    assert euler_ok(g2)
    assert g2.n == tri.n + 3
    ring = sorted({d >> 1 for d in g2.faces[g2.infinite_face]})
    assert len(ring) == 3
    assert all(g2.edge_weight(e) == 0 for e in ring)
    assert all(len(f) == 3 for f in g2.faces)
    assert len(g2.faces[g2.infinite_face]) == 3
    sky = set(range(tri.n, g2.n))
    assert {g2.head[d] for d in g2.faces[g2.infinite_face]} == sky
    spokes = [e for e in range(tri.m, g2.m) if e not in ring]
    assert len(spokes) == 3 + 3
    assert all(g2.edge_weight(e) == INF_EDGE for e in spokes)
    assert finite_base_total(g2) == finite_base_total(tri)


def test_bounding_cycle_on_octagon_walk(grid3):
    g2, trace = add_bounding_cycle(grid3)
    assert euler_ok(g2)
    # old finite faces untouched; three sky edges and two spokes per split
    assert g2.m == grid3.m + 3 + 6
    ring_faces = [f for f in range(len(g2.faces))
                  if trace.face_cover[f] == grid3.infinite_face
                  and f != g2.infinite_face]
    # splits at walk positions 0, 2 and 5 of 8: arcs of 2, 3 and 3 edges
    # closed by two spokes each, and one spoke triangle per split
    assert sorted(len(g2.faces[f]) for f in ring_faces) == [3, 3, 3, 4, 5, 5]


def star_graph():
    return build_embedding(5, [(0, 1), (0, 2), (0, 3), (0, 4)],
                           [W.of(1)] * 4, [[0, 1, 2, 3], [0], [1], [2], [3]])


def path_graph():
    return build_embedding(5, [(0, 1), (1, 2), (2, 3), (3, 4)],
                           [W.of(1)] * 4, [[0], [0, 1], [1, 2], [2, 3], [3]])


@pytest.mark.parametrize("make", [star_graph, path_graph],
                         ids=["star", "path"])
def test_bounding_cycle_on_walk_that_repeats_a_vertex(make):
    g = make()
    walk = g.faces[g.infinite_face]
    assert len({g.head[d] for d in walk}) < len(walk)
    g2, _ = add_bounding_cycle(g)
    assert euler_ok(g2)
    assert g2.m == g.m + 3 + 6
    spokes = [e for e in range(g.m, g2.m) if g2.edge_weight(e) == INF_EDGE]
    assert len(spokes) == 6
    assert len({min(g2.endpoints(e)) for e in spokes}) == 3
    # the chord pass takes the pinched sky arcs: no edge is left with one
    # face on both sides
    for dualize in (True, False):
        host = HostChain(g, dualize).host
        assert all(host.face_of[2 * e] != host.face_of[2 * e + 1]
                   for e in range(host.m))


def test_bounding_cycle_needs_room():
    g = build_embedding(2, [(0, 1)], [W.of(1)], [[0], [0]])
    with pytest.raises(InputError):
        add_bounding_cycle(g)


# -- degree_three_transform ----------------------------------------------------

def copies_of(g, g2, trace, v):
    """Vertices of g2 that carry darts of g leaving v."""
    return {g2.head[d ^ 1] for d in range(2 * g2.m)
            if trace.dart_origin[d] != -1
            and g.head[trace.dart_origin[d] ^ 1] == v}


def test_degree_three_on_grid(grid3):
    g2, trace = degree_three_transform(grid3)
    assert euler_ok(g2)
    assert max(len(r) for r in g2.out) <= 3
    # only the centre vertex (degree 4) expands, into two copies
    assert g2.n == grid3.n + 1
    assert len(g2.faces) == len(grid3.faces)
    assert copies_of(grid3, g2, trace, 4) == {4, 9}
    eps = range(grid3.m, g2.m)
    assert len(eps) == 1
    assert set(g2.endpoints(eps[0])) == {4, 9}
    assert g2.edge_weight(eps[0]) == EPS_EDGE
    assert finite_base_total(g2) == finite_base_total(grid3)


def test_degree_three_on_star():
    # wheel hub of degree 8
    import math
    pts = [(0.0, 0.0)]
    pts += [(math.cos(i * math.tau / 8), math.sin(i * math.tau / 8)) for i in range(8)]
    edges = [(0, i + 1) for i in range(8)]
    edges += [(i + 1, (i + 1) % 8 + 1) for i in range(8)]
    g = embedding_from_coordinates(pts, edges)
    g2, trace = degree_three_transform(g)
    assert euler_ok(g2)
    assert max(len(r) for r in g2.out) <= 3
    assert g2.n == g.n + 5
    assert len(g2.faces) == len(g.faces)
    assert len(copies_of(g, g2, trace, 0)) == 6
    # faces gain at most one epsilon edge per corner at an expanded vertex
    for orbit in g2.faces:
        eps_darts = sum(1 for d in orbit if trace.dart_origin[d] == -1)
        real = len(orbit) - eps_darts
        assert real >= 3 or len(orbit) <= 2 * real


def test_degree_three_keeps_dual_loops_working():
    # dual of the grid has a high-degree vertex for the outer face
    g = dual(grid_graph(4, 4))
    g2, trace = degree_three_transform(g)
    assert euler_ok(g2)
    assert max(len(r) for r in g2.out) <= 3
    assert len(g2.faces) == len(g.faces)
    assert finite_base_total(g2) == finite_base_total(g)


# -- the full preparation chain ------------------------------------------------

def test_full_chain_on_dual_grid():
    g0 = dual(grid_graph(3, 3, rng=random.Random(5)))
    g1, t1 = subdivide_to_simple(g0)
    assert is_simple(g1)
    g2, t2 = add_bounding_cycle(g1)
    finite = [f for f in range(len(g2.faces)) if f != g2.infinite_face]
    g3, t3 = triangulate(g2, faces=finite)
    assert all(len(f) == 3 for f in g3.faces)
    g4, t4 = degree_three_transform(g3)
    assert max(len(r) for r in g4.out) <= 3
    assert min(len(r) for r in g4.out) >= 2
    assert euler_ok(g4)
    assert finite_base_total(g4) == finite_base_total(g0)


def test_full_chain_on_random_subgraph():
    g0 = dual(random_grid_subgraph(4, 4, seed=2, keep=0.7))
    g1, _ = subdivide_to_simple(g0)
    assert is_simple(g1)
    g2, _ = add_bounding_cycle(g1)
    finite = [f for f in range(len(g2.faces)) if f != g2.infinite_face]
    g3, _ = triangulate(g2, faces=finite)
    assert all(len(f) == 3 for f in g3.faces)
    g4, _ = degree_three_transform(g3)
    assert max(len(r) for r in g4.out) <= 3
    assert euler_ok(g4)
    assert finite_base_total(g4) == finite_base_total(g0)
