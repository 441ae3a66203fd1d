import pytest

from planarcut.errors import EndpointMismatch
from planarcut.generators import embedding_from_coordinates, triangle_graph
from planarcut.weights import (Hop, PathChain, TieBreakWeight, compare_chains,
                               compare_paths, dart_hop, lex_dijkstra)

W = TieBreakWeight


def test_weight_order_is_lexicographic():
    assert W.of(3) < W.of(4)
    assert W.zero() < W.epsilon() < W.of(1)
    assert W.of(10**12) < W.infinite()
    # a single base unit dominates any pile of epsilons
    assert W(0, 1, 0) > W(0, 0, 10**9)
    # one infinite edge dominates any finite base
    assert W(1, 0, 0) > W(0, 10**18, 5)


def test_weight_addition_and_scaling():
    a = W(1, 5, 2)
    b = W(0, 7, 1)
    assert a + b == W(1, 12, 3)
    assert sum((a, a, a), W.zero()) == W(3, 15, 6)
    assert W.zero() + W.of(4) == W.of(4)
    assert not W.infinite().is_finite
    assert W.of(9).is_finite


def _chain(*darts_weights, start=0, heads=None):
    """Tiny builder: chain from `start` through (dart, weight, head) triples."""
    c = PathChain.source(start)
    for dart, w, head in darts_weights:
        c = c.extend(dart_hop(head, dart, W.of(w)))
    return c


def test_chain_accumulates_weight_and_edges():
    c = _chain((0, 2, 1), (4, 3, 2))
    assert c.weight == W.of(5)
    assert c.nedges == 2
    assert c.nodes() == [0, 1, 2]
    assert c.darts() == [0, 4]


def test_compare_chains_weight_then_length():
    a = _chain((0, 1, 1))
    b = _chain((2, 2, 1))
    assert compare_chains(a, b, int) == -1
    # same weight, fewer edges wins
    c = _chain((0, 2, 1))
    d = _chain((2, 1, 3), (4, 1, 1))
    assert compare_chains(c, d, int) == -1
    assert compare_chains(d, c, int) == 1


def test_compare_chains_vertex_index_rule():
    # 0 -> 3 -> 1 -> 5 versus 0 -> 1 -> 4 -> 5: same weight and length,
    # minimum over the symmetric difference is 3 vs 4
    a = _chain((0, 1, 3), (2, 1, 1), (4, 1, 5))
    b = _chain((6, 1, 1), (8, 1, 4), (10, 1, 5))
    assert compare_chains(a, b, int) == -1
    assert compare_chains(b, a, int) == 1


def test_compare_chains_shared_prefix_is_skipped():
    base = _chain((0, 1, 7))
    a = base.extend(dart_hop(2, 2, W.of(1))).extend(dart_hop(5, 4, W.of(1)))
    b = base.extend(dart_hop(3, 6, W.of(1))).extend(dart_hop(5, 8, W.of(1)))
    # suffixes diverge at vertices {2} vs {3}; the shared 7 must not matter
    assert compare_chains(a, b, int) == -1


def test_compare_chains_expands_on_suffix_min_collision():
    # both suffixes see minimum index 1, so exact sets decide: {3,1,5} vs {1,4,5}
    a = _chain((0, 1, 3), (2, 1, 1), (4, 1, 5))
    b = _chain((6, 1, 1), (8, 1, 4), (10, 1, 5))
    # bury the discriminating vertices inside compressed hops
    ca = PathChain.source(0).extend(
        Hop(5, W.of(3), 3, interior_min=1, first_dart=0, last_dart=4,
            expander=lambda h: [0, 2, 4]))
    cb = PathChain.source(0).extend(
        Hop(5, W.of(3), 3, interior_min=1, first_dart=6, last_dart=10,
            expander=lambda h: [6, 8, 10]))
    calls = []

    def expand_interior(hop):
        calls.append(hop)
        return {3, 1} if hop.first_dart == 0 else {1, 4}

    assert compare_chains(ca, cb, int, expand_interior) == -1
    assert calls, "tie on suffix minimum must trigger exact expansion"
    assert compare_chains(a, b, int) == compare_chains(ca, cb, int, expand_interior)


def test_compare_chains_dart_fallback_for_parallel_edges():
    a = _chain((0, 1, 1))
    b = _chain((2, 1, 1))
    assert compare_chains(a, b, int) == -1
    assert compare_chains(b, a, int) == 1
    assert compare_chains(a, _chain((0, 1, 1)), int) == 0


def _adj_from_edges(n, edge_list):
    """edge_list: (u, v, w) with edge ids by position; returns adj callable."""
    table = {v: [] for v in range(n)}
    for e, (u, v, w) in enumerate(edge_list):
        table[u].append(dart_hop(v, 2 * e, W.of(w)))
        table[v].append(dart_hop(u, 2 * e + 1, W.of(w)))
    return lambda v: table[v]


def test_lex_dijkstra_prefers_small_vertex_indices():
    # diamond: two equal shortest 0..3 paths, through 1 or through 2
    adj = _adj_from_edges(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])
    settled = lex_dijkstra(adj, [0])
    assert settled[3].nodes() == [0, 1, 3]
    assert settled[3].weight == W.of(2)


def test_lex_dijkstra_weight_beats_index():
    adj = _adj_from_edges(4, [(0, 1, 5), (0, 2, 1), (1, 3, 5), (2, 3, 1)])
    settled = lex_dijkstra(adj, [0])
    assert settled[3].nodes() == [0, 2, 3]
    assert settled[3].weight == W.of(2)


def test_lex_dijkstra_length_breaks_weight_ties():
    # 0-3 direct weight 2 versus 0-1-3 weight 2 in two edges
    adj = _adj_from_edges(4, [(0, 3, 2), (0, 1, 1), (1, 3, 1)])
    settled = lex_dijkstra(adj, [0])
    assert settled[3].nedges == 1
    assert settled[3].darts() == [0]


def test_lex_dijkstra_early_exit_and_multisource():
    adj = _adj_from_edges(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1),
                              (4, 5, 1)])
    settled = lex_dijkstra(adj, [0, 5], targets=[2])
    assert 2 in settled
    assert settled[2].nodes() == [0, 1, 2]
    # node 3 is farther from both sources than the target, may be absent
    settled_full = lex_dijkstra(adj, [0, 5])
    assert settled_full[3].nodes() == [5, 4, 3]


def test_lex_dijkstra_is_reproducible():
    edges = [(0, 1, 2), (0, 2, 2), (1, 3, 2), (2, 3, 2), (1, 2, 1), (3, 4, 7),
             (2, 4, 9)]
    adj = _adj_from_edges(5, edges)
    runs = [lex_dijkstra(adj, [0]) for _ in range(3)]
    for v in range(5):
        seqs = {tuple(r[v].darts()) for r in runs}
        assert len(seqs) == 1


def test_compare_paths_on_triangle():
    g = triangle_graph(1, 2, 3)
    assert compare_paths(g, [0, 1], [0, 2, 1]) == -1
    assert compare_paths(g, [0, 2, 1], [0, 1]) == 1
    assert compare_paths(g, [0, 1], [0, 1]) == 0


def test_compare_paths_square_tie():
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    g = embedding_from_coordinates(pts, [(0, 1), (1, 2), (2, 3), (3, 0)],
                                   [1, 1, 1, 1])
    assert compare_paths(g, [0, 1, 2], [0, 3, 2]) == -1


def test_compare_paths_rejects_mismatched_endpoints():
    g = triangle_graph()
    with pytest.raises(EndpointMismatch):
        compare_paths(g, [0, 1], [0, 2])
    with pytest.raises(EndpointMismatch):
        compare_paths(g, [], [0])
