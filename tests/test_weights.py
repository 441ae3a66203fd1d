import random
from functools import cmp_to_key

import pytest
from hypothesis import given, strategies as st

from _search_reference import parallel_zero_graph
from planarcut.ddg import build_ddgs, table_adjacency
from planarcut.generators import grid_graph, triangle_graph
from planarcut.oracle import build_oracle
from planarcut.subdivision import recursive_subdivide
from planarcut.weights import (BASE_BITS, BASE_SHIFT, COUNT_BITS, EPS_EDGE,
                               INF_EDGE, INF_SHIFT, ZERO_EDGE,
                               ZERO_SHIFT, Arc, PathChain, TieBreakWeight,
                               compare_chains, dart_adjacency, dart_arc,
                               dart_arcs, lex_dijkstra, unpack)

W = TieBreakWeight


def pack(inf, base, zero, eps):
    return (inf << INF_SHIFT) | (base << BASE_SHIFT) | (zero << ZERO_SHIFT) | eps


def rungs(inf=2 ** 20, base=2 ** BASE_BITS, count=2 ** COUNT_BITS):
    """(inf, base, zero, eps) tuples with every rung below its bound."""
    return st.tuples(st.integers(0, inf - 1), st.integers(0, base - 1),
                     st.integers(0, count - 1), st.integers(0, count - 1))


def test_weight_order_is_lexicographic():
    assert W.of(3) < W.of(4)
    assert 0 < EPS_EDGE < ZERO_EDGE < W.of(1)
    assert W.of(10**12) < INF_EDGE
    # a zero-weight input edge dominates any pile of epsilons, and a single
    # base unit dominates any pile of either
    assert pack(0, 0, 1, 0) > pack(0, 0, 0, 10**9)
    assert pack(0, 1, 0, 0) > pack(0, 0, 10**9, 10**9)
    # one infinite edge dominates any finite base
    assert pack(1, 0, 0, 0) > pack(0, 10**18, 5, 5)


def test_weight_addition_and_scaling():
    a = pack(1, 5, 4, 2)
    b = pack(0, 7, 0, 1)
    assert unpack(a + b) == (1, 12, 4, 3)
    assert unpack(sum((a, a, a))) == (3, 15, 12, 6)
    assert 0 + W.of(4) == W.of(4)
    assert unpack(INF_EDGE) == (1, 0, 0, 0)
    assert unpack(ZERO_EDGE) == (0, 0, 1, 0)
    assert unpack(EPS_EDGE) == (0, 0, 0, 1)
    assert unpack(W.of(9)) == (0, 9, 0, 0)


@given(rungs(), rungs())
def test_key_order_is_rung_tuple_order(a, b):
    ka, kb = pack(*a), pack(*b)
    assert unpack(ka) == a
    assert (ka < kb) == (a < b)
    assert (ka == kb) == (a == b)


@given(st.lists(rungs(base=2 ** (BASE_BITS - 2), count=2 ** (COUNT_BITS - 2)),
                max_size=4))
def test_key_sum_is_componentwise(parts):
    # at most four parts, each a quarter of every width: no rung overflows
    want = tuple(sum(p[i] for p in parts) for i in range(4))
    assert unpack(sum(pack(*p) for p in parts)) == want


@given(st.integers(0, 2 ** BASE_BITS - 1))
def test_input_weight_keeps_its_base(b):
    w = W.of(b)
    assert isinstance(w, int) and w.base == b
    assert unpack(w) == (0, b, 0, 0)
    assert type(w + W.of(1)) is int


def _dart(src, dst, dart, w):
    return Arc(src, dst, W.of(w), 1, dart, dart, None)


def _extend(chain, arc):
    return PathChain(arc.dst, chain, arc, chain.weight + arc.weight,
                     chain.nedges + arc.nedges)


def _chain(*darts_weights, start=0):
    """Tiny builder: chain from `start` through (dart, weight, head) triples."""
    c = PathChain.source(start)
    for dart, w, head in darts_weights:
        c = _extend(c, _dart(c.node, head, dart, w))
    return c


def test_dart_arc_reads_the_embedding():
    g = triangle_graph(1, 2, 3)
    for d in range(2 * g.m):
        arc = dart_arc(g, d)
        assert (arc.src, arc.dst) == (g.tail(d), g.head[d])
        assert arc.weight == g.weights[d >> 1]
        assert arc.nedges == 1
        assert arc.darts() == [d]
        assert arc.interior_vertices() == set()


def test_search_and_cycle_weights_are_plain_ints():
    g = triangle_graph(1, 2, 3)
    settled = lex_dijkstra(
        lambda v: [(g.head[d], dart_arc(g, d)) for d in g.out[v]], [0])
    assert len(settled) == g.n
    assert all(type(c.weight) is int for c in settled.values())
    trees = []
    build_oracle(g, mode="mcb", observer=lambda b: trees.append(b.tree))
    cycles = [c for c in trees[0].cycles.values() if c is not None]
    assert cycles and all(type(c.weight) is int for c in cycles)


def test_chain_accumulates_weight_and_edges():
    c = _chain((0, 2, 1), (4, 3, 2))
    assert c.weight == W.of(5)
    assert c.nedges == 2
    assert c.nodes() == [0, 1, 2]
    assert c.darts() == [0, 4]


def test_compare_chains_weight_then_length():
    a = _chain((0, 1, 1))
    b = _chain((2, 2, 1))
    assert compare_chains(a, b) == -1
    # same weight, fewer edges wins
    c = _chain((0, 2, 1))
    d = _chain((2, 1, 3), (4, 1, 1))
    assert compare_chains(c, d) == -1
    assert compare_chains(d, c) == 1


def test_compare_chains_vertex_index_rule():
    # 0 -> 3 -> 1 -> 5 versus 0 -> 1 -> 4 -> 5: same weight and length,
    # minimum over the symmetric difference is 3 vs 4
    a = _chain((0, 1, 3), (2, 1, 1), (4, 1, 5))
    b = _chain((6, 1, 1), (8, 1, 4), (10, 1, 5))
    assert compare_chains(a, b) == -1
    assert compare_chains(b, a) == 1


def test_compare_chains_shared_prefix_is_skipped():
    base = _chain((0, 1, 7))
    a = _extend(_extend(base, _dart(7, 2, 2, 1)), _dart(2, 5, 4, 1))
    b = _extend(_extend(base, _dart(7, 3, 6, 1)), _dart(3, 5, 8, 1))
    # suffixes diverge at vertices {2} vs {3}; the shared 7 must not matter
    assert compare_chains(a, b) == -1


def test_compare_chains_expands_on_suffix_min_collision():
    # 0 -> 3 -> 1 -> 5 versus 0 -> 1 -> 4 -> 5, each buried in one composite
    # arc: both suffixes hold vertex 1, so only the interior sets {3, 1}
    # and {1, 4}, read from the parts, can decide
    def composite(path, darts):
        parts = [_dart(u, v, d, 1)
                 for u, v, d in zip(path, path[1:], darts)]
        return Arc(path[0], path[-1], W.of(3), 3, darts[0], darts[-1],
                   parts)

    ca = composite([0, 3, 1, 5], [6, 8, 10])
    cb = composite([0, 1, 4, 5], [0, 2, 4])
    root = PathChain.source(0)
    a = _extend(root, ca)
    b = _extend(root, cb)
    # the dart order alone would rank b first
    assert ca.darts() > cb.darts()
    assert compare_chains(a, b) == -1
    assert compare_chains(b, a) == 1
    assert ca.interior_vertices() == {3, 1}
    assert cb.interior_vertices() == {1, 4}
    flat_a = _chain((6, 1, 3), (8, 1, 1), (10, 1, 5))
    flat_b = _chain((0, 1, 1), (2, 1, 4), (4, 1, 5))
    assert compare_chains(flat_a, flat_b) == -1


def test_compare_chains_dart_fallback_for_parallel_edges():
    a = _chain((0, 1, 1))
    b = _chain((2, 1, 1))
    assert compare_chains(a, b) == -1
    assert compare_chains(b, a) == 1
    assert compare_chains(a, _chain((0, 1, 1))) == 0


def test_compare_chains_reads_vertices_from_arcs():
    # search nodes that are not vertices, like the split copies of a
    # cut-open graph, here labels that sort against their vertices: each
    # node stands for the dst of the arc entering it
    root = PathChain.source("s")
    a = _extend(root, _dart(9, 4, 0, 1))
    b = _extend(root, _dart(9, 2, 2, 1))
    a.node, b.node = "u", "w"
    a = _extend(a, _dart(4, 6, 4, 1))
    b = _extend(b, _dart(2, 6, 6, 1))
    a.node = b.node = "t"
    assert compare_chains(b, a) == -1
    assert compare_chains(a, b) == 1


def _adj_from_edges(n, edge_list):
    """edge_list: (u, v, w) with edge ids by position; returns adj callable."""
    table = {v: [] for v in range(n)}
    for e, (u, v, w) in enumerate(edge_list):
        table[u].append((v, _dart(u, v, 2 * e, w)))
        table[v].append((u, _dart(v, u, 2 * e + 1, w)))
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


def test_lex_dijkstra_bound_settles_the_unbounded_prefix():
    # small weights make many nodes share a (weight, nedges) key, so some
    # bounds fall exactly on a tie class
    g = grid_graph(5, 6, rng=random.Random(3), max_weight=3)
    rows = {v: [(g.head[d], dart_arc(g, d)) for d in g.out[v]]
            for v in range(g.n)}
    full = lex_dijkstra(rows.__getitem__, [7])
    keys = sorted({(c.weight, c.nedges) for c in full.values()})
    assert len(keys) < len(full)
    for bound in [(-1, 0)] + keys:
        got = lex_dijkstra(rows.__getitem__, [7], bound=bound)
        assert set(got) == {v for v, c in full.items()
                            if (c.weight, c.nedges) <= bound}
        for v, chain in got.items():
            assert chain.nodes() == full[v].nodes()
            assert chain.darts() == full[v].darts()


# ---------------------------------------------------------------------------
# brute force: the settled chain is the minimum over every simple path


def _path_order(g, s):
    """The reference order on s-paths given as dart lists, read from the
    fully expanded darts: weight, edge count, the smallest vertex on only
    one path, then the dart sequence."""
    def vertices(darts):
        return {s} | {g.head[d] for d in darts}

    def cmp(p, q):
        kp = (sum(g.weights[d >> 1] for d in p), len(p))
        kq = (sum(g.weights[d >> 1] for d in q), len(q))
        if kp != kq:
            return -1 if kp < kq else 1
        vp, vq = vertices(p), vertices(q)
        if vp != vq:
            return -1 if min(vp ^ vq) in vp else 1
        return (p > q) - (p < q)
    return cmp_to_key(cmp)


def _brute_minima(g) -> tuple[dict, int]:
    """(s, t) -> dart list of the least simple s-t path in the reference
    order, and the number of pairs whose least (weight, edge count) is
    shared by several paths.  Only those ties meet the full order."""
    best = {}
    deep = 0
    for s in range(g.n):
        found: dict = {}
        darts: list = []
        on = {s}

        def walk(v, w):
            for d in g.out[v]:
                h = g.head[d]
                if h in on:
                    continue
                darts.append(d)
                on.add(h)
                key = (w + g.weights[d >> 1], len(darts))
                got = found.get(h)
                if got is None or key < got[0]:
                    found[h] = (key, [list(darts)])
                elif key == got[0]:
                    got[1].append(list(darts))
                walk(h, key[0])
                darts.pop()
                on.discard(h)

        walk(s, 0)
        order = _path_order(g, s)
        for t, (_, tied) in found.items():
            best[(s, t)] = min(tied, key=order)
            deep += len(tied) > 1
    return best, deep


ORDER_GRAPHS = {"unit-grid-3x4": lambda: grid_graph(3, 4),
                "parallel-zero": parallel_zero_graph}


@pytest.mark.parametrize("name", sorted(ORDER_GRAPHS))
def test_lex_dijkstra_settles_the_least_simple_path(name):
    g = ORDER_GRAPHS[name]()
    want, deep = _brute_minima(g)
    assert len(want) == g.n * (g.n - 1)
    assert deep > len(want) // 2
    arcs = dart_arcs(g)
    adj = dart_adjacency(arcs, range(g.m))
    for s in range(g.n):
        got = lex_dijkstra(adj.__getitem__, [s])
        for t in range(g.n):
            if t != s:
                assert got[t].darts() == want[(s, t)], (s, t)

    # the same paths through one composed internal table: the largest
    # piece below the root enters as its entries, the rest as darts
    sd = recursive_subdivide(g)
    piece = max(sd.pieces[1:], key=lambda p: len(p.edges))
    table = build_ddgs(sd).int_table(piece.id)
    assert any(entry.parts is not None for entry in table.values())
    inside = set(piece.edges)
    adj = dart_adjacency(arcs, [e for e in range(g.m) if e not in inside],
                         table_adjacency([table]))
    nodes = sorted(adj)
    assert set(piece.boundary) <= set(nodes) and len(nodes) < g.n
    composed = 0
    for s in nodes:
        got = lex_dijkstra(adj.__getitem__, [s])
        for t in nodes:
            if t != s:
                assert got[t].darts() == want[(s, t)], (s, t)
                composed += any(a.parts is not None for a in got[t].arcs())
    assert composed > 0
