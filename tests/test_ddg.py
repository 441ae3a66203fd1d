import pytest

from _search_reference import (ddg_dijkstra, graph_adjacency,
                               parallel_zero_graph, tripled_zero_graph)
from planarcut import subdivision
from planarcut import weights
from planarcut.ddg import build_ddgs, table_adjacency
from planarcut.generators import (grid_graph, random_delaunay_graph,
                                  random_grid_subgraph)
from planarcut.subdivision import recursive_subdivide


def each_r(monkeypatch):
    """Run a table check under the library's R and under R = 4, at which
    the small graphs here also have big pieces below the root."""
    for r in (subdivision.R, 4):
        monkeypatch.setattr(subdivision, "R", r)
        yield r


def check_entry_walk(g, entry):
    darts = entry.darts()
    assert len(darts) == entry.nedges
    assert g.tail(darts[0]) == entry.src
    assert g.head[darts[-1]] == entry.dst
    total = 0
    interior = set()
    prev_head = None
    for d in darts:
        if prev_head is not None:
            assert g.tail(d) == prev_head
            interior.add(g.tail(d))
        prev_head = g.head[d]
        total = total + g.weights[d >> 1]
    assert total == entry.weight
    assert entry.interior_vertices() == interior


def stored_and_reference(piece, table, direct_adj):
    """(stored entry, reference path) for every stored entry, after
    checking that (s, t) is stored exactly when the reference canonical
    path exists and has no boundary vertex strictly inside."""
    bset = set(piece.boundary)
    out = []
    for s in piece.boundary:
        got = ddg_dijkstra(direct_adj, [s], targets=piece.boundary)
        for t in piece.boundary:
            if t == s:
                continue
            want = got.get(t)
            have = table.get((s, t))
            direct = (want is not None
                      and bset.isdisjoint(want.interior_vertices()))
            assert (have is not None) == direct, (s, t)
            if have is not None:
                out.append((have, want))
    return out


def check_against_direct(g, sd, ddg):
    for piece in sd.pieces:
        table = ddg.int_table(piece.id)
        if piece.is_leaf:
            e = piece.edges[0]
            u, v = g.endpoints(e)
            bset = set(piece.boundary)
            if u != v and u in bset and v in bset:
                assert table[(u, v)].darts() == [2 * e]
                assert table[(v, u)].darts() == [2 * e + 1]
            else:
                assert table == {}
        direct_adj = graph_adjacency(g, set(piece.edges))
        for have, want in stored_and_reference(piece, table, direct_adj):
            assert have.weight == want.weight
            assert have.nedges == want.nedges
            assert have.darts() == want.darts()
            check_entry_walk(g, have)


def check_ext_against_direct(g, sd, ddg):
    all_edges = set(range(g.m))
    for piece in sd.pieces:
        if piece.parent < 0:
            assert ddg.ext_table(piece.id) == {}
            continue
        outside = all_edges - set(piece.edges)
        direct_adj = graph_adjacency(g, outside)
        table = ddg.ext_table(piece.id)
        for have, want in stored_and_reference(piece, table, direct_adj):
            assert have.weight == want.weight
            assert have.darts() == want.darts()


def test_grid_int_tables_match_direct_search(monkeypatch):
    g = grid_graph(4, 4)
    sd = recursive_subdivide(g)
    for _ in each_r(monkeypatch):
        ddg = build_ddgs(sd)
        check_against_direct(g, sd, ddg)
        assert ddg.int_table(sd.root) == {}


def test_grid_ext_tables_match_direct_search(monkeypatch):
    g = grid_graph(3, 4)
    sd = recursive_subdivide(g)
    for _ in each_r(monkeypatch):
        ddg = build_ddgs(sd)
        check_ext_against_direct(g, sd, ddg)


@pytest.mark.parametrize("seed", [2, 9])
def test_delaunay_tables(seed, monkeypatch):
    g = random_delaunay_graph(18, seed=seed)
    sd = recursive_subdivide(g)
    for _ in each_r(monkeypatch):
        ddg = build_ddgs(sd)
        check_against_direct(g, sd, ddg)
        check_ext_against_direct(g, sd, ddg)


def test_sparse_graph_tables(monkeypatch):
    g = random_grid_subgraph(4, 5, seed=13, keep=0.5)
    sd = recursive_subdivide(g)
    for _ in each_r(monkeypatch):
        ddg = build_ddgs(sd)
        check_against_direct(g, sd, ddg)
        check_ext_against_direct(g, sd, ddg)


def test_table_paths_are_deterministic():
    g = random_delaunay_graph(16, seed=4)
    sd1 = recursive_subdivide(g)
    sd2 = recursive_subdivide(g)
    d1 = build_ddgs(sd1)
    d2 = build_ddgs(sd2)
    for p1, p2 in zip(sd1.pieces, sd2.pieces):
        assert p1.edges == p2.edges
        for t1, t2 in ((d1.int_table(p1.id), d2.int_table(p2.id)),
                       (d1.ext_table(p1.id), d2.ext_table(p2.id))):
            assert set(t1) == set(t2)
            for k in t1:
                assert t1[k].darts() == t2[k].darts()


def test_union_adjacency_search_spans_pieces():
    # distances over the union of the root's child tables equal distances in
    # the whole graph, for vertices on child boundaries
    g = grid_graph(4, 4)
    sd = recursive_subdivide(g)
    ddg = build_ddgs(sd)
    root = sd.pieces[sd.root]
    tables = [ddg.int_table(c) for c in root.children]
    adj = table_adjacency(tables)
    skeleton = sorted(adj)
    full_adj = graph_adjacency(g)
    for s in skeleton[:4]:
        got = ddg_dijkstra(adj, [s], targets=skeleton)
        want = ddg_dijkstra(full_adj, [s], targets=skeleton)
        for t in skeleton:
            if t == s:
                continue
            assert got[t].weight == want[t].weight
            assert got[t].darts() == want[t].darts()


# ---------------------------------------------------------------------------
# direct entries: the only table entries stored and searched over


DIRECT_GRAPHS = {
    "grid": lambda: grid_graph(4, 5),
    "delaunay": lambda: random_delaunay_graph(18, seed=2),
    "sparse": lambda: random_grid_subgraph(4, 5, seed=13, keep=0.5),
    "parallel-zero": parallel_zero_graph,
    "tripled-zero": tripled_zero_graph,
}


def reference_ddgs(sd, ddg):
    """Tables of every canonical path between boundary vertices, assembled
    with every entry of the input tables as a search arc, not only the
    direct ones.  Leaf tables are read from `ddg`."""
    def adjacency(tables):
        adj: dict = {}
        for table in tables:
            for (a, b), entry in table.items():
                adj.setdefault(a, []).append((b, entry))
        return adj

    def all_pairs(adj, boundary):
        table = {}
        for s in sorted(set(boundary)):
            got = ddg_dijkstra(adj, [s], targets=boundary)
            for t in boundary:
                if t != s and got.get(t) is not None:
                    table[(s, t)] = got[t]
        return table

    int_tables = [None] * len(sd.pieces)
    ext_tables = [None] * len(sd.pieces)
    levels = sd.levels()
    for level in reversed(levels):
        for pid in level:
            piece = sd.pieces[pid]
            if piece.is_leaf:
                int_tables[pid] = ddg.int_table(pid)
            else:
                adj = adjacency(int_tables[c] for c in piece.children)
                int_tables[pid] = all_pairs(adj, piece.boundary)
    for level in levels:
        for pid in level:
            piece = sd.pieces[pid]
            if piece.parent < 0:
                ext_tables[pid] = {}
                continue
            parent = sd.pieces[piece.parent]
            around = [ext_tables[parent.id]]
            around += [int_tables[c] for c in parent.children if c != pid]
            ext_tables[pid] = all_pairs(adjacency(around), piece.boundary)
    return int_tables, ext_tables


def is_direct(entry, piece) -> bool:
    return set(piece.boundary).isdisjoint(entry.interior_vertices())


def table_pairs(sd, ddg):
    """(piece, stored table, reference table) for every table of `ddg`."""
    ref_int, ref_ext = reference_ddgs(sd, ddg)
    for piece in sd.pieces:
        yield piece, ddg.int_table(piece.id), ref_int[piece.id]
        yield piece, ddg.ext_table(piece.id), ref_ext[piece.id]


@pytest.mark.parametrize("name", sorted(DIRECT_GRAPHS))
def test_direct_flag_matches_boundary_interior(name, monkeypatch):
    # a pair is stored exactly when its canonical path is direct
    g = DIRECT_GRAPHS[name]()
    sd = recursive_subdivide(g)
    for _ in each_r(monkeypatch):
        ddg = build_ddgs(sd)
        seen = {True: 0, False: 0}
        for piece, have, want in table_pairs(sd, ddg):
            for key, entry in want.items():
                direct = is_direct(entry, piece)
                assert (key in have) == direct, key
                seen[direct] += 1
            assert all(is_direct(entry, piece) for entry in have.values())
        assert seen[True] > 0 and seen[False] > 0


@pytest.mark.parametrize("name", sorted(DIRECT_GRAPHS))
def test_direct_arcs_give_all_entry_tables(name, monkeypatch):
    g = DIRECT_GRAPHS[name]()
    sd = recursive_subdivide(g)
    for _ in each_r(monkeypatch):
        ddg = build_ddgs(sd)
        omitted = 0
        for piece, have, want in table_pairs(sd, ddg):
            direct = {k for k, entry in want.items()
                      if is_direct(entry, piece)}
            assert set(have) == direct
            omitted += len(want) - len(direct)
            for key, entry in have.items():
                assert entry.weight == want[key].weight
                assert entry.nedges == want[key].nedges
                assert entry.darts() == want[key].darts()
        assert omitted > 0


@pytest.mark.parametrize("name", sorted(DIRECT_GRAPHS))
def test_assembly_never_compares_a_path_with_itself(name, monkeypatch):
    g = DIRECT_GRAPHS[name]()
    sd = recursive_subdivide(g)
    results = []
    inner = weights.compare_chains

    def recording(*args, **kwargs):
        out = inner(*args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(weights, "compare_chains", recording)
    # first-use tables too, asked for bottom-up (each external one then
    # searches over a big ancestor's table) and top-down (over the
    # parent's, built just before)
    for _ in each_r(monkeypatch):
        for order in (sd.pieces[::-1], sd.pieces):
            ddg = build_ddgs(sd)
            for piece in order:
                ddg.int_table(piece.id)
                ddg.ext_table(piece.id)
            assert ddg.stats["first_use_tables"] > 0
    assert 0 not in results


def is_small(piece) -> bool:
    return piece.parent >= 0 and len(piece.edges) <= subdivision.R


@pytest.mark.parametrize("r", [2, 8, 10 ** 9])
@pytest.mark.parametrize("name", sorted(DIRECT_GRAPHS))
def test_first_use_ext_tables_match_reference(name, r, monkeypatch):
    # a first-use external table searches A's external table plus the real
    # darts of A minus the piece; it must hold exactly the direct entries
    # of the top-down recursion over every piece's tables
    monkeypatch.setattr(subdivision, "R", r)
    g = DIRECT_GRAPHS[name]()
    sd = recursive_subdivide(g)
    small = [p for p in sd.pieces if is_small(p)]
    assert small
    for order in (small[::-1], small):
        ddg = build_ddgs(sd)
        _, ref_ext = reference_ddgs(sd, ddg)
        for piece in order:
            have = ddg.ext_table(piece.id)
            want = {k: entry for k, entry in ref_ext[piece.id].items()
                    if is_direct(entry, piece)}
            assert set(have) == set(want)
            for key, entry in have.items():
                assert entry.weight == want[key].weight
                assert entry.nedges == want[key].nedges
                assert entry.darts() == want[key].darts()


@pytest.mark.parametrize("name", sorted(DIRECT_GRAPHS))
def test_build_ddgs_skips_small_pieces(name, monkeypatch):
    # build_ddgs searches only for pieces of more than R edges and the
    # root; a small piece's table is built by the first call and kept
    g = DIRECT_GRAPHS[name]()
    sd = recursive_subdivide(g)
    for r in each_r(monkeypatch):
        ddg = build_ddgs(sd)
        big = [p for p in sd.pieces if not is_small(p)]
        if r == 4:
            assert any(p.parent >= 0 for p in big)
        assert ddg.stats["first_use_tables"] == 0
        assert ddg.stats["dijkstra_sources"] == sum(
            len(p.boundary) * (2 if p.parent >= 0 else 1) for p in big)
        built = 0
        for piece in sd.pieces:
            for read in (ddg.int_table, ddg.ext_table):
                table = read(piece.id)
                if is_small(piece):
                    built += 1
                assert ddg.stats["first_use_tables"] == built
                assert read(piece.id) is table
                assert ddg.stats["first_use_tables"] == built
        assert built > 0
