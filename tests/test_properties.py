"""Property tests of the oracle on small random embeddings.

An embedding starts as a connected subgraph of a small grid (a spanning
tree at worst, so bridges are common) and then grows self-loops, parallel
twins and pendant edges at drawn rotation slots.  Weights mix zeros,
integers and fractions; the graph goes through the text format, so the
fractions are scaled by the parser.
"""

import os
import tempfile
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from _search_reference import removing_disconnects
from planarcut import baseline
from planarcut.generators import random_grid_subgraph
from planarcut.graphio import parse_graph
from planarcut.oracle import MinCutOracle, build_oracle

WEIGHTS = [Fraction(0), Fraction(1), Fraction(2), Fraction(5),
           Fraction(1, 2), Fraction(3, 4), Fraction(7, 3)]


@st.composite
def embeddings(draw):
    """(n, edges, rotations, weights) of a connected embedded graph."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(2, 4))
    base = random_grid_subgraph(rows, cols, seed=draw(st.integers(0, 99)),
                                keep=draw(st.sampled_from([0.0, 0.5, 1.0])))
    n = base.n
    edges = [base.endpoints(e) for e in range(base.m)]
    rotations = [[d >> 1 for d in base.out[v]] for v in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["loop", "twin", "pendant"]))
        e = len(edges)
        if kind == "twin":
            t = draw(st.integers(0, e - 1))
            u, v = edges[t]
            if u == v:
                continue
            edges.append((u, v))
            rotations[u].insert(rotations[u].index(t) + 1, e)
            rotations[v].insert(rotations[v].index(t), e)
            continue
        v = draw(st.integers(0, n - 1))
        slot = draw(st.integers(0, len(rotations[v])))
        if kind == "loop":
            edges.append((v, v))
            rotations[v][slot:slot] = [e, e]
        else:
            edges.append((v, n))
            rotations[v].insert(slot, e)
            rotations.append([e])
            n += 1
    weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=len(edges),
                            max_size=len(edges)))
    return n, edges, rotations, weights


def to_graph(n, edges, rotations, weights, relabel=None):
    """Parse the embedding from text, vertex v renamed relabel[v]."""
    if relabel is None:
        relabel = list(range(n))
    rows = [None] * n
    for v in range(n):
        rows[relabel[v]] = rotations[v]
    lines = [f"{n} {len(edges)}"]
    lines += [f"{relabel[u]} {relabel[v]} {w}"
              for (u, v), w in zip(edges, weights)]
    lines += [" ".join(map(str, rot)) for rot in rows]
    return parse_graph("\n".join(lines))


CAP = settings(max_examples=50)


@CAP
@given(embeddings())
def test_weights_equal_dinic(spec):
    g = to_graph(*spec)
    orc = build_oracle(g)
    for s, t in combinations(range(g.n), 2):
        assert orc.query_weight(s, t) == baseline.min_cut_value(g, s, t)


@CAP
@given(embeddings())
def test_reported_cut_separates_and_sums(spec):
    g = to_graph(*spec)
    orc = build_oracle(g)
    for s, t in combinations(range(g.n), 2):
        cut = orc.report_cut(s, t)
        assert sum(g.weights[e].base for e in cut) == orc.query_weight(s, t)
        assert removing_disconnects(g, set(cut), s, t), (s, t, cut)


@CAP
@given(embeddings())
def test_answers_survive_save_and_load(spec):
    g = to_graph(*spec)
    orc = build_oracle(g)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.pco")
        orc.save(path)
        back = MinCutOracle.load(path)
    assert back.ghtree() == orc.ghtree()
    for s, t in combinations(range(g.n), 2):
        assert back.query_weight(s, t) == orc.query_weight(s, t)
        assert back.report_cut(s, t) == orc.report_cut(s, t)


@CAP
@given(embeddings(), st.randoms(use_true_random=False))
def test_weights_invariant_under_relabelling(spec, rng):
    n = spec[0]
    relabel = list(range(n))
    rng.shuffle(relabel)
    orc = build_oracle(to_graph(*spec))
    moved = build_oracle(to_graph(*spec, relabel=relabel))
    for s, t in combinations(range(n), 2):
        assert moved.query_weight(relabel[s], relabel[t]) == \
            orc.query_weight(s, t)


@CAP
@given(embeddings())
def test_mcb_total_equals_brute_force(spec):
    g = to_graph(*spec)
    cycles = build_oracle(g, mode="mcb").mcb()
    assert len(cycles) == g.m - g.n + 1
    for edges, w in cycles:
        assert sum(g.weights[e].base for e in edges) == w
    assert sum(w for _, w in cycles) == baseline.brute_mcb(g)[0]
