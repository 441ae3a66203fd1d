"""The graph text parser: weight tokens against a Fraction-only reference,
the line-count rule, the exponent bound, malformed rotation systems and
byte-mutated files, which must give an embedding or a typed error."""

import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from _search_reference import fraction_weights
from planarcut import graphio
from planarcut.errors import (Disconnected, InputError, NonPlanarEmbedding,
                              PlanarCutError, UnknownEdge, WeightTooLarge)
from planarcut.generators import grid_graph, random_grid_subgraph
from planarcut.graphio import load_graph, parse_graph, write_graph
from planarcut.planar_core import PlanarEmbedding
from planarcut.weights import BASE_BITS, BASE_LIMIT, BASE_SHIFT, TieBreakWeight


def bundle_text(tokens) -> str:
    """Two vertices joined by one edge per weight token."""
    k = len(tokens)
    lines = [f"2 {k}"] + [f"0 1 {t}" for t in tokens]
    lines += [" ".join(map(str, range(k))),
              " ".join(map(str, reversed(range(k))))]
    return "\n".join(lines) + "\n"


# -- weight tokens ------------------------------------------------------------

DIGIT_SETS = ["0123456789", "٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९", "０１２３４５６７８９"]


def unicode_digits(pair):
    digits, script = pair
    return digits.translate(str.maketrans("0123456789", DIGIT_SETS[script]))


plain = st.integers(0, 10 ** 9).map(str)
leading_zeros = st.tuples(st.integers(1, 3), st.integers(0, 999)).map(
    lambda p: "0" * p[0] + str(p[1]))
wide = st.integers(10 ** 76, 10 ** 77 - 1).map(str)
decimal = st.tuples(st.integers(0, 999), st.integers(0, 999),
                    st.sampled_from(["{}.{}", "{}.", ".{}"])).map(
    lambda p: p[2].format(p[0], p[1]))
ratio = st.tuples(st.integers(0, 99), st.integers(1, 99)).map(
    lambda p: f"{p[0]}/{p[1]}")
exponent = st.tuples(st.integers(0, 999), st.sampled_from("eE"),
                     st.integers(-5, 5)).map(lambda p: f"{p[0]}{p[1]}{p[2]}")
underscored = st.tuples(st.integers(1, 99), st.integers(0, 999)).map(
    lambda p: f"{p[0]}_{p[1]:03d}")
unicode = st.tuples(st.integers(0, 10 ** 6).map(str),
                    st.integers(1, len(DIGIT_SETS) - 1)).map(unicode_digits)
unsigned = st.one_of(plain, leading_zeros, wide, decimal, ratio, exponent,
                     underscored, unicode)
signed = st.tuples(st.sampled_from("+-"), unsigned).map("".join)
tokens = st.lists(st.one_of(unsigned, signed), min_size=1, max_size=6)


@settings(max_examples=80)
@given(tokens)
def test_weights_match_fraction_reference(toks):
    text = bundle_text(toks)
    if any(Fraction(t) < 0 for t in toks):
        with pytest.raises(InputError, match="negative weight"):
            parse_graph(text)
        return
    weights, scale = fraction_weights(toks)
    if sum(weights) >> BASE_SHIFT >= BASE_LIMIT:
        with pytest.raises(WeightTooLarge):
            parse_graph(text)
        return
    g = parse_graph(text)
    assert g.scale == scale
    assert g.weights == weights
    assert all(type(w) is TieBreakWeight for w in g.weights)


def test_integer_tokens_keep_scale_one():
    g = parse_graph(bundle_text(["7", "007", "0", str(10 ** 40)]))
    assert g.scale == 1
    assert [w.base for w in g.weights] == [7, 7, 0, 10 ** 40]
    g = parse_graph(bundle_text(["7", "1/6", "0.25"]))
    assert g.scale == 12
    assert [w.base for w in g.weights] == [84, 2, 3]


HUGE = ["1e10000000", "2.5E999999999", "+7e300", "1e" + str(BASE_BITS + 1)]
TINY = ["1e-10000000", "3.5e-999", "1e-" + str(BASE_BITS + 1)]
ZERO = ["0e10000000", "-0.000E-10000000", "+0_0e999999"]


def spy_fraction(monkeypatch, refused):
    real = graphio.Fraction

    def spy(value, *rest):
        assert value not in refused, f"Fraction expanded {value!r}"
        return real(value, *rest)

    monkeypatch.setattr(graphio, "Fraction", spy)


@pytest.mark.parametrize("tok", HUGE)
def test_huge_exponent_refused_unexpanded(monkeypatch, tok):
    spy_fraction(monkeypatch, HUGE)
    with pytest.raises(WeightTooLarge):
        parse_graph(bundle_text(["1", tok]))


@pytest.mark.parametrize("tok", TINY)
def test_tiny_exponent_refused_unexpanded(monkeypatch, tok):
    spy_fraction(monkeypatch, TINY)
    with pytest.raises(InputError, match="exponent") as info:
        parse_graph(bundle_text(["1", tok]))
    assert type(info.value) is InputError


@pytest.mark.parametrize("tok", ZERO)
def test_zero_mantissa_is_weight_zero(monkeypatch, tok):
    spy_fraction(monkeypatch, ZERO)
    g = parse_graph(bundle_text(["3", tok]))
    assert [w.base for w in g.weights] == [3, 0] and g.scale == 1


def test_exponent_bound_is_base_bits():
    g = parse_graph(bundle_text([f"1e-{BASE_BITS}"]))
    assert g.scale == 10 ** BASE_BITS and g.weights[0].base == 1
    # the bound is on the exponent, not the value: a bad mantissa still
    # fails to parse
    with pytest.raises(InputError, match="cannot parse"):
        parse_graph(bundle_text([f"1/2e{BASE_BITS + 1}"]))


# -- line counts --------------------------------------------------------------

K4_EDGES = "0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n2 3 1\n"


def test_trailing_edge_line_rejected():
    # header says 5 edges, the sixth edge line used to be dropped
    with pytest.raises(InputError, match="7 content lines, expected 6"):
        parse_graph("auto-embed\n4 5\n" + K4_EDGES)
    assert parse_graph("auto-embed\n4 6\n" + K4_EDGES).m == 6


def test_trailing_rotation_line_rejected():
    text = write_graph(grid_graph(2, 3))
    assert parse_graph(text + "# comment\n\n").m == 7
    with pytest.raises(InputError, match="expected"):
        parse_graph(text + "0\n")


# -- malformed rotation systems -------------------------------------------------

TRIANGLE = "3 3\n0 1 1\n1 2 1\n2 0 1\n"
TWISTED_K4 = ("4 6\n0 1 1\n1 2 1\n2 0 1\n0 3 1\n1 3 1\n2 3 1\n"
              "0 3 2\n1 4 0\n2 5 1\n3 5 4\n")

MALFORMED = [
    ("edge-id-out-of-range", TRIANGLE + "0 2\n0 1\n1 7\n", UnknownEdge),
    ("negative-edge-id", TRIANGLE + "0 2\n0 1\n1 -1\n", UnknownEdge),
    ("foreign-vertex", TRIANGLE + "0 1\n0 1\n1 2\n", NonPlanarEmbedding),
    ("foreign-before-unknown-edge", TRIANGLE + "1 2\n0 1\n1 9\n",
     NonPlanarEmbedding),
    ("loop-at-foreign-vertex", "2 2\n0 1 1\n0 0 1\n0 1 1\n0 1\n",
     NonPlanarEmbedding),
    ("duplicate-dart", TRIANGLE + "0 0 2\n0 1\n1 2\n", NonPlanarEmbedding),
    # as many darts as edges need, so only the duplicate shows
    ("duplicate-for-missing-dart", TRIANGLE + "0 0\n0 1\n1 2\n",
     NonPlanarEmbedding),
    ("loop-listed-three-times", "2 2\n0 1 1\n0 0 1\n0 1 1 1\n0\n",
     NonPlanarEmbedding),
    ("missing-dart", TRIANGLE + "0 2\n0\n1 2\n", NonPlanarEmbedding),
    ("disconnected", "4 2\n0 1 1\n2 3 1\n0\n0\n1\n1\n", Disconnected),
    ("disconnected-before-euler",
     "6 7\n0 1 1\n1 2 1\n2 0 1\n0 3 1\n1 3 1\n2 3 1\n4 5 1\n"
     "0 3 2\n1 4 0\n2 5 1\n3 5 4\n6\n6\n", Disconnected),
    ("euler", TWISTED_K4, NonPlanarEmbedding),
]


@pytest.mark.parametrize("text,error", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_malformed_rotation_system(text, error):
    with pytest.raises(error) as info:
        parse_graph(text)
    assert type(info.value) is error


# -- byte mutations -------------------------------------------------------------

def _multigraph_text():
    """A sparse grid with a parallel twin and a self-loop, weighted with
    integer, decimal, fraction, exponent and underscore tokens."""
    g = random_grid_subgraph(2, 3, seed=4, keep=0.5)
    edges = [g.endpoints(e) for e in range(g.m)]
    rotations = [[d >> 1 for d in g.out[v]] for v in range(g.n)]
    u, v = edges[0]
    edges.append((u, v))
    rotations[u].insert(rotations[u].index(0) + 1, g.m)
    rotations[v].insert(rotations[v].index(0), g.m)
    edges.append((v, v))
    rotations[v][:0] = [g.m + 1, g.m + 1]
    toks = ["3/4", "2.5", "1e2", "0", "7", "+1_0", "12", "5", "1/3", "0.5"]
    lines = [f"{g.n} {len(edges)}"]
    lines += [f"{a} {b} {toks[e % len(toks)]}" for e, (a, b) in enumerate(edges)]
    lines += [" ".join(map(str, rot)) for rot in rotations]
    return "\n".join(lines) + "\n"


SEEDS = [
    "# triangle\n" + TRIANGLE + "0 2\n1 0\n2 1\n",
    write_graph(grid_graph(3, 3, rng=random.Random(2))),
    _multigraph_text(),
    "auto-embed\n4 6\n" + K4_EDGES,
]


def test_mutation_seeds_parse():
    for text in SEEDS:
        assert isinstance(parse_graph(text), PlanarEmbedding)


mutation = st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                     st.integers(0, 10 ** 6),
                     st.sampled_from(b"0123456789 \n\t-+./eE#_x\x00\xff\xc3"))


@settings(max_examples=150)
@given(st.integers(0, len(SEEDS) - 1), st.lists(mutation, min_size=1,
                                                 max_size=3))
def test_mutated_files_give_embedding_or_typed_error(which, edits):
    data = bytearray(SEEDS[which].encode())
    for kind, pos, byte in edits:
        if kind == "insert":
            data.insert(pos % (len(data) + 1), byte)
        elif kind == "replace":
            data[pos % len(data)] = byte
        else:
            del data[pos % len(data)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        try:
            g = load_graph(path)
        except PlanarCutError:
            return
    assert isinstance(g, PlanarEmbedding)
    assert g.n - g.m + len(g.faces) == 2
