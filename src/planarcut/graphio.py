"""Reading and writing embedded graphs.

Text format:

    V E
    u v w        (E lines: two endpoints and a non-negative weight)
    e1 e2 ...    (V lines, incident edge ids in clockwise order)

Blank lines and lines starting with '#' are ignored; any other line after
the last expected one is an error.  A first content line reading
`auto-embed` drops the V rotation lines; the graph is then embedded by a
planarity test, which requires it to be simple.

A weight is an integer (`12`, `007`), a decimal (`2.5`, `+1_000`, `3e2`)
or a fraction (`3/4`), in the grammar of `fractions.Fraction`.  A token of
ASCII digits only is read as an int; any other token goes through
`Fraction`.  A decimal exponent beyond ±BASE_BITS (256) with a nonzero
mantissa is refused before it is expanded: `WeightTooLarge` if positive,
`InputError` if negative.  Weights are scaled by the least common
denominator of the fraction tokens, so all arithmetic stays exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError, NonPlanarEmbedding, WeightTooLarge
from .planar_core import PlanarEmbedding, build_embedding
from .weights import BASE_BITS, BASE_SHIFT, TieBreakWeight, unpack


def parse_graph(text: str) -> PlanarEmbedding:
    lines = [ln for ln in map(str.strip, text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise InputError("empty graph file")
    auto = False
    if lines[0].lower() == "auto-embed":
        auto = True
        lines = lines[1:]
        if not lines:
            raise InputError("auto-embed header without graph data")
    head = lines[0].split()
    if len(head) != 2:
        raise InputError(f"expected 'V E' header, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise InputError(f"bad header {lines[0]!r}") from None
    if n <= 0 or m < 0:
        raise InputError("vertex count must be positive, edge count non-negative")
    need = 1 + m + (0 if auto else n)
    if len(lines) < need:
        raise InputError(f"file has {len(lines)} content lines, needs {need}")
    if len(lines) > need:
        raise InputError(f"file has {len(lines)} content lines, expected {need}")

    edges: list[tuple[int, int]] = []
    raw_weights: list[int | Fraction] = []
    for i in range(m):
        parts = lines[1 + i].split()
        if len(parts) != 3:
            raise InputError(f"edge line {i}: expected 'u v w', got {lines[1 + i]!r}")
        tok = parts[2]
        try:
            u, v = int(parts[0]), int(parts[1])
            w = int(tok) if tok.isdigit() and tok.isascii() else _rational(tok, i)
        except (ValueError, ZeroDivisionError):
            raise InputError(f"edge line {i}: cannot parse {lines[1 + i]!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge line {i}: endpoint out of range")
        if w < 0:
            raise InputError(f"edge line {i}: negative weight {tok}")
        edges.append((u, v))
        raw_weights.append(w)

    scale = math.lcm(*[w.denominator for w in raw_weights if type(w) is not int])
    if scale > 1:
        raw_weights = [int(w * scale) for w in raw_weights]
    weights = [TieBreakWeight(w << BASE_SHIFT) for w in raw_weights]

    if auto:
        rotations = _auto_rotations(n, edges)
    else:
        rotations = []
        for v in range(n):
            try:
                rotations.append(list(map(int, lines[1 + m + v].split())))
            except ValueError:
                raise InputError(f"rotation line of vertex {v}: {lines[1 + m + v]!r}") from None
    return build_embedding(n, edges, weights, rotations, scale=scale)


def _rational(tok: str, line: int) -> int | Fraction:
    """The value of a weight token read by `Fraction`, as an int when it is
    whole.  A decimal exponent beyond ±BASE_BITS with a nonzero mantissa is
    refused before `Fraction` expands the power of ten."""
    i = max(tok.rfind("e"), tok.rfind("E"))
    if i > 0:
        try:
            exp = int(tok[i + 1:])
        except ValueError:
            exp = 0  # no exponent; Fraction rejects or reads the token
        if abs(exp) > BASE_BITS:
            if Fraction(tok[:i] + "e0") == 0:
                return 0
            if exp > 0:
                raise WeightTooLarge(f"edge line {line}: exponent of weight "
                                     f"{tok[:40]} above {BASE_BITS}")
            raise InputError(f"edge line {line}: exponent of weight "
                             f"{tok[:40]} below -{BASE_BITS}")
    w = Fraction(tok)
    return w.numerator if w.denominator == 1 else w


def _auto_rotations(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    import networkx as nx

    eid: dict[tuple[int, int], int] = {}
    for i, (u, v) in enumerate(edges):
        if u == v:
            raise InputError("auto-embed cannot place self-loops; provide rotations")
        key = (u, v) if u <= v else (v, u)
        if key in eid:
            raise InputError("auto-embed cannot place parallel edges; provide rotations")
        eid[key] = i
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    ok, emb = nx.check_planarity(G)
    if not ok:
        raise NonPlanarEmbedding("graph is not planar")
    rotations = []
    for v in range(n):
        nbrs = list(emb.neighbors_cw_order(v)) if G.degree(v) else []
        rotations.append([eid[(v, w) if v <= w else (w, v)] for w in nbrs])
    return rotations


def write_graph(g: PlanarEmbedding) -> str:
    out = [f"{g.n} {g.m}"]
    for e in range(g.m):
        u, v = g.endpoints(e)
        inf, base, zero, eps = unpack(g.weights[e])
        if inf or zero or eps:
            raise InputError("text format stores plain weights only")
        frac = Fraction(base, g.scale)
        if frac.denominator == 1:
            out.append(f"{u} {v} {frac.numerator}")
        else:
            out.append(f"{u} {v} {frac.numerator}/{frac.denominator}")
    for v in range(g.n):
        out.append(" ".join(str(d >> 1) for d in g.out[v]))
    return "\n".join(out) + "\n"


def load_graph(path: str) -> PlanarEmbedding:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise InputError(f"{path}: graph file is not UTF-8 text") from None
    return parse_graph(text)


def save_graph(g: PlanarEmbedding, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_graph(g))
