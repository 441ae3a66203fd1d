"""Reading and writing embedded graphs.

Text format:

    V E
    u v w        (E lines, endpoints and a non-negative decimal weight)
    e1 e2 ...    (V lines, incident edge ids in clockwise order)

Blank lines and lines starting with '#' are ignored.  A first content line
reading `auto-embed` drops the V rotation lines; the graph is then embedded by
a planarity test, which requires it to be simple.  Weights may be decimals or
fractions like 3/4; they are scaled to a common integer denominator so all
arithmetic stays exact.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InputError, NonPlanarEmbedding
from .planar_core import PlanarEmbedding, build_embedding
from .weights import TieBreakWeight, unpack


def parse_graph(text: str) -> PlanarEmbedding:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
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

    edges: list[tuple[int, int]] = []
    raw_weights: list[Fraction] = []
    for i in range(m):
        parts = lines[1 + i].split()
        if len(parts) != 3:
            raise InputError(f"edge line {i}: expected 'u v w', got {lines[1 + i]!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = Fraction(parts[2])
        except (ValueError, ZeroDivisionError):
            raise InputError(f"edge line {i}: cannot parse {lines[1 + i]!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge line {i}: endpoint out of range")
        if w < 0:
            raise InputError(f"edge line {i}: negative weight {parts[2]}")
        edges.append((u, v))
        raw_weights.append(w)

    scale = 1
    for w in raw_weights:
        scale = scale * w.denominator // math.gcd(scale, w.denominator)
    weights = [TieBreakWeight.of(int(w * scale)) for w in raw_weights]

    if auto:
        rotations = _auto_rotations(n, edges)
    else:
        rotations = []
        for v in range(n):
            parts = lines[1 + m + v].split()
            try:
                rotations.append([int(p) for p in parts])
            except ValueError:
                raise InputError(f"rotation line of vertex {v}: {lines[1 + m + v]!r}") from None
    return build_embedding(n, edges, weights, rotations, scale=scale)


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
