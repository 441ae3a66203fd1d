"""Command-line front end.

Subcommands build and persist oracles, answer queries, print Gomory-Hu
trees and cycle bases, cross-check against the flow baselines, and time
builds on generated graphs.  Graph arguments take either a path to a
graph file or a generator spec:

    grid:R,C       R x C grid, unit weights unless seeded
    delaunay:N     Delaunay triangulation of N random points
    random:R,C     connected random subgraph of an R x C grid

Exit codes: 0 ok, 1 verification mismatch, 2 bad input, 3 internal
assertion failure.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from fractions import Fraction
from itertools import combinations

from . import baseline, generators
from .errors import InputError, InternalAssertion, PlanarCutError
from .graphio import load_graph
from .oracle import MinCutOracle, build_oracle
from .planar_core import PlanarEmbedding
from .weights import unpack

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3


def _fmt_weight(base: int, scale: int) -> str:
    frac = Fraction(base, scale)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


# ---------------------------------------------------------------------------
# graph argument handling


def _dims(spec: str, what: str) -> tuple[int, int]:
    parts = spec.split(",")
    try:
        if len(parts) == 1:
            n = int(float(parts[0]))
            if n < 2:
                raise ValueError
            r = max(2, int(round(n ** 0.5)))
            return r, max(2, (n + r - 1) // r)
        if len(parts) == 2:
            r, c = int(parts[0]), int(parts[1])
            if r < 1 or c < 1 or r * c < 2:
                raise ValueError
            return r, c
    except (ValueError, OverflowError):
        pass
    raise InputError(f"bad {what} size {spec!r}")


def resolve_graph(arg: str, seed: int) -> PlanarEmbedding:
    """A file path, or grid:/delaunay:/random: generator spec."""
    if ":" in arg and not os.path.exists(arg):
        kind, _, spec = arg.partition(":")
        if kind == "grid":
            r, c = _dims(spec, "grid")
            return generators.grid_graph(r, c, rng=random.Random(seed))
        if kind == "delaunay":
            try:
                n = int(float(spec))
            except (ValueError, OverflowError):
                raise InputError(f"bad delaunay size {spec!r}") from None
            if n < 3:
                raise InputError("delaunay spec needs at least 3 points")
            return generators.random_delaunay_graph(n, seed=seed)
        if kind == "random":
            r, c = _dims(spec, "random")
            return generators.random_grid_subgraph(r, c, seed=seed)
        raise InputError(f"unknown generator {kind!r}")
    return load_graph(arg)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(args) -> int:
    g = resolve_graph(args.graph, args.seed)
    mode = "mcb" if args.mcb_mode else "cut"
    observer = _region_tree_dumper(g) if args.dump_region_tree else None
    orc = build_oracle(g, mode=mode, safe_cycles=args.safe_cycles,
                       observer=observer)
    orc.save(args.output)
    basis = sum(rec[2] for rec in orc.gh_edges)
    print(f"n={g.n} levels={orc.stats['levels']} "
          f"basis_weight={_fmt_weight(basis, g.scale)}")
    print(f"pieces={orc.stats['pieces']} inserts={orc.stats['inserts']} "
          f"fallbacks={orc.stats['fallbacks']} "
          f"dijkstras={orc.stats['dijkstras']}")
    return EXIT_OK


def _region_tree_dumper(g: PlanarEmbedding):
    def dump(builder):
        tree = builder.tree
        scale = g.scale

        def emit(region: int, indent: int) -> None:
            cyc = tree.cycles.get(region)
            w = "-" if cyc is None else _fmt_weight(unpack(cyc.weight)[1], scale)
            kids = sorted(tree.children[region])
            faces = [c for c in kids if not tree.is_region(c)]
            print(f"{'  ' * indent}region {region} weight {w} "
                  f"faces {faces}")
            for c in kids:
                if tree.is_region(c):
                    emit(c, indent + 1)

        emit(tree.root, 0)
    return dump


def _cmd_query(args) -> int:
    orc = MinCutOracle.load(args.oracle)
    w = orc.query_weight(args.s, args.t)
    print(_fmt_weight(w, orc.scale))
    if args.cut:
        edges = orc.report_cut(args.s, args.t)
        print("cut " + " ".join(map(str, edges)))
    return EXIT_OK


def _cmd_mcb(args) -> int:
    g = resolve_graph(args.graph, args.seed)
    orc = build_oracle(g, mode="mcb", safe_cycles=args.safe_cycles)
    total = 0
    for edges, w in orc.mcb():
        total += w
        print(" ".join(map(str, edges)))
    print(f"total {_fmt_weight(total, g.scale)}")
    return EXIT_OK


def _cmd_ghtree(args) -> int:
    g = resolve_graph(args.graph, args.seed)
    orc = build_oracle(g, mode="cut", safe_cycles=args.safe_cycles)
    for u, v, w in sorted(orc.ghtree()):
        print(f"{u} {v} {_fmt_weight(w, g.scale)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _pick_pairs(n: int, cap: int, seed: int) -> list[tuple[int, int]]:
    pairs = list(combinations(range(n), 2))
    if cap and len(pairs) > cap:
        pairs = random.Random(seed).sample(pairs, cap)
    return pairs


def _disconnects(g: PlanarEmbedding, cut: set, s: int, t: int) -> bool:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for e in range(g.m):
        if e in cut:
            continue
        u, v = g.endpoints(e)
        adj[u].append(v)
        adj[v].append(u)
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return t not in seen


def _verify_one(spec: str, seed: int, pairs_cap: int) -> tuple[int, int]:
    """(mismatches, checks) for one fixture."""
    g = resolve_graph(spec, seed)
    fast = build_oracle(g, mode="cut")
    safe = build_oracle(g, mode="cut", safe_cycles=True)
    bad = 0
    checks = 0
    for s, t in _pick_pairs(g.n, pairs_cap, seed):
        want = baseline.min_cut_value(g, s, t)
        got = fast.query_weight(s, t)
        checks += 1
        if got != want:
            bad += 1
            print(f"seed {seed}: weight mismatch {s},{t}: "
                  f"{got} != {want}", file=sys.stderr)
            continue
        if safe.query_weight(s, t) != want:
            bad += 1
            print(f"seed {seed}: safe-cycles disagrees at {s},{t}",
                  file=sys.stderr)
            continue
        edges = fast.report_cut(s, t)
        total = sum(g.weights[e].base for e in edges)
        bound = 4 * len(edges) + 16
        if (total != want or fast.last_report_counter > bound
                or not _disconnects(g, set(edges), s, t)):
            bad += 1
            print(f"seed {seed}: bad cut report at {s},{t}",
                  file=sys.stderr)
    return bad, checks


def _cmd_verify(args) -> int:
    if args.pairs < 0:
        raise InputError("--pairs must be at least 0")
    if args.fixtures < 1:
        raise InputError("--fixtures must be at least 1")
    tasks = [(args.graph, args.seed + i, args.pairs)
             for i in range(args.fixtures)]
    if args.jobs > 1 and len(tasks) > 1:
        import multiprocessing as mp
        jobs = min(args.jobs, len(tasks))
        with mp.get_context("fork").Pool(jobs) as pool:
            results = pool.starmap(_verify_one, tasks)
    else:
        results = [_verify_one(*t) for t in tasks]
    bad = sum(r[0] for r in results)
    checks = sum(r[1] for r in results)
    print(f"{len(tasks)} fixtures, {checks} pairs checked, "
          f"{bad} mismatches")
    return EXIT_OK if bad == 0 else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# bench


_BENCH_KINDS = {"grid": "grid", "delaunay-like": "delaunay",
               "random-planar": "random"}


def _cmd_bench(args) -> int:
    try:
        sizes = [int(float(s)) for s in args.sizes.split(",") if s]
    except (ValueError, OverflowError):
        raise InputError(f"bad --sizes {args.sizes!r}") from None
    if not sizes:
        raise InputError("--sizes is empty")
    print("gen\tn\tm\tbuild_s\tquery_us")
    for n in sizes:
        g = resolve_graph(f"{_BENCH_KINDS[args.gen]}:{n}", args.seed)
        holder = {}
        observer = None
        if args.dump_subdivision:
            observer = lambda b: holder.update(sd=b.sd)
        t0 = time.perf_counter()
        orc = build_oracle(g, mode="cut", observer=observer)
        build_s = time.perf_counter() - t0
        rng = random.Random(args.seed)
        pairs = [(rng.randrange(g.n), rng.randrange(g.n))
                 for _ in range(1000)]
        pairs = [(s, t) for s, t in pairs if s != t]
        t0 = time.perf_counter()
        for s, t in pairs:
            orc.query_weight(s, t)
        query_us = (time.perf_counter() - t0) / max(1, len(pairs)) * 1e6
        print(f"{args.gen}\t{g.n}\t{g.m}\t{build_s:.3f}\t{query_us:.2f}")
        if args.dump_subdivision:
            sd = holder["sd"]
            print("piece\tlevel\tedges\tboundary\tholes")
            for p in sd.pieces:
                holes = sd.hole_faces(p.id)
                print(f"{p.id}\t{p.depth}\t{len(p.edges)}"
                      f"\t{len(p.boundary)}\t{holes}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="planarcut",
        description="Min-cut oracle and minimum cycle basis for planar "
                    "graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_graph(p, engine_flag=True):
        p.add_argument("graph", help="graph file or generator spec")
        p.add_argument("--seed", type=int, default=0)
        if engine_flag:
            p.add_argument("--safe-cycles", action="store_true",
                           help="use the whole-graph cycle engine")

    b = sub.add_parser("build", help="build and save an oracle")
    add_graph(b)
    b.add_argument("-o", "--output", required=True)
    b.add_argument("--mcb-mode", action="store_true",
                   help="cycle-basis oracle instead of cut oracle")
    b.add_argument("--dump-region-tree", action="store_true")
    b.set_defaults(func=_cmd_build)

    q = sub.add_parser("query", help="query a saved oracle")
    q.add_argument("oracle")
    q.add_argument("s", type=int)
    q.add_argument("t", type=int)
    q.add_argument("--cut", action="store_true",
                   help="also print the cut edge ids")
    q.set_defaults(func=_cmd_query)

    m = sub.add_parser("mcb", help="print the minimum cycle basis")
    add_graph(m)
    m.set_defaults(func=_cmd_mcb)

    t = sub.add_parser("ghtree", help="print the Gomory-Hu tree")
    add_graph(t)
    t.set_defaults(func=_cmd_ghtree)

    v = sub.add_parser("verify", help="cross-check against flow baselines")
    add_graph(v, engine_flag=False)
    v.add_argument("--pairs", type=int, default=50,
                   help="max vertex pairs per fixture (0 = all)")
    v.add_argument("--fixtures", type=int, default=1,
                   help="number of seeded fixtures")
    v.add_argument("--jobs", type=int, default=1)
    v.set_defaults(func=_cmd_verify)

    be = sub.add_parser("bench", help="build/query timing table")
    be.add_argument("--sizes", required=True,
                    help="comma-separated vertex counts, e.g. 1e3,1e4")
    be.add_argument("--gen", default="grid",
                    choices=list(_BENCH_KINDS))
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--dump-subdivision", action="store_true")
    be.set_defaults(func=_cmd_bench)
    return ap


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalAssertion as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (PlanarCutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
