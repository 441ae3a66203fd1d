"""Outside-in benchmark of the planarcut min-cut oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The benchmark process generates the inputs from the seed
(scipy runs here, for Delaunay), writes them with ``graphio.save_graph`` and
hands only those files to a fresh, single-threaded measured process
(``measure.py``).  Afterwards it checks the sampled answers of every graph
against the Dinic max-flow baseline, prints each metric by name with its
unit, a fingerprint of the public answers and the machine-independent
counters, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every check passed.

Workloads (closed loop, one caller, one measured process at a time).  The
graphs of a workload share one embedding and draw their weights from the
seed.  Each workload runs a batch of four weight draws, because one draw
moves the strip's level loop work by up to 3x and the cost of a Delaunay
cut report by a tenth.

* ``build-delaunay``: cut-mode ``build_oracle`` on a Delaunay triangulation
  of 50 random points (``generators.random_delaunay_graph``, point seed 0).
  About three quarters of a build is the dense distance tables (DDG).
* ``build-strip``: cut-mode builds on a 3 x 64 grid strip
  (``generators.grid_graph``).  Long cut paths and a deep region tree give
  the level loop about 40% of a build and the DDG about 55%.
* ``serve-mixed``: a separate process builds and saves the Delaunay
  oracles; the measured process times ``load_oracle`` and a stream of 80%
  ``query_weight`` and 20% ``report_cut`` on each.  No build layer runs in the
  measured process.

Both build workloads also stream queries on their oracle between builds, and
serve-mixed reports its pre-build process's build time, so every end-to-end
metric exists on every workload.

How a run reduces its samples.  The machine's speed drifts by up to 2x
over seconds to minutes (other tenants), so the measured process runs a
fixed speed probe between its timed operations (``speed.py``).  Each time
metric is the median of its wall-time samples over the whole run, scaled by
the run's speed (reference probe time over median probe time); a rate is
divided by it.  ``build_s`` is the batch mean of each graph's median build
(on serve-mixed, of the first graph's builds in the pre-build process),
``setup_s`` the median of all set-up samples (``load_graph``, or
``load_oracle`` on serve-mixed), and the latency p50s and
``queries_per_s`` medians over all stream stretches, each stretch on the
oracle of one graph.  Wall-time medians and the speed are printed beside
the metrics.

The text graph format keeps no outer face: after ``load_graph`` face 0 is
the infinite face.  A build fed from the file therefore differs from one on
the generator's in-memory graph (same answers, different time).

``--trace 1`` makes a separate run that reports per-layer self times and
counts of one build of the first graph (see ``tracer.py``); end-to-end
numbers come from ``--trace 0``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import statistics
import sys
import time
from collections import deque

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
DEADLINE_S = 170.0

WORKLOADS = {
    "build-delaunay": {"kind": "build", "gen": "delaunay", "size": [50],
                       "batch": 4},
    "build-strip": {"kind": "build", "gen": "strip", "size": [3, 64],
                    "batch": 4},
    "serve-mixed": {"kind": "serve", "gen": "delaunay", "size": [50],
                    "batch": 4},
}
# The Delaunay point set is fixed and --seed draws the weights, as on the
# strip: over point sets from seeds 0-9 the DDG work of one n = 100 build
# ranged 2.2M-5.3M relaxations, which would swamp the changes measured here.
TRIANGULATION_SEED = 0
DELAUNAY_MAX_WEIGHT = 20
STREAM_OPS = 4096
REPORT_SHARE = 0.2
CHECK_PAIRS = 40
WARM_GRID = (3, 4)
# Each round of a run takes a few set-up samples and a stretch of the
# stream, so the samples cover the whole run rather than one moment of a
# machine whose speed moves in phases (see speed.py).
SETUP_REPEATS = 5
STREAM_SECONDS = {"build": 0.5, "serve": 0.25}
PREBUILD_SHARE = 0.6


class BenchError(Exception):
    """The benchmark could not produce a result."""


def make_graph(gen: str, size, seed: int):
    from planarcut import TieBreakWeight, build_embedding, generators
    if gen == "strip":
        return generators.grid_graph(size[0], size[1],
                                     rng=random.Random(seed))
    if gen != "delaunay":
        raise BenchError(f"unknown generator {gen!r}")
    tri = generators.random_delaunay_graph(size[0], seed=TRIANGULATION_SEED)
    rng = random.Random(seed)
    weights = [TieBreakWeight.of(rng.randint(1, DELAUNAY_MAX_WEIGHT))
               for _ in range(tri.m)]
    edges = [tri.endpoints(e) for e in range(tri.m)]
    rotations = [[d >> 1 for d in tri.out[v]] for v in range(tri.n)]
    return build_embedding(tri.n, edges, weights, rotations)


def make_ops(n: int, seed: int):
    """The seeded stream: (is_report, s, t) with s != t, plus the pairs the
    correctness gate checks."""
    rng = random.Random(seed * 7919 + 1)

    def pair():
        s = rng.randrange(n)
        t = rng.randrange(n - 1)
        return s, t + (t >= s)

    ops = [(rng.random() < REPORT_SHARE,) + pair() for _ in range(STREAM_OPS)]
    pairs = [pair() for _ in range(CHECK_PAIRS)]
    return ops, pairs


def _run_job(job: dict, workdir: str, name: str, deadline: float) -> dict:
    job_path = os.path.join(workdir, f"{name}.job.json")
    out_path = os.path.join(workdir, f"{name}.out.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"})
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), job_path,
           out_path]
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"no time left for the {name} process")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=left,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} process overran the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{name} process failed with code "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# correctness gate


def _separates(g, cut, s: int, t: int) -> bool:
    removed = set(cut)
    seen = {s}
    todo = deque([s])
    while todo:
        v = todo.popleft()
        for d in g.out[v]:
            if (d >> 1) in removed:
                continue
            w = g.head[d]
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return t not in seen


def check_answers(g, ans: dict, flow: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over one graph's public answers.
    `flow` caches that graph's Dinic values per pair."""
    from planarcut import baseline
    attempted = failed = 0
    msgs = []

    def check(ok: bool, what: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            msgs.append(what)

    for s, t, w, cut, touched in ans["pairs"]:
        key = (s, t)
        if key not in flow:
            flow[key] = baseline.min_cut_value(g, s, t)
        check(w == flow[key], f"weight {s}-{t}: {w} != dinic {flow[key]}")
        check(sum(g.weights[e].base for e in cut) == w,
              f"cut {s}-{t} does not sum to its weight")
        check(_separates(g, cut, s, t), f"cut {s}-{t} leaves s, t connected")
        check(touched <= 4 * len(cut) + 16,
              f"cut {s}-{t} touched {touched} darts for {len(cut)} edges")
    check(len(ans["ghtree"]) == g.n - 1,
          f"ghtree has {len(ans['ghtree'])} edges for n = {g.n}")
    return attempted, failed, msgs


def fingerprint(answer_sets: list) -> str:
    """sha256 over public answers only: per graph, the Gomory-Hu tree and
    the checked cut edge sets."""
    doc = [{"ghtree": ans["ghtree"],
            "cuts": [[s, t, cut] for s, t, _w, cut, _t in ans["pairs"]]}
           for ans in answer_sets]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# one run


def declared_metrics() -> tuple[dict, dict]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _build_s(pace: dict) -> float:
    """Mean over the batch of each graph's scaled median build."""
    n = sum(1 for k in pace["samples"] if k.startswith("build_s."))
    return statistics.fmean(speed.scaled_median(pace, f"build_s.{i}")
                            for i in range(n))


def _end_to_end(res: dict, pre: dict | None) -> dict:
    pace = res["pace"]
    out = {k: speed.scaled_median(pace, k)
           for k in ("setup_s", "query_weight_us_p50", "report_cut_us_p50")}
    out["queries_per_s"] = speed.scaled_median(pace, "queries_per_s",
                                               rate=True)
    out["build_s"] = _build_s((pre or res)["pace"])
    out["peak_rss_mb"] = res["peak_rss_mb"]
    return out


def _per_layer(res: dict, pre: dict | None, names) -> dict:
    # the build layers do no work in a serve process: they read 0 there
    out = dict.fromkeys(names, 0) if pre is not None else {}
    out.update(res["layers"])
    walk = res["walk"]
    pace = res["pace"]
    out["query_weight.us_p99"] = speed.scaled_median(pace,
                                                     "query_weight_us_p99")
    out["report_cut.us_p99"] = speed.scaled_median(pace, "report_cut_us_p99")
    out["report_cut.mean_edges"] = walk["edges"] / max(1, walk["reports"])
    out["report_cut.touched_per_edge"] = walk["touched"] / max(1,
                                                              walk["edges"])
    if pre is not None:
        out["save.s"] = pre["save_s"]
        out["oracle.kb"] = pre["oracle_kb"]
    return out


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  spec: dict | None = None) -> dict:
    """Run one workload end to end and return the full result record."""
    from planarcut import graphio
    started = time.monotonic()
    deadline = started + DEADLINE_S
    spec = spec or WORKLOADS[name]
    e2e_units, layer_units = declared_metrics()

    workdir = os.path.join(WORK, f"{name}-s{seed}-t{int(trace)}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    paths = [os.path.join(workdir, f"graph{i}.txt")
             for i in range(spec["batch"])]
    for i, path in enumerate(paths):
        graphio.save_graph(make_graph(spec["gen"], spec["size"],
                                      seed * 1000 + i), path)
    warm_path = os.path.join(workdir, "warm.txt")
    graphio.save_graph(make_graph("strip", WARM_GRID, seed), warm_path)
    graphs = [graphio.load_graph(p) for p in paths]
    ops, pairs = make_ops(graphs[0].n, seed)

    job = {"root": ROOT, "graphs": paths, "warm_graph": warm_path,
           "oracles": [os.path.join(workdir, f"oracle{i}.pco")
                       for i in range(spec["batch"])],
           "ops": ops,
           "pairs": pairs, "trace": trace, "setup_repeats": SETUP_REPEATS,
           "stream_seconds": min(STREAM_SECONDS[spec["kind"]], seconds / 10)}
    pre = None
    if spec["kind"] == "serve":
        # the pre-build also builds the other oracles of the batch, untimed,
        # so it gets the larger share of the run
        pre = _run_job(dict(job, kind="prebuild",
                            seconds=seconds * PREBUILD_SHARE),
                       workdir, "prebuild", deadline)
        res = _run_job(dict(job, kind="serve",
                            seconds=seconds * (1 - PREBUILD_SHARE)),
                       workdir, "serve", deadline)
    else:
        res = _run_job(dict(job, kind="build", seconds=seconds), workdir,
                       "build", deadline)

    flow: dict = {}
    attempted = failed = 0
    msgs: list[str] = []
    sets = list(zip(graphs, res["answers"]))
    if trace:
        sets.append((graphs[0], res["answers_traced"][0]))
    for g, ans in sets:
        a, f, m = check_answers(g, ans, flow.setdefault(id(g), {}))
        attempted, failed, msgs = attempted + a, failed + f, msgs + m
    fp = fingerprint(res["answers"])
    if trace:
        attempted += 1
        if fingerprint(res["answers_traced"]) != fingerprint(
                res["answers"][:1]):
            failed += 1
            msgs.append("traced build answers differ from untraced")

    if trace:
        metrics = _per_layer(res, pre, layer_units)
        units = layer_units
    else:
        metrics = _end_to_end(res, pre)
        units = e2e_units
    if set(metrics) != set(units):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")

    counters = dict((pre or {}).get("counters", {}))
    counters.update(res.get("counters", {}))
    counters.update({f"walk.{k}": v for k, v in res["walk"].items()})
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "spec": spec,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": msgs,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
        "pace": {"prebuild": pre["pace"] if pre else None,
                 "run": res["pace"]},
        "fingerprint": fp,
        "counters": counters,
        "spans": res.get("spans"),
        "env": {"python": platform.python_version(),
                "nproc": len(os.sched_getaffinity(0)),
                "command": sys.argv,
                "wall_s": time.monotonic() - started},
        "workdir": workdir,
    }


def report(rec: dict) -> None:
    """Human-readable lines, then the result line the driver reads."""
    print(f"workload {rec['workload']} seed {rec['seed']} "
          f"trace {int(rec['trace'])}")
    for k, m in rec["metrics"].items():
        print(f"metric {k} {m['value']} {m['unit']}")
    for role, pace in rec["pace"].items():
        if pace is None:
            continue
        print(f"{role} speed {speed.speed_of(pace):.4f} of the reference "
              f"over {len(pace['probes'])} probes")
        for k, v in sorted(pace["samples"].items()):
            raw = statistics.median(v)
            print(f"{role} samples {k} {len(v)} wall median {raw:.6g}")
    print(f"error_rate {rec['error_rate']} "
          f"({rec['failed']} of {rec['attempted']} checks failed)")
    for msg in rec["failures"]:
        print(f"FAILED {msg}")
    print(f"fingerprint {rec['fingerprint']}")
    print(f"counters {json.dumps(rec['counters'], sort_keys=True)}")
    print(f"env {json.dumps(rec['env'])}")
    print(json.dumps({"correct": rec["correct"],
                      "attempted": rec["attempted"],
                      "failed": rec["failed"],
                      "metrics": rec["metrics"]}))


def save_record(rec: dict) -> None:
    spans = rec.pop("spans")
    with open(os.path.join(rec["workdir"], "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1)
    if spans is not None:
        with open(os.path.join(rec["workdir"], "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": spans}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = os.path.join(ROOT, "src", "planarcut", "__init__.py")
    if not os.path.isfile(src):
        print(f"run.py: no planarcut sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        rec = run_benchmark(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    save_record(rec)
    report(rec)
    return 0 if rec["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
