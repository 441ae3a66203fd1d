"""The measured process of the planarcut benchmark.

    python3 measure.py JOB.json OUT.json

`run.py` starts one fresh process per job and reads its answers back.  The
process sees only files: a graph written with ``graphio.save_graph`` or an
oracle written with ``MinCutOracle.save``, plus the operation stream and the
sampled pairs as plain lists.  Job kinds:

* ``prebuild``: build and save the oracles a serve job will load;
* ``build``: time ``build_oracle`` in a closed loop for the run's seconds,
  with set-up samples and a stretch of the query stream after each build;
* ``serve``: time ``load_oracle`` and a closed-loop query stream.

A speed probe follows every group of timed operations (`speed.Paced`); the
job returns the wall-time samples with the probes, and `run.py` reduces
them.  With ``trace`` set, the job first does its untraced work as above,
then repeats its main operation once with the layer wrappers of `tracer` in
place; builds also make a tracemalloc pass over the distance tables.  After
each timed section the process answers the sampled pairs, untimed, for the
correctness gate in `run.py`.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import statistics
import sys
import time
from bisect import bisect_left

import speed
import tracer

# latencies are histogrammed in 1 ns buckets below this cap
HIST_CAP_NS = 50_000
# a build lasts seconds, long enough for the machine's speed to move, so it
# is followed by more probes than the short operations are
PROBES_PER_BUILD = 2


def _import_planarcut(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import planarcut
    here = os.path.dirname(os.path.abspath(planarcut.__file__))
    if os.path.dirname(here) != os.path.abspath(src):
        raise SystemExit(f"planarcut imported from {here}, not from {src}")
    import planarcut.oracle  # noqa: F401  (warm the deferred import)
    return planarcut


# ---------------------------------------------------------------------------
# query stream


def _percentiles(hist, over, qs) -> list[float]:
    """Quantiles in ns of a 1 ns histogram plus its over-cap samples,
    interpolated inside their bucket."""
    cum = list(itertools.accumulate(hist))
    total = cum[-1] + len(over)
    over = sorted(over)
    out = []
    for q in qs:
        target = q * total
        v = bisect_left(cum, target)
        if v < len(cum):
            below = cum[v - 1] if v else 0
            out.append(v + (target - below) / (cum[v] - below))
        else:
            out.append(float(over[min(len(over) - 1,
                                      int(target - cum[-1]))]))
    return out


def stream(pace, orc, ops, seconds: float) -> None:
    """One stretch of the closed loop, one caller: each operation starts
    when the previous one returned.  Cycles through `ops` for `seconds`
    with a latency histogram per operation kind; adds the stretch's p50,
    p99 (us) and throughput (ops/s) to `pace` and takes a probe."""
    clock = time.perf_counter_ns
    qw, rc = orc.query_weight, orc.report_cut
    hq, hr = [0] * HIST_CAP_NS, [0] * HIST_CAP_NS
    over_q: list[int] = []
    over_r: list[int] = []
    cap = HIST_CAP_NS
    done = 0
    t_start = clock()
    deadline = t_start + int(seconds * 1e9)
    while True:
        for rep, s, t in ops:
            if rep:
                a = clock()
                rc(s, t)
                d = clock() - a
                if d < cap:
                    hr[d] += 1
                else:
                    over_r.append(d)
            else:
                a = clock()
                qw(s, t)
                d = clock() - a
                if d < cap:
                    hq[d] += 1
                else:
                    over_q.append(d)
        done += len(ops)
        now = clock()
        if now >= deadline:
            break
    q50, q99 = _percentiles(hq, over_q, (0.50, 0.99))
    r50, r99 = _percentiles(hr, over_r, (0.50, 0.99))
    for name, value in (("query_weight_us_p50", q50 / 1e3),
                        ("query_weight_us_p99", q99 / 1e3),
                        ("report_cut_us_p50", r50 / 1e3),
                        ("report_cut_us_p99", r99 / 1e3),
                        ("queries_per_s", done * 1e9 / (now - t_start))):
        pace.add(name, [value])
    pace.step()


def walk_ops(orc, ops) -> dict:
    """One untimed pass over the stream's operations: warms the queries and
    counts reported edges and touched darts (the stream repeats these ops,
    so its means are the same)."""
    reports = edges = touched = 0
    for rep, s, t in ops:
        if rep:
            cut = orc.report_cut(s, t)
            reports += 1
            edges += len(cut)
            touched += orc.last_report_counter
        else:
            orc.query_weight(s, t)
    return {"reports": reports, "edges": edges, "touched": touched}


def answers(orc, pairs) -> dict:
    """Public answers for the correctness gate and the fingerprint."""
    out = []
    for s, t in pairs:
        w = orc.query_weight(s, t)
        cut = orc.report_cut(s, t)
        out.append([s, t, w, cut, orc.last_report_counter])
    return {"pairs": out, "ghtree": [list(e) for e in orc.ghtree()]}


# ---------------------------------------------------------------------------
# jobs


def _build_counters(orc, builder) -> dict:
    c = {f"oracle.{k}": v for k, v in sorted(orc.stats.items())}
    if builder is not None:
        sd, ddgs, tree = builder.sd, builder.ddgs, builder.tree
        c.update({f"sd.{k}": v for k, v in sorted(sd.stats.items())})
        c.update({f"ddgs.{k}": v for k, v in sorted(ddgs.stats.items())})
        c.update({f"tree.{k}": v for k, v in sorted(tree.stats.items())})
        c["dt.op_count"] = tree.dt.op_count
        c["sd.boundary_cube_sum"] = sum(len(p.boundary) ** 3
                                        for p in sd.pieces if not p.is_leaf)
    return c


def _traced_build(pc, g) -> tuple:
    """One build with every layer wrapped: the oracle, the tracer and the
    builder the observer hook handed out."""
    held = {}
    tr = tracer.install()
    try:
        root = tr.timed("build", pc.build_oracle)
        orc = root(g, mode="cut", observer=lambda b: held.update(builder=b))
    finally:
        tr.restore()
    return orc, tr, held["builder"]


def _layer_times(tr) -> dict:
    """Self time per layer; with build.other_s they tile the traced build."""
    (root,) = [s for s in tr.spans if s[0] == "build"]
    traced_s = root[2] - root[1]
    selfs = tr.self_times()
    out = {f"{k}.self_s": selfs.get(k, 0.0) for k in tracer.BUILD_LAYERS}
    out["sep.search_s"] = out.pop("sep.search.self_s")
    out["build.other_s"] = selfs["build"]
    if abs(sum(out.values()) - traced_s) > 1e-6 * max(1.0, traced_s):
        raise SystemExit("layer self times do not tile the traced build")
    out["build.traced_s"] = traced_s
    sep = sorted(tr.durations("sep"))
    top = sep[len(sep) - max(1, len(sep) // 10):] if sep else []
    out["sep.calls"] = len(sep)
    out["sep.call_ms_p50"] = statistics.median(sep) * 1e3 if sep else 0.0
    out["sep.call_ms_max"] = sep[-1] * 1e3 if sep else 0.0
    out["sep.top10_share"] = sum(top) / sum(sep) if sep else 0.0
    out["pairscan.calls"] = len(tr.durations("pairscan"))
    return out


def _layer_counts(c: dict) -> dict:
    """Per-layer counts out of the library's own stats and the tracer's."""
    return {
        "chain.host_edges": c["oracle.host_edges"],
        "subdivide.pieces": c["sd.pieces"],
        "subdivide.max_boundary": c["sd.max_boundary"],
        "subdivide.fallback_splits": c["sd.fallback_splits"],
        "subdivide.boundary_cube_sum": c["sd.boundary_cube_sum"],
        "ddg.dijkstras": c["ddgs.dijkstra_sources"],
        "ddg.settled": c["ddg.settled"],
        "ddg.relaxations": c["ddg.relaxations"],
        "ddg.table_entries": c["ddgs.int_entries"] + c["ddgs.ext_entries"],
        "sep.dijkstras": c["oracle.dijkstras"],
        "sep.settled": c["sep.settled"],
        "sep.relaxations": c["sep.relaxations"],
        "sep.expanded_arcs": c["oracle.expanded_arcs"],
        "sep.compact_arcs": c["oracle.compact_arcs"],
        "sep.fallbacks": c["oracle.fallbacks"],
        "insert.calls": c["tree.inserts"],
        "insert.relocations": c["tree.relocations"],
        "dt.exposes": c["dt.op_count"],
        "weights.compare_calls": c["weights.compare_calls"],
        "weights.compare_deep": c["weights.compare_deep"],
    }


def _ddg_retained_mb(g) -> float:
    """Python heap held by the distance tables of one build, measured by
    tracemalloc in a pass of its own so the timing trace stays undistorted."""
    import tracemalloc
    from planarcut import oracle as om
    chain = om.HostChain(g, dualize=True)
    sd = om.recursive_subdivide(chain.host)
    tracemalloc.start()
    try:
        ddgs = om.build_ddgs(sd)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del ddgs
    return current / 2 ** 20


def _peak_rss_mb() -> float:
    """High-water RSS of this process.  On Linux ``ru_maxrss`` keeps the
    parent's peak across fork and exec, so the benchmark process (numpy and
    scipy loaded) would mask this one; VmHWM belongs to this image alone."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _build_cycles(pc, pace, graphs, job, each=None) -> list:
    """Closed loop of builds cycling through the batch, the build of graph
    i timed as ``build_s.<i>``.  `each(i, orc)` runs after every build.  After
    the first whole cycle the loop stops when one more round would overrun
    the job's seconds (a traced job stops there).  Returns each graph's last
    oracle."""
    last: list = [None] * len(graphs)
    rounds: list[float] = []
    t_begin = time.perf_counter()
    for k in itertools.count():
        i = k % len(graphs)
        t_round = time.perf_counter()
        last[i] = None
        last[i] = pace.timed(f"build_s.{i}",
                             lambda: pc.build_oracle(graphs[i], mode="cut"),
                             probes=PROBES_PER_BUILD)
        if each is not None:
            each(i, last[i])
        now = time.perf_counter()
        rounds.append(now - t_round)
        if k + 1 >= len(graphs) and (job["trace"] or now - t_begin
                                     + statistics.median(rounds)
                                     > job["seconds"]):
            return last


def _load_batch(job):
    from planarcut import graphio
    warm = graphio.load_graph(job["warm_graph"])
    return warm, [graphio.load_graph(p) for p in job["graphs"]]


def job_prebuild(pc, job) -> dict:
    """Builds and saves the batch's other oracles once, then times builds of
    the first graph alone: its share of a run holds too few builds to split
    them over the batch."""
    t_begin = time.perf_counter()
    warm, graphs = _load_batch(job)
    pc.build_oracle(warm, mode="cut")
    for g, path in zip(graphs[1:], job["oracles"][1:]):
        pc.build_oracle(g, mode="cut").save(path)
    pace = speed.Paced()
    left = job["seconds"] - (time.perf_counter() - t_begin)
    (orc,) = _build_cycles(pc, pace, graphs[:1],
                           dict(job, trace=False, seconds=left))
    t0 = time.perf_counter()
    orc.save(job["oracles"][0])
    save_s = time.perf_counter() - t0
    return {"pace": pace.record(), "save_s": save_s,
            "oracle_kb": os.path.getsize(job["oracles"][0]) / 1024,
            "counters": _build_counters(orc, None)}


def _walk_sum(walks: dict) -> dict:
    return {k: sum(w[k] for w in walks.values())
            for k in ("reports", "edges", "touched")}


def job_build(pc, job) -> dict:
    """Cycles over the batch; after each build a few set-up samples and a
    stretch of the query stream on the new oracle."""
    from planarcut import graphio
    paths, ops = job["graphs"], job["ops"]
    warm, graphs = _load_batch(job)
    pc.build_oracle(warm, mode="cut")
    pace = speed.Paced()
    walks: dict[int, dict] = {}

    def each(i, orc):
        pace.timed("setup_s", lambda: graphio.load_graph(paths[i]),
                   job["setup_repeats"])
        if i not in walks:
            walks[i] = walk_ops(orc, ops)
        stream(pace, orc, ops, job["stream_seconds"])

    last = _build_cycles(pc, pace, graphs, job, each)
    res = {"pace": pace.record(), "peak_rss_mb": _peak_rss_mb(),
           "walk": _walk_sum(walks),
           "counters": _build_counters(last[0], None),
           "answers": [answers(o, job["pairs"]) for o in last]}
    orc = last[0]
    last = None
    g = graphs[0]
    if not job["trace"]:
        return res

    t0 = time.perf_counter()
    orc.save(job["oracles"][0])
    save_s = time.perf_counter() - t0
    orc = None
    orc, tr, builder = _traced_build(pc, g)
    counters = _build_counters(orc, builder)
    counters.update(tr.counts)
    builder = None
    layers = _layer_times(tr)
    layers.update(_layer_counts(counters))
    layers["trace.overhead"] = (layers["build.traced_s"]
                                / pace.samples["build_s.0"][-1])
    layers["graphio.load_s"] = statistics.median(pace.samples["setup_s"])
    layers["save.s"] = save_s
    layers["oracle.kb"] = os.path.getsize(job["oracles"][0]) / 1024
    res["counters"] = counters
    res["answers_traced"] = [answers(orc, job["pairs"])]
    res["spans"] = tr.spans
    orc = tr = None
    layers["ddg.retained_mb"] = _ddg_retained_mb(g)
    res["layers"] = layers
    return res


def job_serve(pc, job) -> dict:
    """Rounds over the batch: set-up samples (``load_oracle``) of oracle i,
    then one stream stretch on it."""
    paths, ops = job["oracles"], job["ops"]
    pc.load_oracle(paths[0])
    pace = speed.Paced()
    walks: dict[int, dict] = {}
    last: list = [None] * len(paths)
    t_begin = time.perf_counter()
    for k in itertools.count():
        i = k % len(paths)
        last[i] = None
        last[i] = pace.timed("setup_s", lambda: pc.load_oracle(paths[i]),
                             job["setup_repeats"])
        if i not in walks:
            walks[i] = walk_ops(last[i], ops)
        stream(pace, last[i], ops, job["stream_seconds"])
        if (k + 1 >= len(paths)
                and time.perf_counter() - t_begin >= job["seconds"]):
            break
    res = {"pace": pace.record(), "peak_rss_mb": _peak_rss_mb(),
           "walk": _walk_sum(walks),
           "answers": [answers(o, job["pairs"]) for o in last]}
    last = None
    if not job["trace"]:
        return res

    traced: list[float] = []
    tr = tracer.install()
    try:
        for _ in range(job["setup_repeats"]):
            orc = None
            t0 = time.perf_counter()
            orc = pc.load_oracle(paths[0])
            traced.append(time.perf_counter() - t0)
    finally:
        tr.restore()
    # the build layers do no work in this process; only load builds a PMI
    res["layers"] = {
        "trace.overhead": (statistics.median(traced)
                           / statistics.median(pace.samples["setup_s"])),
        "pmi.self_s": statistics.median(tr.durations("pmi"))}
    res["answers_traced"] = [answers(orc, job["pairs"])]
    res["spans"] = tr.spans
    return res


JOBS = {"prebuild": job_prebuild, "build": job_build, "serve": job_serve}


def main(argv) -> int:
    job_path, out_path = argv[1], argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    pc = _import_planarcut(job["root"])
    res = JOBS[job["kind"]](pc, job)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
