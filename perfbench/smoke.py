"""Smoke test of the benchmark's own code on tiny inputs.

    python3 perfbench/smoke.py

Runs every workload untraced and traced on a 3 x 4 strip or a Delaunay
n = 8 graph for a fraction of a second each, and checks that the answers
pass the gate, that every declared metric is reported, that the layer self
times tile the traced build, and that fingerprints and counters repeat for
one seed and the fingerprint changes with the seed.  Exits non-zero on the
first failed expectation.
"""

from __future__ import annotations

import os
import sys

import run

TINY = {
    "build-delaunay": {"kind": "build", "gen": "delaunay", "size": [8],
                       "batch": 2},
    "build-strip": {"kind": "build", "gen": "strip", "size": [3, 4],
                    "batch": 2},
    "serve-mixed": {"kind": "serve", "gen": "delaunay", "size": [8],
                    "batch": 2},
}
SECONDS = 0.3


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: {what}")


def main() -> int:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    e2e, layers = run.declared_metrics()
    for name, spec in TINY.items():
        a = run.run_benchmark(name, 1, SECONDS, False, spec)
        b = run.run_benchmark(name, 1, SECONDS, False, spec)
        c = run.run_benchmark(name, 2, SECONDS, False, spec)
        t = run.run_benchmark(name, 1, SECONDS, True, spec)
        for rec in (a, b, c, t):
            _expect(rec["correct"], f"{name}: {rec['failures']}")
            _expect(rec["attempted"] > 0, f"{name}: no checks attempted")
        _expect(set(a["metrics"]) == set(e2e), f"{name}: end-to-end set")
        _expect(set(t["metrics"]) == set(layers), f"{name}: per-layer set")
        _expect(all(m["value"] > 0 for m in a["metrics"].values()),
                f"{name}: an end-to-end metric reads 0")
        _expect(a["fingerprint"] == b["fingerprint"] == t["fingerprint"],
                f"{name}: fingerprint differs for one seed")
        _expect(a["counters"] == b["counters"],
                f"{name}: counters differ for one seed")
        _expect(a["fingerprint"] != c["fingerprint"],
                f"{name}: fingerprint ignores the seed")
        m = {k: v["value"] for k, v in t["metrics"].items()}
        if TINY[name]["kind"] == "build":
            parts = sum(m[k] for k in (
                "chain.self_s", "subdivide.self_s", "ddg.self_s",
                "sep.self_s", "sep.search_s", "insert.self_s",
                "pairscan.self_s", "report_tables.self_s", "pmi.self_s",
                "build.other_s"))
            _expect(abs(parts - m["build.traced_s"]) < 1e-6,
                    f"{name}: self times do not add up to the traced build")
            _expect(m["ddg.dijkstras"] > 0 and m["insert.calls"] > 0,
                    f"{name}: build layers report no work")
        _expect(m["trace.overhead"] > 0, f"{name}: no trace overhead")
        for rec in (a, b, c, t):
            run.save_record(rec)
        print(f"smoke: {name} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
