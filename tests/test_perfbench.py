"""The benchmark's own smoke run (``perfbench/smoke.py``) as a test.

The benchmark's tracer wraps library names from outside (``build_ddgs`` as
seen from ``planarcut.oracle``, ``lex_dijkstra`` as seen from
``planarcut.ddg`` and ``planarcut.sep_cycle``, and others), so a library
rename that breaks it fails here rather than only in a benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_smoke_run():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "smoke.py")], cwd=ROOT,
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    for name in ("build-delaunay", "build-strip", "serve-mixed"):
        assert f"smoke: {name} ok" in proc.stdout
