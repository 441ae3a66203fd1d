import multiprocessing
import os
import subprocess
import sys

import pytest

from planarcut.cli import main
from planarcut.errors import InputError
from planarcut.generators import grid_graph, theta_graph
from planarcut.graphio import save_graph
from planarcut.oracle import MinCutOracle, build_oracle

SINGLE_EDGE = "2 1\n0 1 5\n0\n0\n"


@pytest.fixture
def single_edge_file(tmp_path):
    p = tmp_path / "edge.g"
    p.write_text(SINGLE_EDGE)
    return str(p)


def test_build_then_query(tmp_path, single_edge_file, capsys):
    orc = str(tmp_path / "edge.pco")
    assert main(["build", single_edge_file, "-o", orc]) == 0
    out = capsys.readouterr().out
    assert "n=2" in out and "basis_weight=5" in out
    assert main(["query", orc, "0", "1"]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert main(["query", orc, "0", "1", "--cut"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["5", "cut 0"]


def test_query_bad_vertex_exit_code(tmp_path, single_edge_file, capsys):
    orc = str(tmp_path / "edge.pco")
    main(["build", single_edge_file, "-o", orc])
    capsys.readouterr()
    assert main(["query", orc, "0", "9"]) == 2
    assert main(["query", orc, "1", "1"]) == 2


def test_mcb_theta(tmp_path, capsys):
    p = tmp_path / "theta.g"
    save_graph(theta_graph(1, 2, 3), str(p))
    assert main(["mcb", str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[-1] == "total 14"


def test_ghtree_line_count(capsys):
    assert main(["ghtree", "grid:3,3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    for ln in lines:
        u, v, w = ln.split()
        assert int(u) != int(v) and int(w) > 0


def test_verify_ok(capsys):
    assert main(["verify", "delaunay:10", "--pairs", "12",
                 "--fixtures", "2"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_verify_jobs(capsys):
    assert main(["verify", "grid:3,3", "--pairs", "6", "--fixtures", "2",
                 "--jobs", "2"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


def test_total_weight_bound_exit_code(tmp_path, capsys):
    # two parallel edges: one cut and one cycle, each of the total weight
    p = tmp_path / "heavy.g"
    limit = 2 ** 255
    p.write_text(f"2 2\n0 1 {limit - 2}\n0 1 1\n0 1\n1 0\n")
    assert main(["ghtree", str(p)]) == 0
    assert capsys.readouterr().out.split() == ["0", "1", str(limit - 1)]
    assert main(["mcb", str(p)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"total {limit - 1}"
    # the oracle file holds 64-bit weights
    assert main(["build", str(p), "-o", str(tmp_path / "heavy.pco")]) == 2
    p.write_text(f"2 2\n0 1 {limit - 1}\n0 1 1\n0 1\n1 0\n")
    assert main(["ghtree", str(p)]) == 2
    assert "2^255" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["build", "no/such/file.g", "-o", "x.pco"]) == 2
    assert main(["query", "no/such/oracle.pco", "0", "1"]) == 2


def test_non_utf8_graph_file(tmp_path):
    p = tmp_path / "utf16.g"
    p.write_bytes(b"\xff\xfe" + "2 1\n0 1 1\n0\n0\n".encode("utf-16-le"))
    proc = run_cli("ghtree", str(p))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "not UTF-8" in proc.stderr


def test_truncated_oracle_exit_code(tmp_path, single_edge_file, capsys):
    orc = tmp_path / "edge.pco"
    assert main(["build", single_edge_file, "-o", str(orc)]) == 0
    data = orc.read_bytes()
    for size in (6, 20, 40, len(data) // 2, len(data) - 1):
        orc.write_bytes(data[:size])
        capsys.readouterr()
        assert main(["query", str(orc), "0", "1"]) == 2
        assert "truncated or corrupt" in capsys.readouterr().err
    # the installed entry point: exit code 2 and no traceback
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "planarcut.cli", "query",
                           str(orc), "0", "1"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "truncated or corrupt" in proc.stderr


def run_cli(*args):
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "planarcut.cli", *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def put_int(data: bytes, offset: int, value: int) -> bytes:
    return data[:offset] + value.to_bytes(8, "little", signed=True) + \
        data[offset + 8:]


def add_to_int(data: bytes, offset: int, delta: int) -> bytes:
    value = int.from_bytes(data[offset:offset + 8], "little", signed=True)
    return put_int(data, offset, value + delta)


def orphan_reported_dart(data: bytes, first: int) -> bytes:
    """Map the first dart of the cycle that tree edge 0 reports to -1, the
    edge id of added structure; the file closes with the dart count and
    the edge id of every dart."""
    idx = int.from_bytes(data[64:72], "little")
    n_cycles = int.from_bytes(data[first - 8:first], "little")
    pos = first
    for c in range(n_cycles):
        if c == idx:
            dart = int.from_bytes(data[pos + 48:pos + 56], "little")
        pos += 48 + 8 * int.from_bytes(data[pos:pos + 8], "little")
    return put_int(data, pos + 8 + 8 * dart, -1)


# A saved 3 x 3 grid cut oracle is: magic and version (8 bytes), n_nodes
# at 8, scale at 16, the tree edge count at 24, then 40-byte tree edges
# (u, v, base, eps, table index) from 32, then the cycle count and the
# cycle records, each (length, d1, d2, tin, tout, depth) and its darts.
CORRUPTIONS = {
    "negative-nodes": lambda d, first: put_int(d, 8, -5),
    "endpoint-out-of-range": lambda d, first: put_int(d, 32, 999),
    "negative-cycle-length": lambda d, first: put_int(d, first, -3),
    "huge-cycle-length": lambda d, first: put_int(d, first, 2 ** 40),
    "table-index-out-of-range": lambda d, first: put_int(d, 64, 999),
    "negative-edge-count": lambda d, first: put_int(d, 24, -1),
    "trailing-bytes": lambda d, first: d + bytes(8),
    "reported-dart-added-structure": orphan_reported_dart,
    # tree edge 1 gets the endpoints of tree edge 0
    "tree-edges-close-a-cycle": lambda d, first: d[:72] + d[32:48] + d[88:],
    # the first cycle is a deepest one, interval [7, 7] at depth 3, and the
    # last child of [2, 7]
    "interval-tin-after-tout": lambda d, first: add_to_int(d, first + 32, -1),
    "intervals-cross": lambda d, first: add_to_int(d, first + 32, 1),
    "wrong-depth": lambda d, first: add_to_int(d, first + 40, 1),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_oracle_input_error(tmp_path, capsys, name):
    orc = tmp_path / "grid.pco"
    build_oracle(grid_graph(3, 3)).save(str(orc))
    data = orc.read_bytes()
    n_edges = int.from_bytes(data[24:32], "little")
    first_cycle = 32 + 40 * n_edges + 8
    orc.write_bytes(CORRUPTIONS[name](data, first_cycle))
    with pytest.raises(InputError):
        MinCutOracle.load(str(orc))
    assert main(["query", str(orc), "0", "1"]) == 2
    assert "truncated or corrupt" in capsys.readouterr().err
    proc = run_cli("query", str(orc), "0", "1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "truncated or corrupt" in proc.stderr


def test_bad_generator_spec(capsys):
    assert main(["ghtree", "torus:9"]) == 2
    assert main(["ghtree", "grid:x"]) == 2
    assert main(["mcb", "delaunay:2"]) == 2
    for spec in ("grid:inf", "grid:-inf", "grid:nan", "delaunay:inf",
                 "delaunay:nan", "random:inf"):
        assert main(["ghtree", spec]) == 2, spec
        assert "bad" in capsys.readouterr().err


def test_bad_bench_sizes(capsys):
    for sizes in ("inf", "1e9999", "-inf", "x"):
        assert main(["bench", f"--sizes={sizes}"]) == 2, sizes
        assert "bad --sizes" in capsys.readouterr().err
    # below a generator's minimum, as the graph specs refuse it
    assert main(["bench", "--sizes", "1", "--gen", "grid"]) == 2
    assert "bad grid size" in capsys.readouterr().err
    assert main(["bench", "--sizes", "2", "--gen", "delaunay-like"]) == 2
    assert "at least 3 points" in capsys.readouterr().err


def test_verify_negative_pairs(capsys):
    assert main(["verify", "grid:3,3", "--pairs", "-1"]) == 2
    assert "--pairs" in capsys.readouterr().err


def test_verify_needs_a_fixture(capsys):
    for count in ("0", "-2"):
        assert main(["verify", "grid:3,3", "--fixtures", count]) == 2, count
        out = capsys.readouterr()
        assert "--fixtures" in out.err and "mismatches" not in out.out


def test_verify_pool_no_larger_than_fixtures(monkeypatch, capsys):
    # a fake pool records its size and runs the fixtures in this process
    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks):
            return [fn(*t) for t in tasks]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: FakeContext)
    assert main(["verify", "grid:3,3", "--pairs", "3", "--fixtures", "2",
                 "--jobs", "64"]) == 0
    assert sizes == [2]
    assert "2 fixtures" in capsys.readouterr().out


def test_bench_table(capsys):
    assert main(["bench", "--sizes", "16", "--gen", "grid"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split("\t") == ["gen", "n", "m", "build_s", "query_us"]
    assert lines[1].startswith("grid\t16\t")


def test_bench_dump_subdivision(capsys):
    assert main(["bench", "--sizes", "9", "--gen", "grid",
                 "--dump-subdivision"]) == 0
    out = capsys.readouterr().out
    assert "piece\tlevel\tedges\tboundary\tholes" in out


def test_build_dump_region_tree(tmp_path, single_edge_file, capsys):
    orc = str(tmp_path / "t.pco")
    assert main(["build", single_edge_file, "-o", orc,
                 "--dump-region-tree"]) == 0
    out = capsys.readouterr().out
    assert "region" in out and "weight" in out


def test_auto_embed_input(tmp_path, capsys):
    p = tmp_path / "k4.g"
    p.write_text("auto-embed\n4 6\n0 1 1\n0 2 1\n0 3 1\n"
                 "1 2 1\n1 3 1\n2 3 1\n")
    orc = str(tmp_path / "k4.pco")
    assert main(["build", str(p), "-o", orc]) == 0
    capsys.readouterr()
    assert main(["query", orc, "0", "3"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_nonplanar_rejected(tmp_path, capsys):
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    body = "".join(f"{u} {v} 1\n" for u, v in edges)
    p = tmp_path / "k5.g"
    p.write_text(f"auto-embed\n5 {len(edges)}\n{body}")
    assert main(["build", str(p), "-o", str(tmp_path / "k5.pco")]) == 2


def test_safe_cycles_flag(capsys):
    assert main(["ghtree", "grid:2,3", "--safe-cycles"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
