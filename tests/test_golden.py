"""Golden bytes: the saved oracle of a few fixed builds, by sha256.

Tie-breaking is total, so a refactor that keeps the path order and the
insert order must save the very same bytes.  A change that moves ties on
purpose updates these hashes and says why in CHANGES.md.
"""

import hashlib
import random

import pytest

from planarcut.generators import (grid_graph, random_delaunay_graph,
                                  random_grid_subgraph)
from planarcut.oracle import build_oracle

GRAPHS = {
    "grid-3x16": lambda: grid_graph(3, 16, rng=random.Random(1)),
    "sparse-grid-5x6": lambda: random_grid_subgraph(5, 6, seed=3),
    "delaunay-30": lambda: random_delaunay_graph(30, seed=0),
    "unit-grid-5x5": lambda: grid_graph(5, 5),
}

GOLDEN = {
    ("grid-3x16", "cut"):
        "4165d52a1049698a4ada54c841e8ad165f072c3e0147e98d8598a634a2237a7d",
    ("grid-3x16", "mcb"):
        "fb1e80b81352ea209d24f3e2afcf7a2f40b8f4cc93baf621113b2b95dcad50ec",
    ("sparse-grid-5x6", "cut"):
        "0125eb3eb868b29dffc97f770b339ed7a8e442be7fc70d03de9292c11e653926",
    ("sparse-grid-5x6", "mcb"):
        "4a2b9b58ddb25eec5d6215c9ffd0018431b827f0b303fa8407727fd50e05e52c",
    ("delaunay-30", "cut"):
        "9ab12f74481f4c4a7a6d15544ec379b9cf7990e43ab526e9a298c99a3daec08e",
    ("delaunay-30", "mcb"):
        "383dd24b8d3602b0106d80337ae5fe5dc29a2f9bcea3abfbdf9532618f321d37",
    ("unit-grid-5x5", "cut"):
        "922f198caad7b62fd3633cddd986e1e6ace3a1bd08e2bc6f520c39e7df718142",
    ("unit-grid-5x5", "mcb"):
        "ec46487730074eaba39b57c0a4c6153c9e0d6a9453dcf9a70c0d32318adb9ed9",
}


@pytest.mark.parametrize("name,mode", sorted(GOLDEN))
def test_saved_oracle_bytes_are_golden(name, mode, tmp_path):
    path = tmp_path / "oracle.pco"
    build_oracle(GRAPHS[name](), mode=mode).save(str(path))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN[(name, mode)]
