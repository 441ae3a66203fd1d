import random

import pytest

from planarcut.dynamic_tree import DynamicTree
from planarcut.errors import InputError, UnknownVertex


class NaiveForest:
    def __init__(self):
        self.parent = {}

    def add_node(self, v):
        self.parent[v] = None

    def link(self, c, p):
        self.parent[c] = p

    def cut(self, c):
        self.parent[c] = None

    def path_to_root(self, v):
        out = [v]
        while self.parent[out[-1]] is not None:
            out.append(self.parent[out[-1]])
        return out

    def root_of(self, v):
        return self.path_to_root(v)[-1]

    def depth(self, v):
        return len(self.path_to_root(v)) - 1

    def is_descendant(self, anc, v):
        return anc in self.path_to_root(v)

    def ancestor_at_depth(self, v, k):
        path = self.path_to_root(v)[::-1]
        return path[k]

    def child_toward(self, anc, v):
        path = self.path_to_root(v)
        if anc not in path[1:]:
            return None
        return path[path.index(anc) - 1]


def test_basic_shape():
    t = DynamicTree()
    for v in range(5):
        t.add_node(v)
    t.link(1, 0)
    t.link(2, 0)
    t.link(3, 1)
    t.link(4, 3)
    assert t.parent_of(4) == 3
    assert t.child_toward(0, 4) == 1
    assert t.child_toward(1, 4) == 3
    assert t.child_toward(2, 4) is None
    assert t.child_toward(4, 4) is None
    t.cut(3)
    assert t.parent_of(3) is None
    assert t.child_toward(3, 4) == 4
    assert t.child_toward(0, 4) is None


def test_error_conditions():
    t = DynamicTree()
    for v in range(3):
        t.add_node(v)
    t.link(1, 0)
    with pytest.raises(InputError):
        t.link(1, 2)
    with pytest.raises(UnknownVertex):
        t.link(2, 7)
    with pytest.raises(UnknownVertex):
        t.cut(7)
    assert t.child_toward(1, 0) is None
    assert t.child_toward(2, 0) is None
    with pytest.raises(UnknownVertex):
        t.child_toward(0, 7)
    with pytest.raises(InputError):
        t.add_node(1)


def check_queries(t, ref, rng, N):
    a, b = rng.randrange(N), rng.randrange(N)
    assert t.parent_of(a) == ref.parent[a]
    assert t.child_toward(a, b) == ref.child_toward(a, b)
    anc = ref.ancestor_at_depth(b, rng.randint(0, ref.depth(b)))
    assert t.child_toward(anc, b) == ref.child_toward(anc, b)
    assert t.child_toward(a, a) is None


def relink(t, ref, rng, N, c):
    """Hang root c under a random node outside its subtree."""
    while True:
        p = rng.randrange(N)
        if not ref.is_descendant(c, p):
            t.link(c, p)
            ref.link(c, p)
            return


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_model_random_operations(seed):
    rng = random.Random(seed)
    N = 60
    t = DynamicTree()
    ref = NaiveForest()
    for v in range(N):
        t.add_node(v)
        ref.add_node(v)

    # a forest of many trees
    for step in range(600):
        op = rng.random()
        if op < 0.35:
            c = rng.randrange(N)
            p = rng.randrange(N)
            if ref.parent[c] is None and c != p and not ref.is_descendant(c, p):
                t.link(c, p)
                ref.link(c, p)
        elif op < 0.5:
            linked = [v for v in range(N) if ref.parent[v] is not None]
            if linked:
                c = rng.choice(linked)
                t.cut(c)
                ref.cut(c)
        else:
            assert len({ref.root_of(v) for v in range(N)}) > 1
            check_queries(t, ref, rng, N)

    # join everything into one tree, then move subtrees around: queries
    # alternate between one tree and two
    top = ref.root_of(0)
    for v in range(N):
        if v != top and ref.parent[v] is None:
            relink(t, ref, rng, N, v)
    for step in range(300):
        assert len({ref.root_of(v) for v in range(N)}) == 1
        check_queries(t, ref, rng, N)
        c = rng.choice([v for v in range(N) if ref.parent[v] is not None])
        t.cut(c)
        ref.cut(c)
        check_queries(t, ref, rng, N)
        relink(t, ref, rng, N, c)

    for v in range(N):
        assert t.parent_of(v) == ref.parent[v]


def test_operation_counter_moves():
    t = DynamicTree()
    for v in range(10):
        t.add_node(v)
    for v in range(1, 10):
        t.link(v, v - 1)
    assert t.op_count == 0
    t.child_toward(0, 9)
    t.child_toward(5, 2)
    assert t.op_count == 2
