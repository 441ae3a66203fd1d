"""Rooted forest over hashable items, kept as a parent map.

`link` and `cut` set and clear one parent pointer; `lca`, `is_descendant`
and `child_toward` (the child of an ancestor on the path to a descendant)
walk up parent pointers, so each costs the depth of the nodes it starts
from.  The region trees a build grows are shallow: their greatest depth is
8 on a Delaunay graph of 50 vertices, 95 on a 3 x 64 grid strip and 386 on
a 3 x 256 one.  At these depths a walk is cheaper than the splay of a
link-cut tree (Sleator and Tarjan, "A data structure for dynamic trees",
JCSS 1983).

A walk that reaches a root without meeting its target answers "different
trees": `lca` raises `DifferentTrees`, `is_descendant` returns False and
`child_toward` returns None.  `op_count` counts the walks.
"""

from __future__ import annotations

from typing import Hashable

from .errors import (AlreadyRoot, CycleWouldForm, DifferentTrees,
                     InputError, UnknownVertex)


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

    def _ancestors(self, item: Hashable) -> list:
        """`item` and its ancestors, nearest first."""
        self.op_count += 1
        parent = self._parent
        out = [item]
        x = self.parent_of(item)
        while x is not None:
            out.append(x)
            x = parent[x]
        return out

    def link(self, child: Hashable, parent: Hashable) -> None:
        if self.parent_of(child) is not None:
            raise InputError(f"{child!r} already has a parent")
        if child in self._ancestors(parent):
            raise CycleWouldForm(f"{parent!r} is below {child!r}")
        self._parent[child] = parent

    def cut(self, child: Hashable) -> None:
        if self.parent_of(child) is None:
            raise AlreadyRoot(f"{child!r}")
        self._parent[child] = None

    def lca(self, a: Hashable, b: Hashable):
        above_a = set(self._ancestors(a))
        for x in self._ancestors(b):
            if x in above_a:
                return x
        raise DifferentTrees(f"{a!r} and {b!r}")

    def is_descendant(self, ancestor: Hashable, item: Hashable) -> bool:
        """True when `item` lies in the subtree of `ancestor` (inclusively)."""
        self.parent_of(ancestor)
        self.parent_of(item)
        self.op_count += 1
        parent = self._parent
        x = item
        while x != ancestor:
            if x is None:
                return False
            x = parent[x]
        return True

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
