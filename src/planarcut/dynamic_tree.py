"""Rooted dynamic forest with logarithmic link, cut and ancestry queries.

Splay-based link-cut trees (Sleator and Tarjan) specialised to rooted
forests: trees are never re-rooted, so no reversal flags are needed.  Root,
depth, lca, descendant tests and `child_toward` (the child of an ancestor
on the path to a descendant) each cost at most two exposes.  Splay nodes carry only subtree sizes: no values, no path minima.
The forest counts its trees, so `same_tree`, the guard of `lca` and
`is_descendant`, is free while the forest is one tree (as a build's region
tree always is) and compares roots otherwise.
"""

from __future__ import annotations

from typing import Hashable

from .errors import (AlreadyRoot, CycleWouldForm, DifferentTrees,
                     InputError, UnknownVertex)


class _Node:
    __slots__ = ("item", "par", "pp", "left", "right", "sz", "parent_item")

    def __init__(self, item):
        self.item = item
        self.par: "_Node | None" = None     # splay parent
        self.pp: "_Node | None" = None      # path parent
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.sz = 1
        self.parent_item = None             # represented-tree parent (item)


class DynamicTree:
    """Forest of rooted trees over hashable items."""

    def __init__(self):
        self._nodes: dict[Hashable, _Node] = {}
        self._trees = 0
        self.op_count = 0

    # -- bookkeeping ---------------------------------------------------------

    def add_node(self, item: Hashable) -> None:
        if item in self._nodes:
            raise InputError(f"node {item!r} exists")
        self._nodes[item] = _Node(item)
        self._trees += 1

    def _get(self, item: Hashable) -> _Node:
        try:
            return self._nodes[item]
        except KeyError:
            raise UnknownVertex(f"{item!r}") from None

    # -- splay machinery -------------------------------------------------------

    @staticmethod
    def _update(x: _Node) -> None:
        sz = 1
        if x.left is not None:
            sz += x.left.sz
        if x.right is not None:
            sz += x.right.sz
        x.sz = sz

    def _rotate(self, x: _Node) -> None:
        p = x.par
        g = p.par
        if p.left is x:
            p.left = x.right
            if x.right is not None:
                x.right.par = p
            x.right = p
        else:
            p.right = x.left
            if x.left is not None:
                x.left.par = p
            x.left = p
        p.par = x
        x.par = g
        if g is not None:
            if g.left is p:
                g.left = x
            elif g.right is p:
                g.right = x
        x.pp = p.pp
        p.pp = None
        self._update(p)
        self._update(x)

    def _splay(self, x: _Node) -> None:
        while x.par is not None:
            p = x.par
            g = p.par
            if g is not None:
                if (g.left is p) == (p.left is x):
                    self._rotate(p)
                else:
                    self._rotate(x)
            self._rotate(x)

    def _expose(self, x: _Node) -> _Node:
        """Make the root-to-x path preferred; returns the last path-parent
        switch point, which is lca(previous exposed node, x) when both lie
        in one tree."""
        self.op_count += 1
        self._splay(x)
        if x.right is not None:
            x.right.par = None
            x.right.pp = x
            x.right = None
            self._update(x)
        last = x
        while x.pp is not None:
            w = x.pp
            last = w
            self._splay(w)
            if w.right is not None:
                w.right.par = None
                w.right.pp = w
                w.right = None
            w.right = x
            x.par = w
            x.pp = None
            self._update(w)
            self._splay(x)
        return last

    def _at_depth(self, x: _Node, k: int) -> _Node:
        """Node at depth k on the path of the just-exposed node x, splayed
        to the top of that path's splay tree."""
        while True:
            lsz = x.left.sz if x.left is not None else 0
            if k < lsz:
                x = x.left
            elif k == lsz:
                break
            else:
                k -= lsz + 1
                x = x.right
        self._splay(x)
        return x

    # -- forest operations -------------------------------------------------------

    def link(self, child: Hashable, parent: Hashable) -> None:
        c = self._get(child)
        p = self._get(parent)
        if c.parent_item is not None:
            raise InputError(f"{child!r} already has a parent")
        # child is a root, so it is the lca of itself and parent exactly
        # when parent lies below it
        self._expose(c)
        if self._expose(p) is c:
            raise CycleWouldForm(f"{parent!r} is below {child!r}")
        c.pp = p
        c.parent_item = parent
        self._trees -= 1

    def cut(self, child: Hashable) -> None:
        c = self._get(child)
        if c.parent_item is None:
            raise AlreadyRoot(f"{child!r}")
        self._expose(c)
        # after expose, everything above child hangs in its left subtree
        assert c.left is not None
        c.left.par = None
        c.left.pp = None
        c.left = None
        self._update(c)
        c.parent_item = None
        self._trees += 1

    def parent_of(self, item: Hashable):
        return self._get(item).parent_item

    def root_of(self, item: Hashable):
        x = self._get(item)
        self._expose(x)
        return self._at_depth(x, 0).item

    def depth(self, item: Hashable) -> int:
        x = self._get(item)
        self._expose(x)
        return x.left.sz if x.left is not None else 0

    def same_tree(self, a: Hashable, b: Hashable) -> bool:
        self._get(a)
        self._get(b)
        if self._trees == 1:
            return True
        return self.root_of(a) == self.root_of(b)

    def lca(self, a: Hashable, b: Hashable):
        if a == b:
            self._get(a)
            return a
        if not self.same_tree(a, b):
            raise DifferentTrees(f"{a!r} and {b!r}")
        self._expose(self._nodes[a])
        return self._expose(self._nodes[b]).item

    def is_descendant(self, ancestor: Hashable, item: Hashable) -> bool:
        """True when `item` lies in the subtree of `ancestor` (inclusively)."""
        if ancestor == item:
            self._get(ancestor)
            return True
        if not self.same_tree(ancestor, item):
            return False
        a = self._nodes[ancestor]
        self._expose(a)
        return self._expose(self._nodes[item]) is a

    def child_toward(self, ancestor: Hashable, item: Hashable):
        """Child of `ancestor` on the path to `item`, or None when `item` is
        not a proper descendant of `ancestor` (in any tree)."""
        a = self._get(ancestor)
        x = self._get(item)
        if a is x:
            return None
        self._expose(a)
        k = a.left.sz if a.left is not None else 0
        self._expose(x)
        if x.left is None or x.left.sz <= k:
            return None
        if self._at_depth(x, k) is not a:
            return None
        # a now tops the splay tree of the root-to-item path, so its
        # in-order successor is the next node down that path
        return self._at_depth(a.right, 0).item
