"""Spans and counts at the planarcut layer boundaries, recorded from outside.

The library modules bind their collaborators with ``from .x import y``, so a
layer is wrapped where its caller looks it up: ``planarcut.oracle.build_ddgs``
rather than ``planarcut.ddg.build_ddgs``.  `install` swaps those module
attributes for recording wrappers and returns the tracer; `Tracer.restore`
puts the originals back.  Spans and counts stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import time

# span names whose self times, with the root span's, tile a traced build
BUILD_LAYERS = ("chain", "subdivide", "ddg", "sep", "sep.search", "insert",
                "pairscan", "report_tables", "pmi")


class Tracer:
    """In-memory span and counter store with wrappers that feed it.

    A span is ``[name, start, end, parent index]`` with perf_counter times;
    the parent is the innermost span open when it started (-1 for none).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def timed(self, name: str, fn):
        spans = self.spans
        stack = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def searched(self, prefix: str, fn):
        """Count settled nodes and scanned arcs of a lex_dijkstra."""
        counts = self.counts
        k_settled = prefix + ".settled"
        k_relax = prefix + ".relaxations"
        counts.setdefault(k_settled, 0)
        counts.setdefault(k_relax, 0)

        def wrapper(adj, sources, *args, **kwargs):
            def counted(node):
                hops = adj(node)
                if type(hops) is not list and type(hops) is not tuple:
                    hops = list(hops)
                counts[k_relax] += len(hops)
                return hops
            res = fn(counted, sources, *args, **kwargs)
            counts[k_settled] += len(res)
            return res
        return wrapper

    def compared(self, fn):
        """Count path comparisons and those that tie on (weight, nedges)."""
        counts = self.counts
        counts.setdefault("weights.compare_calls", 0)
        counts.setdefault("weights.compare_deep", 0)

        def wrapper(a, b, *args, **kwargs):
            counts["weights.compare_calls"] += 1
            if a.weight == b.weight and a.nedges == b.nedges:
                counts["weights.compare_deep"] += 1
            return fn(a, b, *args, **kwargs)
        return wrapper

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- readout --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the durations of its direct
        child spans (children nest inside their parent's interval)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


def install() -> Tracer:
    """Wrap every traced boundary of the planarcut pipeline."""
    import planarcut.ddg
    import planarcut.oracle
    import planarcut.region_tree
    import planarcut.sep_cycle
    import planarcut.weights

    tr = Tracer()
    oracle = planarcut.oracle
    for name, attr in (("chain", "HostChain"),
                       ("subdivide", "recursive_subdivide"),
                       ("ddg", "build_ddgs"),
                       ("sep", "min_separating_cycle_fast"),
                       ("sep", "min_separating_cycle_safe"),
                       ("pairscan", "regions_with_unseparated_pair"),
                       ("report_tables", "build_cut_report_tables"),
                       ("pmi", "PathMinIndex")):
        tr.patch(oracle, attr, tr.timed(name, getattr(oracle, attr)))
    tree_cls = planarcut.region_tree.RegionTree
    tr.patch(tree_cls, "insert_cycle",
             tr.timed("insert", tree_cls.insert_cycle))
    tr.patch(planarcut.ddg, "lex_dijkstra",
             tr.searched("ddg", planarcut.ddg.lex_dijkstra))
    tr.patch(planarcut.sep_cycle, "lex_dijkstra",
             tr.timed("sep.search",
                      tr.searched("sep", planarcut.sep_cycle.lex_dijkstra)))
    for mod in (planarcut.weights, planarcut.sep_cycle):
        tr.patch(mod, "compare_chains", tr.compared(mod.compare_chains))
    return tr
