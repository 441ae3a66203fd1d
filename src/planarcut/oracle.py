"""End-to-end min-cut oracle: preprocess a planar graph into a complete
region tree, extract the Gomory-Hu tree, and answer queries.

Cut mode works on the dual (cycles separating dual faces are cuts of the
input); mcb mode runs the same machinery on the graph itself and returns
the minimum cycle basis.  The pipeline is

    input -> [dual] -> subdivide-to-simple -> bounding cycle ->
    chord pinched faces -> degree-3 expansion = host

followed by the recursive subdivision, dense distance tables, and the
level loop that inserts one separating cycle per unseparated face pair,
deepest pieces first.  The complete region tree contracts to the Gomory-Hu
tree; a path-minimum index answers weight queries in constant time, and
cut edge sets are reported through the succinct cycle representation on
the pre-expansion host so reported work is proportional to cut size.

A pinched face is one whose walk visits a vertex twice: a finite face at a
bridge or a cut vertex, or a sky arc (a face that the bounding cycle closes
off from the old infinite face) that repeats a vertex.  Only those faces
get (infinite-weight) chords: they are the ones whose degree-3 expansion
would leave a host edge with the same face on both sides.
"""

from __future__ import annotations

import struct
import sys
from array import array

from .ddg import build_ddgs
from .errors import (InputError, InternalAssertion, SameVertex, TooSmall,
                     UnknownVertex)
from .planar_core import (PlanarEmbedding, add_bounding_cycle, dual,
                          degree_three_transform, subdivide_to_simple,
                          triangulate)
from .region_tree import RegionTree, regions_with_unseparated_pair
from .sep_cycle import (FallbackNeeded, PieceContext,
                        min_separating_cycle_fast, min_separating_cycle_safe,
                        new_stats)
from .subdivision import recursive_subdivide
from .weights import ZERO_EDGE, unpack

MAGIC = b"PCO1"


def new_build_stats() -> dict:
    s = new_stats()
    s.update({"inserts": 0, "relocations": 0, "fallbacks": 0,
              "pieces": 0, "levels": 0,
              "host_vertices": 0, "host_edges": 0, "host_faces": 0})
    return s


# ---------------------------------------------------------------------------
# transform pipeline


class HostChain:
    """The transformed host plus everything needed to map results back."""

    __slots__ = ("g0", "host", "h1", "face_group", "input_edge_of_h1_dart",
                 "h1_dart_of_host", "host_face_of_h1_face", "group_count")

    def __init__(self, g0: PlanarEmbedding, dualize: bool):
        self.g0 = g0
        base = dual(g0) if dualize else g0
        g1, t1 = subdivide_to_simple(base)
        g2, t2 = add_bounding_cycle(g1)
        # a face whose walk repeats a vertex, finite or a sky arc, would leave
        # an edge with one face on both sides after the degree-3 expansion;
        # chord only those
        pinched = [f for f, orbit in enumerate(g2.faces)
                   if len({g2.head[d] for d in orbit}) < len(orbit)]
        g3, t3 = triangulate(g2, pinched)
        g4, t4 = degree_three_transform(g3)
        self.host = g4
        self.h1 = g3

        # the degree-3 pass keeps faces; invert its cover to go back up
        self.host_face_of_h1_face = [-1] * len(g3.faces)
        for f4, f3 in enumerate(t4.face_cover):
            if self.host_face_of_h1_face[f3] != -1:
                raise InternalAssertion("degree-3 pass split a face")
            self.host_face_of_h1_face[f3] = f4

        # host face -> input vertex (cut mode, where each face of the dual
        # is the rotation around one input vertex) or input face (mcb mode)
        group_of = ([g0.head[orbit[0]] for orbit in base.faces] if dualize
                    else range(len(base.faces)))
        groups = []
        for f4 in range(len(g4.faces)):
            f0 = t1.face_cover[t2.face_cover[t3.face_cover[t4.face_cover[f4]]]]
            groups.append(group_of[f0])
        self.face_group = groups
        self.group_count = len(set(groups))

        # pre-expansion dart -> input edge (-1 for added structure)
        back = []
        for d3 in range(2 * g3.m):
            d = t3.dart_origin[d3]
            if d != -1:
                d = t2.dart_origin[d]
            if d != -1:
                d = t1.dart_origin[d]
            back.append(d >> 1 if d != -1 else -1)
        self.input_edge_of_h1_dart = back
        self.h1_dart_of_host = list(t4.dart_origin)

        # every host edge of a zero-weight input edge weighs one zero-rung
        # unit, so a zero-weight detour never undercuts an epsilon edge
        for e4 in range(g4.m):
            d3 = t4.dart_origin[2 * e4]
            if d3 != -1 and back[d3] != -1 and g0.weights[back[d3]] == 0:
                g4.weights[e4] += ZERO_EDGE


# ---------------------------------------------------------------------------
# level loop


class _Builder:
    def __init__(self, chain: HostChain, safe_cycles: bool, stats: dict,
                 insert_hook=None):
        self.chain = chain
        self.g = chain.host
        self.safe_cycles = safe_cycles
        self.stats = stats
        self.insert_hook = insert_hook
        self.sd = recursive_subdivide(self.g)
        self.ddgs = build_ddgs(self.sd)
        self.tree = RegionTree(self.g)
        stats["pieces"] = len(self.sd.pieces)
        stats["levels"] = len(self.sd.levels())
        stats["host_vertices"] = self.g.n
        stats["host_edges"] = self.g.m
        stats["host_faces"] = len(self.g.faces)

    def run(self) -> RegionTree:
        for level in reversed(self.sd.levels()):
            for pid in level:
                self._process_piece(pid)
        if not self.tree.complete():
            raise InternalAssertion("region tree incomplete after root piece")
        self.stats["inserts"] = self.tree.stats["inserts"]
        self.stats["relocations"] = self.tree.stats["relocations"]
        return self.tree

    def _process_piece(self, pid: int) -> None:
        piece = self.sd.pieces[pid]
        if piece.is_leaf:
            self._separate_all(pid, piece.edges, piece.edges, ())
            return
        groups = [([c], list(self.sd.pieces[c].edges))
                  for c in piece.children]
        while len(groups) > 1:
            nxt = []
            for i in range(0, len(groups) - 1, 2):
                ids_a, edges_a = groups[i]
                ids_b, edges_b = groups[i + 1]
                merged = ids_a + ids_b
                taken = set(merged)
                sibs = [c for c in piece.children if c not in taken]
                self._separate_all(pid, edges_a, edges_b, sibs)
                nxt.append((merged, edges_a + edges_b))
            if len(groups) % 2:
                nxt.append(groups[-1])
            groups = nxt

    def _separate_all(self, pid, side_a, side_b, sibling_ids) -> None:
        # the fast engine's context reads the piece's tables, so it is built
        # by the first engine call; most merge steps make none
        ctx = None
        while True:
            found = regions_with_unseparated_pair(self.tree,
                                                  (side_a, side_b))
            if not found:
                return
            progressed = False
            for region in sorted(found):
                fa, fb = found[region]
                # an insert earlier in this round may have moved the pair
                if (self.tree.parent(fa) != region
                        or self.tree.parent(fb) != region):
                    continue
                if ctx is None and not self.safe_cycles:
                    ctx = PieceContext(self.g, self.tree, self.sd, self.ddgs,
                                       pid, set(side_a) | set(side_b),
                                       sibling_ids)
                cyc = self._cycle(ctx, region, fa, fb)
                self.tree.insert_cycle(cyc, region, (fa, fb))
                if self.insert_hook is not None:
                    self.insert_hook(self.tree, cyc, region)
                progressed = True
            if not progressed:
                raise InternalAssertion("pair scan made no progress")

    def _cycle(self, ctx, region, fa, fb):
        if ctx is None:
            return min_separating_cycle_safe(self.g, self.tree, region,
                                             fa, fb, self.stats)
        try:
            return min_separating_cycle_fast(ctx, region, fa, fb,
                                             stats=self.stats)
        except FallbackNeeded:
            self.stats["fallbacks"] += 1
            return min_separating_cycle_safe(self.g, self.tree, region,
                                             fa, fb, self.stats)


# ---------------------------------------------------------------------------
# path-minimum index (Kruskal merge tree + range maximum over its in-order)


class PathMinIndex:
    """Constant-time minimum-edge queries on tree paths.

    The n - 1 edges of a spanning tree merge heaviest first, ties by edge
    index, so the lca of two leaves in the merge tree is the lightest edge
    on their tree path.  The merge tree is full binary: its in-order
    alternates leaves and merge steps, and the lca of two leaves is the
    latest step between them.  A query is one range maximum over the gaps
    between leaf slots, read from a sparse table of step numbers; it
    returns the step, and `edge_of_step` maps a step to the index of the
    edge merged there, so callers keep their per-edge data in flat arrays
    in step order.
    """

    def __init__(self, n: int, edges):
        # edges: (weight, payload, u, v) with tuple weights; the payload is
        # the caller's and is not read here.  A reversed sort stays stable,
        # so equal weights keep index order
        weight = [e[0] for e in edges]
        order = sorted(range(len(edges)), key=weight.__getitem__,
                       reverse=True)
        root_of = list(range(n))
        size = [1] * n
        kids = []
        for i in order:
            _, _, u, v = edges[i]
            ru, rv = self._find(root_of, u), self._find(root_of, v)
            if ru == rv:
                raise InternalAssertion("cycle in path-min edge set")
            node = len(root_of)
            root_of[ru] = root_of[rv] = node
            root_of.append(node)
            size.append(size[ru] + size[rv])
            kids.append((ru, rv))
        self.edge_of_step = order
        # top down from the last step: a node's leaves take the slots from
        # its offset on, the left child's first; its gap follows them
        offset = [0] * len(root_of)
        gap_step = [0] * len(kids)
        for step in reversed(range(len(kids))):
            left, right = kids[step]
            mid = offset[n + step] + size[left]
            offset[left] = offset[n + step]
            offset[right] = mid
            gap_step[mid - 1] = step
        # slots and sparse table rows are flat machine-int arrays; boxed
        # ints cost a detour through scattered heap objects on every probe
        self.slot = array("i", offset[:n])
        table = [array("i", gap_step)]
        half = 1
        while 2 * half <= len(gap_step):
            prev = table[-1]
            table.append(array("i", map(max, prev, prev[half:])))
            half *= 2
        self.table = table

    @staticmethod
    def _find(root_of, x):
        while root_of[x] != x:
            root_of[x] = root_of[root_of[x]]
            x = root_of[x]
        return x

    def query(self, u: int, v: int) -> int:
        """The merge step of the minimum edge on the u-v tree path."""
        a, b = self.slot[u], self.slot[v]
        if a > b:
            a, b = b, a
        j = (b - a).bit_length() - 1
        row = self.table[j]
        x = row[a]
        y = row[b - (1 << j)]
        return x if x > y else y


# ---------------------------------------------------------------------------
# succinct cycle representation and the reporting walk


class CutReportTables:
    """Per-cycle path decomposition on the pre-expansion host.

    Every basis cycle is stored as P(C), the darts it does not share with
    any ancestor cycle, plus the darts d1/d2 of the cycle just before and
    after P(C).  A cycle is reassembled by walking P-paths: shared
    stretches ride along ancestors' P-paths, chained by d2 when a path
    runs out and rerouted wherever the emitted dart is the d1 of a deeper
    ancestor.  The work stays proportional to the cycle length.
    """

    __slots__ = ("p_darts", "d1", "d2", "owner", "cycle_of_region",
                 "tin", "tout", "depth", "descend", "budget")

    def __init__(self):
        self.p_darts: list[list[int]] = []
        self.d1: list[int] = []
        self.d2: list[int] = []
        self.owner: dict[int, tuple[int, int]] = {}
        self.cycle_of_region: dict[int, int] = {}
        self.tin: list[int] = []
        self.tout: list[int] = []
        self.depth: list[int] = []
        self.descend: dict[int, list[int]] = {}
        self.budget = 64

    def add_cycle(self, region: int, darts: list[int],
                  owned: list[bool]) -> None:
        idx = len(self.p_darts)
        self.cycle_of_region[region] = idx
        k = len(darts)
        if all(owned):
            self.p_darts.append(list(darts))
            self.d1.append(-1)
            self.d2.append(-1)
            return
        if not any(owned):
            raise InternalAssertion("cycle owns none of its darts")
        start = next(i for i in range(k)
                     if owned[i] and not owned[i - 1])
        path = []
        for i in range(k):
            j = (start + i) % k
            if not owned[j]:
                break
            path.append(darts[j])
        if len(path) != sum(owned):
            raise InternalAssertion("owned darts of a cycle are not a path")
        self.p_darts.append(path)
        self.d1.append(darts[start - 1])
        self.d2.append(darts[(start + len(path)) % k])

    def finalize(self) -> None:
        """Index each P-path dart by its place, and the d1 darts by owning
        cycle, deepest first, for reroute lookups during expansion."""
        self.owner = {d: (idx, i) for idx, path in enumerate(self.p_darts)
                      for i, d in enumerate(path)}
        self.descend = {}
        for x, d in enumerate(self.d1):
            if d != -1:
                self.descend.setdefault(d, []).append(x)
        for lst in self.descend.values():
            lst.sort(key=lambda x: self.depth[x], reverse=True)
        self.budget = 3 * sum(len(p) for p in self.p_darts) + 64

    def expand_index(self, idx: int) -> tuple[list[int], int]:
        """Reassemble a stored cycle; returns (darts, touched counter).
        The counter takes every stored dart read and every `descend` entry
        scanned.  The dart reads come to at most twice the cycle length,
        and the scans to at most the cycle count, as a cycle emits each
        dart once and every cycle sits in one list: hence the budget of
        3 Σ|P|."""
        path = self.p_darts[idx]
        out = list(path)
        touched = len(path)
        if self.d1[idx] == -1:
            return out, touched
        budget = self.budget
        descend, tin, tout = self.descend, self.tin, self.tout
        t = tin[idx]
        d = self.d2[idx]
        while True:
            cur, pos = self.owner[d]
            p = self.p_darts[cur]
            touched += 1
            while True:
                dart = p[pos]
                out.append(dart)
                touched += 1
                if touched > budget:
                    raise InternalAssertion("cycle reassembly never closed")
                # reroute into the deepest cycle at or above idx whose d1
                # is this dart (the lists are deepest first)
                hop = -1
                for x in descend.get(dart, ()):
                    touched += 1
                    if tin[x] <= t <= tout[x]:
                        hop = x
                        break
                if hop == idx:
                    return out, touched
                if hop != -1:
                    d = self.p_darts[hop][0]
                    break
                pos += 1
                if pos == len(p):
                    d = self.d2[cur]
                    if d == -1:
                        pos = 0
                        continue
                    break


def build_cut_report_tables(tree: RegionTree,
                            chain: HostChain) -> CutReportTables:
    """P(C), d1, d2 per region cycle and the owning cycle per dart, on the
    pre-expansion host."""
    h1 = chain.h1
    to_host_face = chain.host_face_of_h1_face
    tables = CutReportTables()

    # one preorder walk gives every region its depth and an interval, so
    # the ancestry tests below take constant time; the stored intervals
    # serve the same tests during expansion, with no tree after loading
    tin: dict[int, int] = {}
    tout: dict[int, int] = {}
    depth: dict[int, int] = {}
    clock = 0
    stack = [(tree.root, 0, False)]
    while stack:
        region, dep, done = stack.pop()
        if done:
            tout[region] = clock - 1
            continue
        tin[region] = clock
        depth[region] = dep
        clock += 1
        stack.append((region, dep, True))
        for child in tree.children[region]:
            if tree.is_region(child):
                stack.append((child, dep + 1, False))

    def inside(region: int, face: int) -> bool:
        return tin[region] <= tin[tree.parent(face)] <= tout[region]

    def owner_region(d: int) -> int:
        """The child of lca(fl, fr) toward fr: the last node on the walk up
        from fr before a region that holds fl."""
        fr = to_host_face[h1.face_of[d ^ 1]]
        fl = to_host_face[h1.face_of[d]]
        if fl == fr:
            raise InternalAssertion("cycle dart with equal flank faces")
        x = fr
        while not inside(tree.parent(x), fl):
            x = tree.parent(x)
        return x

    # deepest first: the order fixes each cycle's table index, which the
    # oracle file stores
    regions = [r for r in tree.children if r != tree.root]
    regions.sort(key=depth.__getitem__, reverse=True)

    h1_darts = {}
    for region in regions:
        darts = h1_darts[region] = _h1_cycle_darts(
            inside, chain, region, tree.cycles[region].darts())
        owned = [owner_region(d) == region for d in darts]
        tables.add_cycle(region, darts, owned)

    # the root's cycle bounds the infinite face, which lies on its left
    host = chain.host
    darts = h1_darts[tree.root] = _h1_cycle_darts(
        inside, chain, tree.root, host.faces[host.infinite_face])
    tables.add_cycle(tree.root, darts, [True] * len(darts))

    n_cycles = len(tables.p_darts)
    tables.tin = [0] * n_cycles
    tables.tout = [0] * n_cycles
    tables.depth = [0] * n_cycles
    for region in tin:
        idx = tables.cycle_of_region.get(region)
        if idx is None:
            raise InternalAssertion("region without a stored cycle")
        tables.tin[idx] = tin[region]
        tables.tout[idx] = tout[region]
        tables.depth[idx] = depth[region]
    tables.finalize()

    for region, idx in tables.cycle_of_region.items():
        got, _ = tables.expand_index(idx)
        if not _same_cycle(got, h1_darts[region]):
            raise InternalAssertion(
                "stored tables do not reproduce the cycle of region "
                f"{region}")
    return tables


def _same_cycle(a: list[int], b: list[int]) -> bool:
    if len(a) != len(b) or not a:
        return a == b
    try:
        shift = b.index(a[0])
    except ValueError:
        return False
    return all(a[i] == b[(shift + i) % len(b)] for i in range(len(a)))


def _h1_cycle_darts(inside, chain: HostChain, region: int,
                    host_darts) -> list[int]:
    """A cycle's host darts mapped to the pre-expansion host, oriented with
    the region's interior on the right.  `inside(region, face)` tells
    whether a host face lies in the region."""
    host = chain.host
    back = chain.h1_dart_of_host
    darts = [back[d] for d in host_darts if back[d] != -1]
    if not darts:
        raise InternalAssertion("cycle vanished in the pre-expansion host")
    probe = next(d for d in host_darts if back[d] != -1)
    if not inside(region, host.face_of[probe ^ 1]):
        darts = [d ^ 1 for d in reversed(darts)]
    return darts


# ---------------------------------------------------------------------------
# the oracle


class MinCutOracle:
    """Immutable query structure: constant-time min-cut weights, cut edge
    sets in output-sensitive time, explicit minimum cycle basis."""

    def __init__(self, mode: str, n_nodes: int, scale: int,
                 gh_edges: list, tables: CutReportTables,
                 edge_of_dart: list, stats: dict):
        self.mode = mode
        self.n_nodes = n_nodes
        self.scale = scale
        self.gh_edges = gh_edges          # (u, v, base, eps, table index)
        # per merge step of the path-minimum index: the cut weight (a list,
        # as built weights may exceed 2^63) and the cycle's table index
        self._pmi = None
        self._step_weight = []
        self._step_cycle = array("i")
        if mode == "cut":
            self._pmi = PathMinIndex(n_nodes,
                                     [((base, eps), idx, u, v)
                                      for u, v, base, eps, idx in gh_edges])
            steps = [gh_edges[i] for i in self._pmi.edge_of_step]
            self._step_weight = [rec[2] for rec in steps]
            self._step_cycle = array("i", [rec[4] for rec in steps])
        self._tables = tables
        self._edge_of_dart = edge_of_dart
        self.stats = stats
        self.last_report_counter = 0

    # -- queries --------------------------------------------------------

    def _check_pair(self, s: int, t: int) -> None:
        if self.mode != "cut":
            raise InputError("weight queries need a cut-mode oracle")
        for v in (s, t):
            if not 0 <= v < self.n_nodes:
                raise UnknownVertex(f"vertex {v}")
        if s == t:
            raise SameVertex(f"{s}")

    def query_weight(self, s: int, t: int) -> int:
        """Minimum st-cut weight as a scaled integer: one range test, one
        path-minimum query for the merge step, one read of that step's
        weight.  A pair that fails the test raises through `_check_pair`."""
        n = self.n_nodes
        if not (s != t and 0 <= s < n and 0 <= t < n
                and self.mode == "cut"):
            self._check_pair(s, t)
        return self._step_weight[self._pmi.query(s, t)]

    def report_cut(self, s: int, t: int) -> list[int]:
        """Edge ids of a minimum st-cut: the pair is checked and its merge
        step found as in `query_weight`, then the step's cycle is expanded.
        Touched work is recorded in last_report_counter and stays
        proportional to the cut size."""
        n = self.n_nodes
        if not (s != t and 0 <= s < n and 0 <= t < n
                and self.mode == "cut"):
            self._check_pair(s, t)
        return self._expand_to_edges(
            self._step_cycle[self._pmi.query(s, t)])

    def _expand_to_edges(self, idx: int) -> list[int]:
        darts, touched = self._tables.expand_index(idx)
        self.last_report_counter = touched
        edges = set()
        for d in darts:
            e = self._edge_of_dart[d]
            if e == -1:
                raise InternalAssertion(
                    "added structure inside a reported cycle")
            edges.add(e)
        return sorted(edges)

    def ghtree(self) -> list[tuple[int, int, int]]:
        """Gomory-Hu tree edges as (u, v, scaled weight)."""
        if self.mode != "cut":
            raise InputError("Gomory-Hu tree needs a cut-mode oracle")
        return [(u, v, base) for u, v, base, eps, idx in self.gh_edges]

    def mcb(self) -> list[tuple[list[int], int]]:
        """Minimum cycle basis as (edge ids, scaled weight) per cycle."""
        if self.mode != "mcb":
            raise InputError("cycle basis needs an mcb-mode oracle")
        return [(self._expand_to_edges(idx), base)
                for u, v, base, eps, idx in self.gh_edges]

    # -- serialization ----------------------------------------------------

    def save(self, path: str) -> None:
        if any(rec[2] >> 63 for rec in self.gh_edges):
            raise InputError("oracle files store cut weights below 2^63")
        if self.scale >> 63:
            raise InputError("oracle files store a weight scale below 2^63")
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<HH", 1, 0 if self.mode == "cut" else 1))
            fh.write(struct.pack("<qqq", self.n_nodes, self.scale,
                                 len(self.gh_edges)))
            for rec in self.gh_edges:
                fh.write(struct.pack("<qqqqq", *rec))
            t = self._tables
            fh.write(struct.pack("<q", len(t.p_darts)))
            for idx in range(len(t.p_darts)):
                p = t.p_darts[idx]
                fh.write(struct.pack("<qqqqqq", len(p), t.d1[idx],
                                     t.d2[idx], t.tin[idx], t.tout[idx],
                                     t.depth[idx]))
                fh.write(struct.pack(f"<{len(p)}q", *p))
            fh.write(struct.pack("<q", len(self._edge_of_dart)))
            fh.write(struct.pack(f"<{len(self._edge_of_dart)}q",
                                 *self._edge_of_dart))

    @classmethod
    def load(cls, path: str) -> "MinCutOracle":
        """Read a saved oracle.  Every count, index and dart is checked in
        one linear pass and every reported cycle is expanded once, so a
        corrupt or truncated file raises InputError, never a later query."""
        with open(path, "rb") as fh:
            data = fh.read()
        if data[:4] != MAGIC:
            raise InputError("not an oracle file")
        if len(data) < 8:
            raise _corrupt("no header")
        version, mode_flag = struct.unpack_from("<HH", data, 4)
        if version != 1:
            raise InputError(f"unsupported oracle version {version}")
        if mode_flag not in (0, 1):
            raise _corrupt(f"mode flag {mode_flag}")
        mode = "cut" if mode_flag == 0 else "mcb"
        # after the header the file is little-endian 64-bit ints
        if len(data) % 8:
            raise _corrupt(f"{len(data) - 8} bytes after the header are "
                           "not whole 8-byte ints")
        vals = array("q", data[8:])
        if sys.byteorder == "big":
            vals.byteswap()
        vals = vals.tolist()
        size = len(vals)

        if size < 4:
            raise _corrupt("header ends early")
        n_nodes, scale, n_edges = vals[:3]
        if n_nodes < 0 or scale < 1:
            raise _corrupt(f"{n_nodes} nodes, scale {scale}")
        pos = 3 + 5 * n_edges
        if n_edges < 0 or pos >= size:
            raise _corrupt(f"tree edge count {n_edges}")
        if mode == "cut" and n_edges != n_nodes - 1:
            raise _corrupt(f"{n_edges} tree edges on {n_nodes} nodes")
        gh_edges = [tuple(vals[i:i + 5]) for i in range(3, pos, 5)]

        tables = CutReportTables()
        n_cycles = vals[pos]
        pos += 1
        # each cycle record is six ints and at least one dart
        if n_cycles < 0 or pos + 7 * n_cycles >= size:
            raise _corrupt(f"cycle count {n_cycles}")
        for _ in range(n_cycles):
            if pos + 7 >= size:
                raise _corrupt("file ends inside a cycle record")
            k, d1, d2, tin, tout, depth = vals[pos:pos + 6]
            pos += 6
            if k < 1 or pos + k >= size or (d1 == -1) != (d2 == -1):
                raise _corrupt(f"cycle record {(k, d1, d2)}")
            tables.p_darts.append(vals[pos:pos + k])
            pos += k
            tables.d1.append(d1)
            tables.d2.append(d2)
            tables.tin.append(tin)
            tables.tout.append(tout)
            tables.depth.append(depth)
        nd = vals[pos]
        pos += 1
        if nd < 0 or pos + nd > size:
            raise _corrupt(f"dart count {nd}")
        if pos + nd < size:
            raise _corrupt(f"{8 * (size - pos - nd)} trailing bytes")
        edge_of_dart = vals[pos:]

        # range checks by column minima and maxima
        if gh_edges:
            us, vs, bases, epss, idxs = zip(*gh_edges)
            if (min(us + vs) < 0 or max(us + vs) >= n_nodes
                    or min(bases) < 0 or min(epss) < 0
                    or min(idxs) < 0 or max(idxs) >= n_cycles):
                raise _corrupt("a tree edge is out of range")
        ends = tables.d1 + tables.d2
        if n_cycles and (min(map(min, tables.p_darts)) < 0
                         or max(map(max, tables.p_darts)) >= nd
                         or min(ends) < -1 or max(ends) >= nd):
            raise _corrupt(f"a cycle dart lies outside the {nd} darts")
        if nd and min(edge_of_dart) < -1:
            raise _corrupt("negative edge id")
        # the intervals must be a preorder of the cycles' nesting: expansion
        # tests ancestry by containment and reroutes deepest first.  Order
        # the cycles by tin, then keep the enclosing intervals on a stack
        by_tin = [-1] * n_cycles
        for idx, (a, b) in enumerate(zip(tables.tin, tables.tout)):
            if not 0 <= a <= b < n_cycles or by_tin[a] != -1:
                raise _corrupt(f"cycle {idx} has interval [{a}, {b}]")
            by_tin[a] = idx
        ends: list[int] = []
        for idx in by_tin:
            a, b = tables.tin[idx], tables.tout[idx]
            while ends and ends[-1] < a:
                ends.pop()
            if ends and b > ends[-1]:
                raise _corrupt(f"cycle {idx} interval [{a}, {b}] crosses "
                               "an enclosing one")
            if tables.depth[idx] != len(ends):
                raise _corrupt(f"cycle {idx} has depth {tables.depth[idx]} "
                               f"but nests {len(ends)} deep")
            ends.append(b)
        tables.finalize()
        if not tables.owner.keys() >= set(tables.d2) - {-1}:
            raise _corrupt("a cycle continues on a dart no cycle stores")
        try:
            orc = cls(mode, n_nodes, scale, gh_edges, tables, edge_of_dart,
                      {})
            # expanding is pure, so once every reported cycle closes on
            # input edges here, no later report_cut or mcb() can fail
            for idx in {rec[4] for rec in gh_edges}:
                orc._expand_to_edges(idx)
        except InternalAssertion as exc:
            # tree edges that close a cycle, or a stored cycle that never
            # closes or runs over added structure
            raise _corrupt(str(exc)) from None
        orc.last_report_counter = 0
        return orc


def _corrupt(what: str) -> InputError:
    return InputError(f"truncated or corrupt oracle file: {what}")


def build_oracle(g0: PlanarEmbedding, mode: str = "cut",
                 safe_cycles: bool = False,
                 observer=None, insert_hook=None) -> MinCutOracle:
    """Preprocess `g0` for min-cut queries (mode "cut") or its minimum
    cycle basis (mode "mcb").  `observer`, if given, is called with the
    finished builder before the intermediate structures are dropped;
    `insert_hook(tree, cycle, region)` fires after every insertion."""
    if mode not in ("cut", "mcb"):
        raise InputError(f"unknown oracle mode {mode!r}")
    if g0.n < 2:
        raise TooSmall("need at least two vertices")
    stats = new_build_stats()

    chain = HostChain(g0, dualize=(mode == "cut"))
    n_nodes = g0.n if mode == "cut" else len(g0.faces)
    if chain.group_count != n_nodes:
        raise InternalAssertion(
            f"host covers {chain.group_count} groups, expected {n_nodes}")

    builder = _Builder(chain, safe_cycles, stats, insert_hook)
    tree = builder.run()
    if observer is not None:
        observer(builder)

    tables = build_cut_report_tables(tree, chain)
    gh_edges = _contract_tree(tree, chain, tables)
    return MinCutOracle(mode, n_nodes, g0.scale, gh_edges, tables,
                        chain.input_edge_of_h1_dart, stats)


def _contract_tree(tree: RegionTree, chain: HostChain,
                   tables: CutReportTables) -> list:
    """Quotient the region tree by face groups: every region links its
    unique face child to its parent's; edges inside one group contract."""
    groups = chain.face_group
    n_faces = len(chain.host.faces)

    face_child: dict[int, int] = {}
    for f in range(n_faces):
        face_child[tree.parent(f)] = f

    out = []
    for region in sorted(tree.children):
        if region == tree.root:
            continue
        ga = groups[face_child[region]]
        gb = groups[face_child[tree.parent(region)]]
        if ga == gb:
            continue
        inf, base, _, eps = unpack(tree.cycles[region].weight)
        if inf:
            raise InternalAssertion(
                f"infinite weight between groups {ga} and {gb}")
        out.append((ga, gb, base, eps, tables.cycle_of_region[region]))
    expect = chain.group_count - 1
    if len(out) != expect:
        raise InternalAssertion(
            f"contracted tree has {len(out)} edges, expected {expect}")
    return out
