"""Weighted directed influence network: construction (self-loops and edges
outside a year-difference window dropped, max-min normalized weights),
cycle removal, and reachability. A graph keeps its edges once, as arrays in
CSR order."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from artistnet.ingest import write_table

# Year differences outside this window are discarded before normalization;
# the lower bound also anchors the max-min transform so weights stay > 0.
YEAR_DIFF_MIN = -30
YEAR_DIFF_MAX = 80
# Sources per pass of `reach_table`'s bit-parallel BFS: 16 uint64 words a
# node, so one level gathers at most E * 128 bytes.
BFS_CHUNK = 1024


class GraphError(Exception):
    pass


@dataclass(frozen=True)
class ArtistNode:
    id: int
    name: str
    genre: str
    active_start: int


@dataclass(frozen=True)
class InfluenceEdge:
    src: int  # influencer
    dst: int  # follower
    year_diff: int  # follower.active_start - influencer.active_start
    weight: float | None = None  # normalized to (0, 1]


def _rows(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    """The rows of a CSR adjacency as Python lists, one per dense node."""
    flat, bounds = indices.tolist(), indptr.tolist()
    return [flat[bounds[k]:bounds[k + 1]] for k in range(len(bounds) - 1)]


class InfluenceGraph:
    """Immutable directed graph over artist nodes, its edges stored once.

    `nodes` maps id to ArtistNode. The edges are arrays in CSR order over a
    dense index of the sorted node ids, ascending by (src, dst): edge j runs
    from dense node `src[j]` to `indices[j]` with `year_diff[j]` and
    `weight[j]` (NaN for an unweighted edge), and the out-edges of dense node
    k are positions `indptr[k]:indptr[k + 1]`. Traversals read these arrays
    and `_in_csr`, the in-adjacency in the same form, built on first use;
    `edge_rows` walks the edges by id.

    `from_arrays` is the one constructor that checks edges; `InfluenceGraph(
    nodes, edges)` adapts ArtistNode and InfluenceEdge records into it.
    remove_cycles and subgraph, which drop edges, return new graphs.
    """

    def __init__(self, nodes, edges):
        edges = list(edges)
        self._build(nodes, [e.src for e in edges], [e.dst for e in edges], [e.year_diff for e in edges],
                    [math.nan if e.weight is None else e.weight for e in edges], 0, 0)

    @classmethod
    def from_arrays(cls, nodes, src, dst, year_diff, weight, self_loops_dropped: int = 0,
                    year_window_dropped: int = 0) -> InfluenceGraph:
        """Graph over ArtistNode records and edge columns in any order: ids,
        year differences and weights (NaN for none). Raises GraphError
        naming the first edge, in input order, that is a self-loop, touches
        an unknown node or repeats an earlier edge."""
        g = cls.__new__(cls)
        g._build(nodes, src, dst, year_diff, weight, self_loops_dropped, year_window_dropped)
        return g

    def _build(self, nodes, src, dst, year_diff, weight, self_loops_dropped, year_window_dropped):
        self.nodes: dict[int, ArtistNode] = {n.id: n for n in nodes}
        self.self_loops_dropped, self.year_window_dropped = self_loops_dropped, year_window_dropped
        self._ids = sorted(self.nodes)
        self._pos = {i: k for k, i in enumerate(self._ids)}
        self._id_array = ids = np.array(self._ids, np.int64)
        src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
        s, d = np.searchsorted(ids, src), np.searchsorted(ids, dst)  # dense, if known
        order = np.lexsort((d, s))  # stable: of two equal edges, the later sorts second
        loop = src == dst
        unknown = (np.searchsorted(ids, src, "right") == s) | (np.searchsorted(ids, dst, "right") == d)
        repeat = np.zeros(len(src), bool)
        repeat[order[1:]] = (np.diff(s[order]) == 0) & (np.diff(d[order]) == 0)
        bad = np.flatnonzero(loop | unknown | repeat)
        if len(bad):
            j = bad[0]
            a, b = int(src[j]), int(dst[j])
            raise GraphError(f"self-loop edge {a}" if loop[j] else
                             f"edge ({a}, {b}) references unknown node" if unknown[j] else
                             f"duplicate edge ({a}, {b})")
        self.src, self.indices = s[order], d[order]
        self.year_diff = np.asarray(year_diff, np.int64)[order]
        self.weight = np.asarray(weight, np.float64)[order]
        self.indptr = np.searchsorted(self.src, np.arange(len(ids) + 1))
        self._reach_table = None  # filled by reach_table on first use

    @cached_property
    def _in_csr(self):
        """(indptr, indices) of the in-adjacency, ascending by (dst, src)."""
        order = np.lexsort((self.src, self.indices))
        return np.searchsorted(self.indices[order], np.arange(len(self._ids) + 1)), self.src[order]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.indices)

    def node_ids(self) -> list[int]:
        return list(self._ids)

    def _index(self, i: int) -> int:
        """Dense index of node id `i`."""
        try:
            return self._pos[i]
        except KeyError:
            raise GraphError(f"unknown node id {i}") from None

    def edge_rows(self):
        """(src id, dst id, year_diff, weight or None) of each edge,
        ascending by (src, dst)."""
        ids = self._id_array
        return zip(ids[self.src].tolist(), ids[self.indices].tolist(), self.year_diff.tolist(),
                   [None if math.isnan(w) else w for w in self.weight.tolist()])

    def _with_edges(self, nodes, keep: np.ndarray, *dropped) -> InfluenceGraph:
        """A graph over `nodes` and the edges where the mask `keep` holds."""
        ids = self._id_array
        return InfluenceGraph.from_arrays(nodes, ids[self.src[keep]], ids[self.indices[keep]],
                                          self.year_diff[keep], self.weight[keep], *dropped)

    def subgraph(self, keep_ids) -> InfluenceGraph:
        """Induced subgraph on `keep_ids`."""
        keep = set(keep_ids)
        inside = np.isin(self._id_array, np.fromiter(keep, np.int64, len(keep)))
        return self._with_edges([self.nodes[i] for i in self._ids if i in keep],
                                inside[self.src] & inside[self.indices])


def build_graph(artists: dict[int, tuple[str, str, int]], src: np.ndarray,
                dst: np.ndarray) -> InfluenceGraph:
    """One node per artist of `artists` (id -> (name, main genre, active
    start)) and one edge per (influencer `src[j]`, follower `dst[j]`) pair of
    their ids in the int64 arrays, as `load_influence` returns them: each
    pair once. Its year difference x is the follower's active start minus
    the influencer's. Self-influence pairs and pairs whose x lies outside
    (YEAR_DIFF_MIN, YEAR_DIFF_MAX) are dropped and counted; the rest are
    weighted z = (x - YEAR_DIFF_MIN) / (x_max - YEAR_DIFF_MIN), in (0, 1],
    with x_max the largest kept difference.
    """
    ids = np.fromiter(artists, np.int64, len(artists))
    order = np.argsort(ids)
    start = np.array([s for _, _, s in artists.values()], np.int64)[order]
    diff = start[np.searchsorted(ids, dst, sorter=order)] - start[np.searchsorted(ids, src, sorter=order)]
    loop = src == dst
    keep = ~loop & (YEAR_DIFF_MIN < diff) & (diff < YEAR_DIFF_MAX)
    if not keep.any():
        raise GraphError("no edges remain after year-difference filtering")
    diff = diff[keep]
    weight = (diff - YEAR_DIFF_MIN) / (diff.max() - YEAR_DIFF_MIN)
    nodes = [ArtistNode(a, *fields) for a, fields in artists.items()]
    return InfluenceGraph.from_arrays(nodes, src[keep], dst[keep], diff, weight,
                                      int(loop.sum()), int(len(src) - loop.sum() - keep.sum()))


def _tarjan_scc(roots, succ: list) -> list[list[int]]:
    """Iterative Tarjan over the dense nodes reachable from `roots` through
    `succ` (one successor row per dense node); returns SCCs as sorted node
    lists."""
    index = [-1] * len(succ)
    low = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0

    for root in roots:
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            succs = succ[v]
            for i in range(pi, len(succs)):
                w = succs[i]
                if index[w] < 0:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
    return comps


def _split_search(succ, pred, u: int, v: int, members: set[int]):
    """After deleting (u, v) from the SCC `members`: None if u still reaches
    v inside it, else (nodes u reaches, nodes that reach v), u's and v's new
    SCCs. Alternates one pop of a DFS from u along `succ` with one of a DFS
    from v along `pred` until one finds a node the other has seen; once a
    side runs dry, u cannot reach v and the other side runs on alone."""
    fwd, bwd = {u}, {v}
    fstack, bstack = [u], [v]
    while fstack and bstack:
        for stack, seen, other, adj in ((fstack, fwd, bwd, succ), (bstack, bwd, fwd, pred)):
            for w in adj[stack.pop()]:
                if w in other:
                    return None
                if w not in seen and w in members:
                    seen.add(w)
                    stack.append(w)
    for stack, seen, adj in ((fstack, fwd, succ), (bstack, bwd, pred)):
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen and w in members:
                    seen.add(w)
                    stack.append(w)
    return fwd, bwd


def remove_cycles(g: InfluenceGraph) -> tuple[InfluenceGraph, list[InfluenceEdge]]:
    """Break every cycle by repeatedly deleting, within each nontrivial
    strongly connected component, the minimum-weight edge (ties by
    ascending (weight, src, dst)). Deterministic for a given input.

    Works in rounds over a worklist of nontrivial SCCs, visited by smallest
    member. Each SCC holds the CSR positions of its internal edges, sorted
    once heaviest first, and pops its lightest remaining one off the end.
    Deleting (u, v) only splits the SCC C that holds it, and C minus (u, v)
    stays strongly connected if and only if u still reaches v inside it. If
    not, every node of C still reaches u and v reaches every node of C, so
    u's new SCC is what u reaches and v's is what reaches v (Fleischer,
    Hendrickson & Pinar 2000). `_split_search` interleaves both searches: if
    they meet, C carries over whole; if not, Tarjan runs only on what neither
    reached, usually little. The largest piece keeps C's edge list and skips
    edges no longer internal to it; smaller pieces list their live edges.
    Cost: one Tarjan pass, then O(V_C + E_C) per deletion at worst.
    """
    if np.isnan(g.weight).any():
        raise GraphError("remove_cycles requires normalized weights")
    src, dst, bounds = g.src.tolist(), g.indices.tolist(), g.indptr.tolist()
    succ, pred = _rows(g.indptr, g.indices), _rows(*g._in_csr)
    rank = np.argsort(np.lexsort((g.indices, g.src, g.weight))).tolist()  # by position
    live = bytearray(b"\x01") * g.n_edges  # by position: not yet removed

    def scc(members: set[int], inner=None):
        """Worklist entry: (smallest member, members, internal edge positions
        heaviest first); `inner` may also hold edges outside `members`."""
        if inner is None:
            inner = sorted((p for x in members for p in range(bounds[x], bounds[x + 1])
                            if live[p] and dst[p] in members), key=rank.__getitem__, reverse=True)
        return min(members), members, inner

    work = [scc(set(c)) for c in _tarjan_scc(range(g.n_nodes), succ) if len(c) > 1]
    gone: list[int] = []  # positions of removed edges, in removal order
    while work:
        carried = []
        for first, members, inner in sorted(work, key=lambda c: c[0]):
            p = inner.pop()
            while src[p] not in members or dst[p] not in members:
                p = inner.pop()
            u, v = src[p], dst[p]
            succ[u].remove(v)
            pred[v].remove(u)
            live[p] = 0
            gone.append(p)
            sides = _split_search(succ, pred, u, v, members)
            if sides is None:
                carried.append((first, members, inner))
                continue
            rest = members - sides[0] - sides[1]
            sub = [()] * len(succ)
            for x in rest:
                sub[x] = [w for w in succ[x] if w in rest]
            pieces = [set(c) for c in _tarjan_scc(rest, sub) if len(c) > 1]
            pieces += [side for side in sides if len(side) > 1]
            if pieces:
                largest = max(pieces, key=len)
                carried.extend(scc(c, inner if c is largest else None) for c in pieces)
        work = carried
    del src, dst, succ, pred, rank  # freed before the new graph is built
    ids = g._id_array
    removed = list(map(InfluenceEdge, ids[g.src[gone]].tolist(), ids[g.indices[gone]].tolist(),
                       g.year_diff[gone].tolist(), g.weight[gone].tolist()))
    dag = g._with_edges(g.nodes.values(), np.frombuffer(live, bool), g.self_loops_dropped, g.year_window_dropped)
    return dag, removed


def is_acyclic(g: InfluenceGraph) -> bool:
    """True when no strongly connected component has two or more nodes."""
    return all(len(c) == 1 for c in _tarjan_scc(range(g.n_nodes), _rows(g.indptr, g.indices)))


def reach_table(g: InfluenceGraph) -> list[list[int]]:
    """[reach counts, hop-distance sums, two-hop counts] by dense node, the
    node itself excluded; two-hop counts the nodes at distance 1 or 2.
    Computed once per graph, by a bit-parallel BFS from BFS_CHUNK sources
    at a time (Then et al. 2014): bit s of a row says source s reached that
    node. A level ORs the frontier rows along the in-edges leaving the
    frontier in one `reduceat` over nonempty per-destination segments (it
    misreads empty ones), keeps the unseen bits and counts each source's
    new nodes as column sums. Cost per level: O(E_frontier * BFS_CHUNK / 64).
    """
    if g._reach_table is None:
        n = len(g._ids)
        table = np.zeros((3, n), np.int64)
        in_indptr, in_indices = g._in_csr
        in_dst = np.repeat(np.arange(n), np.diff(in_indptr))
        at = np.empty(n, np.int64)  # row of each frontier node in `rows`, else -1
        for lo in range(0, n, BFS_CHUNK):
            nodes = np.arange(lo, min(n, lo + BFS_CHUNK))  # the frontier, ascending
            k = len(nodes)
            rows = np.zeros((k, (k + 63) // 64), "<u8")  # the frontier's bits
            rows[nodes - lo, (nodes - lo) // 64] = np.left_shift(1, (nodes - lo) % 64).astype("<u8")
            seen = np.zeros((n, rows.shape[1]), "<u8")
            seen[nodes] = rows
            level = 0
            while len(nodes):
                level += 1
                at[:] = -1
                at[nodes] = np.arange(len(nodes))
                src = at[in_indices]
                live = np.flatnonzero(src >= 0)
                dst = in_dst[live]
                first = np.flatnonzero(np.diff(dst, prepend=-1))
                nodes = dst[first]
                rows = np.bitwise_or.reduceat(rows[src[live]], first) & ~seen[nodes]
                keep = rows.any(1)
                nodes, rows = nodes[keep], rows[keep]
                seen[nodes] |= rows
                count = np.unpackbits(rows.view("<u1"), axis=1, bitorder="little").sum(0, np.int64)[:k]
                table[:, lo:lo + k] += count * np.array([[1], [level], [level <= 2]])
        g._reach_table = table.tolist()
    return g._reach_table


def reachability_counts(g: InfluenceGraph, node: int) -> tuple[int, int, int]:
    """(first_order, second_order, total) affected-node counts.

    first_order: direct out-neighbors; second_order: distinct nodes adjacent
    from first-order nodes, excluding the node and its first-order set;
    total: all nodes reachable from the node (excluding itself).
    """
    k = g._index(node)
    first = int(g.indptr[k + 1] - g.indptr[k])
    reach, _, two_hop = reach_table(g)
    return first, two_hop[k] - first, reach[k]


def genre_codes(g: InfluenceGraph) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct genres, the index in them of each dense node's genre)."""
    return np.unique(np.array([g.nodes[i].genre for i in g._ids], object), return_inverse=True)


def year_diff_centrality_correlation(g: InfluenceGraph, scores):
    """Pearson correlation between each node's mean incident-edge year_diff
    and each of its centrality columns (lc, sc, gc, ni), over the scored
    nodes that have an edge. Returns {column: {"r": float, "degenerate":
    bool}}; a column or mean without variance is degenerate, with r 0.0.
    """
    by_id = {s.node_id: s for s in scores}
    ends = np.concatenate([g.src, g.indices])
    count = np.bincount(ends, minlength=g.n_nodes)
    mean = np.bincount(ends, np.tile(g.year_diff, 2), g.n_nodes) / np.maximum(count, 1)
    dense = [k for k in np.flatnonzero(count).tolist() if g._ids[k] in by_id]
    if len(dense) < 3:
        raise GraphError("need at least 3 nodes with incident edges")
    x = mean[dense]
    out = {}
    for name in ("lc", "sc", "gc", "ni"):
        y = np.array([getattr(by_id[g._ids[k]], name) for k in dense])
        degenerate = bool(np.std(x) == 0.0 or np.std(y) == 0.0)
        out[name] = {"r": 0.0 if degenerate else float(np.corrcoef(x, y)[0, 1]), "degenerate": degenerate}
    return out


def export_edges_csv(path, g: InfluenceGraph) -> None:
    write_table(path, ["from", "to", "year_diff", "weight"], g.edge_rows())


def export_nodes_csv(path, g: InfluenceGraph) -> None:
    write_table(path, ["id", "name", "genre", "active_start"],
                ([i, n.name, n.genre, n.active_start] for i, n in sorted(g.nodes.items())))


def export_dot(g: InfluenceGraph) -> str:
    lines = ["digraph influence {"]
    for i, n in sorted(g.nodes.items()):
        label = n.name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {i} [label="{label}"];')
    for s, d, _, w in g.edge_rows():
        w = "" if w is None else f' [weight={w:.6f}]'
        lines.append(f"  {s} -> {d}{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"
