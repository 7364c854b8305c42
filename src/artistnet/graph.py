"""Weighted directed influence network: construction (self-loops and edges
outside a year-difference window dropped, max-min normalized weights),
cycle removal by one rank rule, and each node's reach, hop-distance and
two-hop counts (`reach_table`). A graph keeps its edges once, as arrays in
CSR order, and every traversal reads those arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Year differences outside this window are discarded before normalization;
# the lower bound also anchors the max-min transform so weights stay > 0.
YEAR_DIFF_MIN = -30
YEAR_DIFF_MAX = 80
# Targets per pass of `reach_table`'s bit-parallel BFS: 16 uint64 words a
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


class InfluenceGraph:
    """Immutable directed graph over artist nodes, its edges stored once.

    `nodes` maps id to ArtistNode. The edges are arrays in CSR order over a
    dense index of the sorted node ids, ascending by (src, dst): edge j runs
    from dense node `src[j]` to `indices[j]` with `year_diff[j]` and
    `weight[j]` (NaN for an unweighted edge), and the out-edges of dense node
    k are positions `indptr[k]:indptr[k + 1]`. Every traversal reads these
    arrays, backward ones too; `edge_rows` walks the edges by id.

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
        naming the first node id that repeats an earlier one, else the first
        edge that is a self-loop, touches an unknown node or repeats an
        earlier edge, each in input order."""
        g = cls.__new__(cls)
        g._build(nodes, src, dst, year_diff, weight, self_loops_dropped, year_window_dropped)
        return g

    def _build(self, nodes, src, dst, year_diff, weight, self_loops_dropped, year_window_dropped):
        self.nodes: dict[int, ArtistNode] = {}
        for n in nodes:
            if n.id in self.nodes:
                raise GraphError(f"duplicate node id {n.id}")
            self.nodes[n.id] = n
        self.self_loops_dropped, self.year_window_dropped = self_loops_dropped, year_window_dropped
        self._id_array = ids = np.array(sorted(self.nodes), np.int64)
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

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.indices)

    def node_ids(self) -> list[int]:
        return self._id_array.tolist()

    def edge_rows(self):
        """(src id, dst id, year_diff, weight or None) of each edge,
        ascending by (src, dst); the lists are made at the first row."""
        ids = self._id_array
        yield from zip(ids[self.src].tolist(), ids[self.indices].tolist(), self.year_diff.tolist(),
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
        return self._with_edges([self.nodes[i] for i in self._id_array[inside].tolist()],
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


def _tarjan_scc(indptr: list[int], indices: list[int]) -> list[int]:
    """Iterative Tarjan over every node of a CSR adjacency given as Python
    lists: the successors of dense node v are `indices[indptr[v]:indptr[v +
    1]]`, visited in that order. Returns the number of each node's SCC, in
    the order Tarjan completes them. A visited node is on Tarjan's stack
    while its number is -1; a frame of `work` is (node, next edge position)."""
    n = len(indptr) - 1
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = done = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        work = [(root, indptr[root])]
        while work:
            v, j = work[-1]
            if j == indptr[v]:  # first visit: a resumed frame is past its first edge
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
            for i in range(j, indptr[v + 1]):
                w = indices[i]
                if index[w] < 0:  # descend to w; v resumes after edge i
                    work[-1] = (v, i + 1)
                    work.append((w, indptr[w]))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:  # every successor of v is done
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = done
                        if w == v:
                            break
                    done += 1
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return comp


def remove_cycles(g: InfluenceGraph) -> tuple[InfluenceGraph, list[InfluenceEdge]]:
    """Break every cycle by one rule: edge e = (u, v) is removed if and only
    if u and v are strongly connected by the edges whose rank (weight, src,
    dst) is at least e's, e included. Returns the graph of the kept edges
    and the removed ones, lightest first. Deterministic for a given input.

    These are the edges that repeatedly deleting the lightest edge of each
    nontrivial strongly connected component removes. Deleting an edge whose
    ends lie in different SCCs leaves the SCCs as they were. So a run that
    deletes every edge in ascending rank, counting those whose ends share an
    SCC at that moment, has the same SCCs as the lightest-edge rounds at
    every step (by induction over the deletions) and counts the same edges;
    when e's turn comes in it, the edges left are those ranked at least e's.

    Only edges inside a nontrivial SCC of `g` can be removed, so only those
    are inserted, heaviest first: edge t at time t. `settle` finds the first
    time at which each one's ends are strongly connected by divide and
    conquer over time (the offline incremental SCC method): Tarjan on the
    edges inserted up to the middle time, their ends contracted to the SCCs
    before the range; an edge whose ends share an SCC there goes to the
    earlier half, the rest go to the later half. O(E log E) edge visits.
    Tarjan, like every traversal, walks CSR arrays: the graph's own, then
    each contracted graph's, built by one `searchsorted`.
    """
    if np.isnan(g.weight).any():
        raise GraphError("remove_cycles requires normalized weights")
    comp = np.array(_tarjan_scc(g.indptr.tolist(), g.indices.tolist()), np.int64)
    inner = np.flatnonzero(comp[g.src] == comp[g.indices])  # CSR positions inside an SCC
    inner = inner[np.lexsort((g.indices[inner], g.src[inner], g.weight[inner]))[::-1]]  # heaviest first
    src, dst = g.src[inner], g.indices[inner]
    rep = np.arange(g.n_nodes)  # each node's SCC so far, named by one member
    gone = np.zeros(len(inner), bool)  # by insertion time: removed

    def joined(times, k):
        """Whether the ends of each edge of `times` share an SCC of the first
        `k` edges of `times`, every end contracted to its SCC in `rep`."""
        a, b = rep[src[times]], rep[dst[times]]
        nodes, at = np.unique(np.concatenate([a[:k], b[:k]]), return_inverse=True)
        order = np.argsort(at[:k], kind="stable")
        indptr = np.searchsorted(at[:k][order], np.arange(len(nodes) + 1))
        label = -1 - np.arange(g.n_nodes)  # distinct outside the contracted graph
        label[nodes] = _tarjan_scc(indptr.tolist(), at[k:][order].tolist())
        return label[a] == label[b]

    def settle(lo, hi, times):
        """Mark in `gone` each edge of `times`, ascending, whose ends first
        become strongly connected at a time in [lo, hi], as every edge of
        `times` does. `rep` holds the SCCs at time lo - 1 on entry and at
        time hi on return."""
        if lo == hi:  # edge lo merges the SCCs at these edges' ends into one
            ends = rep[np.concatenate([src[times], dst[times]])]
            rep[np.isin(rep, ends)] = ends[0]
            gone[times] = times >= lo
            return
        mid = (lo + hi) // 2
        early = joined(times, np.searchsorted(times, mid, "right"))
        if early.any():
            settle(lo, mid, times[early])
        if not early.all():
            settle(mid + 1, hi, times[~early])

    if len(inner):
        settle(0, len(inner) - 1, np.arange(len(inner)))
    gone = inner[gone][::-1]  # CSR positions, lightest first
    ids = g._id_array
    removed = list(map(InfluenceEdge, ids[g.src[gone]].tolist(), ids[g.indices[gone]].tolist(),
                       g.year_diff[gone].tolist(), g.weight[gone].tolist()))
    keep = np.ones(g.n_edges, bool)
    keep[gone] = False
    return g._with_edges(g.nodes.values(), keep, g.self_loops_dropped, g.year_window_dropped), removed


def is_acyclic(g: InfluenceGraph) -> bool:
    """True when no strongly connected component has two or more nodes."""
    comp = _tarjan_scc(g.indptr.tolist(), g.indices.tolist())
    return len(set(comp)) == len(comp)


def reach_table(g: InfluenceGraph) -> list[list[int]]:
    """[reach counts, hop-distance sums, two-hop counts] by dense node, the
    node itself excluded; two-hop counts the nodes at distance 1 or 2.
    Computed anew on each call, by a bit-parallel BFS backward from BFS_CHUNK
    targets at a time (Then et al. 2014): bit t of a row says that node
    reaches target t. A level ORs the frontier rows into the sources of the
    edges entering the frontier, in one `reduceat` over their runs by `src`,
    the order the CSR arrays already have (only nonempty runs: it misreads
    empty ones), and keeps the unseen bits. A node's new bits at level L are
    the targets at distance L from it, so its counts are row popcounts.
    Cost per level: O(E_frontier * BFS_CHUNK / 64).
    """
    n = g.n_nodes
    table = np.zeros((3, n), np.int64)
    at = np.empty(n, np.int64)  # row of each frontier node in `rows`, else -1
    for lo in range(0, n, BFS_CHUNK):
        nodes = np.arange(lo, min(n, lo + BFS_CHUNK))  # the frontier, ascending
        k = np.arange(len(nodes))
        rows = np.zeros((len(k), (len(k) + 63) // 64), np.uint64)  # the frontier's bits
        rows[k, k // 64] = np.left_shift(1, k % 64).astype(np.uint64)
        seen = np.zeros((n, rows.shape[1]), np.uint64)
        seen[nodes] = rows
        level = 0
        while len(nodes):
            level += 1
            at[:] = -1
            at[nodes] = np.arange(len(nodes))
            dst = at[g.indices]
            live = np.flatnonzero(dst >= 0)
            src = g.src[live]
            first = np.flatnonzero(np.diff(src, prepend=-1))
            nodes = src[first]
            rows = np.bitwise_or.reduceat(rows[dst[live]], first) & ~seen[nodes]
            keep = rows.any(1)
            nodes, rows = nodes[keep], rows[keep]
            seen[nodes] |= rows
            count = np.bitwise_count(rows).sum(1, np.int64)
            table[:, nodes] += count * np.array([[1], [level], [level <= 2]])
    return table.tolist()


def genre_codes(g: InfluenceGraph) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct genres, the index in them of each dense node's genre)."""
    return np.unique(np.array([g.nodes[i].genre for i in g.node_ids()], object), return_inverse=True)


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
