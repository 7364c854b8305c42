"""Weighted directed influence network: construction, year-difference edge
weights with max-min normalization, cycle removal, and reachability."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from artistnet.ingest import RawInfluenceRow, write_table

# Year differences outside this window are discarded before normalization;
# the lower bound also anchors the max-min transform so weights stay > 0.
YEAR_DIFF_MIN = -30
YEAR_DIFF_MAX = 80


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
    """Immutable directed graph over artist nodes.

    Mutating stages (normalize_weights, remove_cycles) return new graphs.
    The out-adjacency is built once, in CSR form over a dense index of the
    sorted node ids: the successors of dense node k are
    `indices[indptr[k]:indptr[k + 1]]`, ascending, so every traversal is
    deterministic. Traversals read `_succ`, the same rows as Python lists.
    """

    def __init__(self, nodes, edges, self_loops_dropped: int = 0):
        self.nodes: dict[int, ArtistNode] = {n.id: n for n in nodes}
        self.edges: dict[tuple[int, int], InfluenceEdge] = {}
        for e in edges:
            if e.src == e.dst:
                raise GraphError(f"self-loop edge {e.src}")
            if e.src not in self.nodes or e.dst not in self.nodes:
                raise GraphError(f"edge ({e.src}, {e.dst}) references unknown node")
            if (e.src, e.dst) in self.edges:
                raise GraphError(f"duplicate edge ({e.src}, {e.dst})")
            self.edges[(e.src, e.dst)] = e
        self.self_loops_dropped = self_loops_dropped
        self._ids = sorted(self.nodes)
        self._pos = {i: k for k, i in enumerate(self._ids)}
        n, m = len(self._ids), len(self.edges)
        src = np.fromiter((self._pos[s] for s, _ in self.edges), np.int64, m)
        dst = np.fromiter((self._pos[d] for _, d in self.edges), np.int64, m)
        self.indices = dst[np.lexsort((dst, src))]
        self.indptr = np.zeros(n + 1, np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.indptr[1:])
        flat, bounds = self.indices.tolist(), self.indptr.tolist()
        self._succ = [flat[bounds[k]:bounds[k + 1]] for k in range(n)]
        self._pred = None  # in-adjacency, transposed from _succ on first use
        # Per-node results read by more than one centrality column, keyed
        # by node id; O(n) each.
        self._reach: dict[int, tuple[int, int]] = {}
        self._two_hop: dict[int, int] = {}

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node_ids(self) -> list[int]:
        return list(self._ids)

    def out_neighbors(self, i: int) -> list[int]:
        return [self._ids[k] for k in self._succ[self._index(i)]]

    def in_neighbors(self, i: int) -> list[int]:
        k = self._index(i)
        if self._pred is None:
            self._pred = [[] for _ in self._ids]
            for v, succ in enumerate(self._succ):
                for w in succ:
                    self._pred[w].append(v)
        return [self._ids[v] for v in self._pred[k]]

    def out_degree(self, i: int) -> int:
        return len(self._succ[self._index(i)])

    def _index(self, i: int) -> int:
        """Dense index of node id `i`."""
        try:
            return self._pos[i]
        except KeyError:
            raise GraphError(f"unknown node id {i}") from None

    def subgraph(self, keep_ids) -> "InfluenceGraph":
        """Induced subgraph on `keep_ids`."""
        keep = set(keep_ids)
        nodes = [n for i, n in sorted(self.nodes.items()) if i in keep]
        edges = [e for (s, d), e in sorted(self.edges.items()) if s in keep and d in keep]
        return InfluenceGraph(nodes, edges)


def build_graph(rows: list[RawInfluenceRow]) -> InfluenceGraph:
    """One node per distinct artist id, one edge per (influencer, follower)
    pair; self-influence rows are dropped and counted."""
    nodes: dict[int, ArtistNode] = {}
    edges: list[InfluenceEdge] = []
    dropped = 0
    for row in rows:
        for aid, name, genre, start in (
            (row.influencer_id, row.influencer_name, row.influencer_main_genre, row.influencer_active_start),
            (row.follower_id, row.follower_name, row.follower_main_genre, row.follower_active_start),
        ):
            if aid not in nodes:
                nodes[aid] = ArtistNode(id=aid, name=name, genre=genre, active_start=start)
        if row.influencer_id == row.follower_id:
            dropped += 1
            continue
        edges.append(
            InfluenceEdge(
                src=row.influencer_id,
                dst=row.follower_id,
                year_diff=row.follower_active_start - row.influencer_active_start,
            )
        )
    return InfluenceGraph(nodes.values(), edges, self_loops_dropped=dropped)


def normalize_weights(g: InfluenceGraph) -> InfluenceGraph:
    """Max-min normalize year differences into (0, 1] edge weights.

    Edges with year_diff <= -30 or >= 80 are removed; the rest map to
    z = (x + 30) / (x_max + 30) with x_max the post-filter maximum.
    """
    kept = [
        e
        for (_, _), e in sorted(g.edges.items())
        if YEAR_DIFF_MIN < e.year_diff < YEAR_DIFF_MAX
    ]
    if not kept:
        raise GraphError("no edges remain after year-difference filtering")
    x_max = max(e.year_diff for e in kept)
    denom = x_max - YEAR_DIFF_MIN
    weighted = [replace(e, weight=(e.year_diff - YEAR_DIFF_MIN) / denom) for e in kept]
    return InfluenceGraph(g.nodes.values(), weighted, g.self_loops_dropped)


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


def _search(succ, u: int, v: int, members: set[int]) -> set[int] | None:
    """Nodes reachable from `u` along `succ` inside `members` (u included),
    or None as soon as `v` turns out to be one of them."""
    seen = {u}
    stack = [u]
    while stack:
        for w in succ[stack.pop()]:
            if w == v:
                return None
            if w not in seen and w in members:
                seen.add(w)
                stack.append(w)
    return seen


def remove_cycles(g: InfluenceGraph) -> tuple[InfluenceGraph, list[InfluenceEdge]]:
    """Break every cycle by repeatedly deleting, within each nontrivial
    strongly connected component, the minimum-weight edge (ties by
    ascending (weight, src, dst)). Deterministic for a given input.

    Works in rounds over a worklist of nontrivial SCCs, visited by smallest
    member. Each SCC holds its internal edges sorted once, heaviest first,
    and pops its lightest remaining one off the end. Deleting an edge only
    splits the SCC C that holds it, and C minus (u, v) stays strongly
    connected if and only if u still reaches v inside it. So each deletion
    runs one early-exit search from u. If it finds v, C carries over to
    the next round whole. If not, every node of C still reaches u, so the
    nodes the search reached are u's whole new SCC, and Tarjan runs only on
    the rest of C. The largest piece keeps C's edge list and skips edges
    that are no longer internal to it; smaller pieces sort their own.
    Cost: one Tarjan pass over the graph, then O(V_C + E_C) per deletion,
    instead of O(V + E) per round for the whole graph.
    """
    if any(e.weight is None for e in g.edges.values()):
        raise GraphError("remove_cycles requires normalized weights")
    ids, pos = g._ids, g._pos
    succ = [list(row) for row in g._succ]
    ascending = sorted(g.edges.values(), key=lambda e: (e.weight, e.src, e.dst))
    rank = {(pos[e.src], pos[e.dst]): r for r, e in enumerate(ascending)}

    def scc(members: set[int], inner=None):
        """Worklist entry: (smallest member, members, internal edges
        heaviest first); `inner` may also hold edges outside `members`."""
        if inner is None:
            inner = sorted(((x, w) for x in members for w in succ[x] if w in members),
                           key=rank.__getitem__, reverse=True)
        return min(members), members, inner

    work = [scc(set(c)) for c in _tarjan_scc(range(len(ids)), succ) if len(c) > 1]
    removed: list[InfluenceEdge] = []
    while work:
        carried = []
        for first, members, inner in sorted(work, key=lambda c: c[0]):
            u, v = inner.pop()
            while u not in members or v not in members:
                u, v = inner.pop()
            succ[u].remove(v)
            removed.append(g.edges[(ids[u], ids[v])])
            reached = _search(succ, u, v, members)
            if reached is None:
                carried.append((first, members, inner))
                continue
            rest = members - reached
            sub = [()] * len(succ)
            for x in rest:
                sub[x] = [w for w in succ[x] if w in rest]
            pieces = [set(c) for c in _tarjan_scc(rest, sub) if len(c) > 1]
            if len(reached) > 1:
                pieces.append(reached)
            if pieces:
                largest = max(pieces, key=len)
                carried.extend(scc(p, inner if p is largest else None) for p in pieces)
        work = carried
    gone = {(e.src, e.dst) for e in removed}
    kept = [e for key, e in g.edges.items() if key not in gone]
    dag = InfluenceGraph(g.nodes.values(), kept, g.self_loops_dropped)
    return dag, removed


def is_acyclic(g: InfluenceGraph) -> bool:
    """True when no strongly connected component has two or more nodes."""
    return all(len(c) == 1 for c in _tarjan_scc(range(g.n_nodes), g._succ))


def bfs_distances(g: InfluenceGraph, node: int) -> dict[int, int]:
    """Unweighted hop distances from `node` along out-edges (node excluded)."""
    start = g._index(node)
    succ, ids = g._succ, g._ids
    dist = {start: 0}
    frontier = [start]
    hops = 0
    while frontier:
        hops += 1
        nxt = []
        for v in frontier:
            for w in succ[v]:
                if w not in dist:
                    dist[w] = hops
                    nxt.append(w)
        frontier = nxt
    del dist[start]
    return {ids[w]: d for w, d in dist.items()}


def reach_stats(g: InfluenceGraph, node: int) -> tuple[int, int]:
    """(reachable node count, sum of hop distances) from `node`; one
    `bfs_distances` per node, memoized on the graph."""
    if node not in g._reach:
        dist = bfs_distances(g, node)
        g._reach[node] = (len(dist), sum(dist.values()))
    return g._reach[node]


def two_hop_count(g: InfluenceGraph, node: int) -> int:
    """Number of distinct nodes at out-distance 1 or 2 from `node`,
    memoized on the graph."""
    if node not in g._two_hop:
        k = g._index(node)
        succ = g._succ
        seen = set(succ[k])
        for u in succ[k]:
            seen.update(succ[u])
        seen.discard(k)
        g._two_hop[node] = len(seen)
    return g._two_hop[node]


def reachability_counts(g: InfluenceGraph, node: int) -> tuple[int, int, int]:
    """(first_order, second_order, total) affected-node counts.

    first_order: direct out-neighbors; second_order: distinct nodes adjacent
    from first-order nodes, excluding the node and its first-order set;
    total: all nodes reachable from the node (excluding itself).
    """
    first = g.out_degree(node)
    return first, two_hop_count(g, node) - first, reach_stats(g, node)[0]


def _pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    """Pearson r; degenerate (zero variance) pairs report (0.0, True)."""
    if np.std(x) == 0.0 or np.std(y) == 0.0:
        return 0.0, True
    return float(np.corrcoef(x, y)[0, 1]), False


def year_diff_centrality_correlation(g: InfluenceGraph, scores, mode: str = "per_node"):
    """Pearson correlation between year differences and each centrality
    column (lc, sc, gc, ni).

    per_node (default): each node's mean incident-edge year_diff vs its
    scores. per_edge: each edge's year_diff vs its source node's scores.
    Returns {column: {"r": float, "degenerate": bool}}.
    """
    by_id = {s.node_id: s for s in scores}
    if mode == "per_node":
        sums: dict[int, list[int]] = {}
        for e in g.edges.values():
            sums.setdefault(e.src, []).append(e.year_diff)
            sums.setdefault(e.dst, []).append(e.year_diff)
        ids = sorted(i for i in sums if i in by_id)
        if len(ids) < 3:
            raise GraphError("need at least 3 nodes with incident edges")
        x = np.array([np.mean(sums[i]) for i in ids])
        cols = {c: np.array([getattr(by_id[i], c) for i in ids]) for c in ("lc", "sc", "gc", "ni")}
    elif mode == "per_edge":
        pairs = [e for _, e in sorted(g.edges.items()) if e.src in by_id]
        if len(pairs) < 3:
            raise GraphError("need at least 3 edges")
        x = np.array([e.year_diff for e in pairs], dtype=float)
        cols = {c: np.array([getattr(by_id[e.src], c) for e in pairs]) for c in ("lc", "sc", "gc", "ni")}
    else:
        raise ValueError(f"unknown mode {mode!r}")
    out = {}
    for name, col in cols.items():
        r, degenerate = _pearson(x, col)
        out[name] = {"r": r, "degenerate": degenerate}
    return out


def export_edges_csv(path, g: InfluenceGraph) -> None:
    write_table(path, ["from", "to", "year_diff", "weight"],
                ([s, d, e.year_diff, e.weight] for (s, d), e in sorted(g.edges.items())))


def export_nodes_csv(path, g: InfluenceGraph) -> None:
    write_table(path, ["id", "name", "genre", "active_start"],
                ([i, n.name, n.genre, n.active_start] for i, n in sorted(g.nodes.items())))


def export_dot(g: InfluenceGraph) -> str:
    lines = ["digraph influence {"]
    for i, n in sorted(g.nodes.items()):
        label = n.name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {i} [label="{label}"];')
    for (s, d), e in sorted(g.edges.items()):
        w = "" if e.weight is None else f' [weight={e.weight:.6f}]'
        lines.append(f"  {s} -> {d}{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"
