"""Weighted directed influence network: construction, year-difference edge
weights with max-min normalization, cycle removal, and reachability."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from artistnet.ingest import RawInfluenceRow, write_table

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


def _csr(row: np.ndarray, col: np.ndarray, n: int):
    """(indptr, indices, rows as lists) of the pairs (row[i], col[i]) over
    n dense nodes, each row's columns ascending."""
    indices = col[np.lexsort((col, row))]
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    flat, bounds = indices.tolist(), indptr.tolist()
    return indptr, indices, [flat[bounds[k]:bounds[k + 1]] for k in range(n)]


class InfluenceGraph:
    """Immutable directed graph over artist nodes.

    Mutating stages (normalize_weights, remove_cycles) return new graphs.
    The out-adjacency is built once, in CSR form over a dense index of the
    sorted node ids: the successors of dense node k are
    `indices[indptr[k]:indptr[k + 1]]`, ascending, so every traversal is
    deterministic. Traversals read `_succ`, the same rows as Python lists,
    and `_in_csr`, the in-adjacency in the same form, built on first use.
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
        self.indptr, self.indices, self._succ = _csr(src, dst, n)
        self._reach_table = None  # filled by reach_table on first use

    @cached_property
    def _in_csr(self):
        """(indptr, indices, rows as lists) of the in-adjacency."""
        n = len(self._ids)
        return _csr(self.indices, np.repeat(np.arange(n), np.diff(self.indptr)), n)

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
        return [self._ids[k] for k in self._in_csr[2][self._index(i)]]

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
    weighted = [InfluenceEdge(e.src, e.dst, e.year_diff, (e.year_diff - YEAR_DIFF_MIN) / denom)
                for e in kept]
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
    member. Each SCC holds its internal edges sorted once, heaviest first,
    and pops its lightest remaining one off the end. Deleting an edge (u, v)
    only splits the SCC C that holds it, and C minus (u, v) stays strongly
    connected if and only if u still reaches v inside it. If not, every
    node of C still reaches u and v reaches every node of C, so u's new SCC
    is what u reaches and v's is what reaches v (Fleischer, Hendrickson &
    Pinar 2000). `_split_search` interleaves both searches: if they meet,
    C carries over whole; if not, Tarjan runs only on what neither reached,
    usually little. The largest piece keeps C's edge list and skips edges
    no longer internal to it; smaller pieces sort their own. Cost: one
    Tarjan pass, then O(V_C + E_C) per deletion at worst.
    """
    if any(e.weight is None for e in g.edges.values()):
        raise GraphError("remove_cycles requires normalized weights")
    ids, pos = g._ids, g._pos
    succ = [list(row) for row in g._succ]
    pred = [list(row) for row in g._in_csr[2]]
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
            pred[v].remove(u)
            removed.append(g.edges[(ids[u], ids[v])])
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
                carried.extend(scc(p, inner if p is largest else None) for p in pieces)
        work = carried
    gone = {(e.src, e.dst) for e in removed}
    kept = [e for key, e in g.edges.items() if key not in gone]
    dag = InfluenceGraph(g.nodes.values(), kept, g.self_loops_dropped)
    return dag, removed


def is_acyclic(g: InfluenceGraph) -> bool:
    """True when no strongly connected component has two or more nodes."""
    return all(len(c) == 1 for c in _tarjan_scc(range(g.n_nodes), g._succ))


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
        in_indptr, in_indices, _ = g._in_csr
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
    k, first = g._index(node), g.out_degree(node)
    reach, _, two_hop = reach_table(g)
    return first, two_hop[k] - first, reach[k]


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
