"""Composite node-influence scoring.

Three components over the acyclic influence graph, all read in the
out-direction (influence flows influencer -> follower):

* `lc` (LC, ClusterRank): out-neighborhood degree sum damped by 10^(-c)
  where c is the directed out-clustering coefficient.
* `sc` (SC, semi-local): two-hop spread, summing next-nearest-neighborhood
  sizes over out-neighbors of out-neighbors.
* `gc` (GC, out-closeness): reachability-corrected closeness
  (reachable/(N-1))^2 / (sum of hop distances).

The composite score is NI = (e^GC - 1) * LC * SC, the record's `ni`.
`_columns` computes all three for every node at once from the CSR arrays
and one `graph.reach_table` (exact counts from one BFS), listing each
two-hop path once; its sums are integers, exact in float64, and its float
steps run on Python floats, node by node.

Each scored node also carries its reach off the same table: first order
(its out-degree), second order (nodes at distance exactly 2) and total
(every node it reaches). `year_diff_centrality_correlation` relates the
scores to the year differences of each node's edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from artistnet.graph import GraphError, InfluenceGraph, reach_table


@dataclass(frozen=True)
class CentralityScores:
    node_id: int
    lc: float
    sc: float
    gc: float
    ni: float
    rank_ni: int = 0
    first_order: int = 0  # out-neighbors
    second_order: int = 0  # nodes at distance exactly 2
    total_reach: int = 0  # nodes reachable, the node itself excluded


def _columns(g: InfluenceGraph) -> tuple[list, ...]:
    """(LC, SC, GC, first-order, second-order and total reach) of every
    node, by dense index."""
    n, src, indices, indptr = g.n_nodes, g.src, g.indices, g.indptr
    deg = np.diff(indptr)
    reach, dist, two_hop = reach_table(g)
    two_hop = np.asarray(two_hop, np.int64)
    paths = deg[indices]  # two-hop paths through each edge
    k2 = np.repeat(src, paths)
    w2 = indices[np.repeat(indptr[indices] - (np.cumsum(paths) - paths), paths) + np.arange(len(k2))]
    edge, path = src * n + indices, k2 * n + w2  # `edge` ascends: CSR order is (src, dst)
    closed = edge.take(np.searchsorted(edge, path), mode="clip") == path  # k -> u -> w, k -> w
    linked = np.bincount(k2[closed], minlength=n).tolist()
    degree_sum = np.bincount(src, deg[indices] + 1, n).tolist()
    sc = np.bincount(k2, two_hop[w2], n).tolist()
    lc, gc = [], []
    for d, t, s, r, h in zip(deg.tolist(), linked, degree_sum, reach, dist):
        c = t / (d * (d - 1)) if d > 1 else 0.0  # out-clustering coefficient
        lc.append(10.0 ** (-c) * s if d else 0.0)
        gc.append((r / (n - 1)) ** 2 / h if r else 0.0)
    return lc, sc, gc, deg.tolist(), (two_hop - deg).tolist(), reach


def node_influence(g: InfluenceGraph) -> list[CentralityScores]:
    """Score every node and dense-rank by descending NI (rank 1 = highest;
    tied NI values share a rank), each with its reach. Output sorted by
    (rank, node id)."""
    if g.n_nodes == 1:  # GC needs a second node; an empty graph gives []
        raise GraphError("out_closeness needs at least 2 nodes")
    raw = [(i, lc, sc, gc, (math.exp(gc) - 1.0) * lc * sc, reach)
           for i, lc, sc, gc, *reach in zip(g.node_ids(), *_columns(g))]
    raw.sort(key=lambda t: (-t[4], t[0]))
    scores = []
    rank = 0
    prev_ni = None
    for i, lc, sc, gc, ni, reach in raw:
        if ni != prev_ni:
            rank += 1
            prev_ni = ni
        scores.append(CentralityScores(i, lc, sc, gc, ni, rank, *reach))
    return scores


def top_k(g: InfluenceGraph, k: int, genre: str | None = None) -> list[CentralityScores]:
    """The k highest-ranked nodes of `node_influence`.

    With `genre`, scoring runs from scratch on the induced subgraph of that
    genre's nodes, and reach is read off the same subgraph.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if genre is not None:
        ids = [i for i, n in g.nodes.items() if n.genre == genre]
        if not ids:
            raise GraphError(f"no nodes with genre {genre!r}")
        g = g.subgraph(ids)
    return node_influence(g)[:k]


def year_diff_centrality_correlation(g: InfluenceGraph, scores):
    """Pearson correlation between each node's mean incident-edge year_diff
    and each of its centrality columns (lc, sc, gc, ni), over the scored
    nodes that have an edge. Returns {column: {"r": float, "degenerate":
    bool}}; a column or mean without variance is degenerate, with r 0.0.
    """
    by_id = {s.node_id: s for s in scores}
    ids = g.node_ids()
    ends = np.concatenate([g.src, g.indices])
    count = np.bincount(ends, minlength=g.n_nodes)
    mean = np.bincount(ends, np.tile(g.year_diff, 2), g.n_nodes) / np.maximum(count, 1)
    dense = [k for k in np.flatnonzero(count).tolist() if ids[k] in by_id]
    if len(dense) < 3:
        raise GraphError("need at least 3 nodes with incident edges")
    x = mean[dense]
    out = {}
    for name in ("lc", "sc", "gc", "ni"):
        y = np.array([getattr(by_id[ids[k]], name) for k in dense])
        degenerate = bool(np.std(x) == 0.0 or np.std(y) == 0.0)
        out[name] = {"r": 0.0 if degenerate else float(np.corrcoef(x, y)[0, 1]), "degenerate": degenerate}
    return out
