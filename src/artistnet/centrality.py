"""Composite node-influence scoring.

Three components over the acyclic influence graph, all read in the
out-direction (influence flows influencer -> follower):

* cluster_rank (LC): out-neighborhood degree sum damped by 10^(-c) where
  c is the directed out-clustering coefficient.
* semi_local (SC): two-hop spread, summing next-nearest-neighborhood
  sizes over out-neighbors of out-neighbors.
* out_closeness (GC): reachability-corrected closeness
  (reachable/(N-1))^2 / (sum of hop distances).

The composite score is NI = (e^GC - 1) * LC * SC. `_columns` computes all
three for every node at once from the CSR arrays and `graph.reach_table`
(exact counts from one BFS per graph), listing each two-hop path once; its
sums are integers, exact in float64, and its float steps run on Python
floats, node by node. The per-node functions read one entry of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from artistnet.graph import GraphError, InfluenceGraph, reach_table, reachability_counts
from artistnet.ingest import write_table


@dataclass(frozen=True)
class CentralityScores:
    node_id: int
    lc: float
    sc: float
    gc: float
    ni: float
    rank_ni: int = 0


def _columns(g: InfluenceGraph) -> tuple[list[float], list[float], list[float]]:
    """(LC, SC, GC) of every node, by dense index."""
    n, src, indices, indptr = g.n_nodes, g.src, g.indices, g.indptr
    deg = np.diff(indptr)
    reach, dist, two_hop = reach_table(g)
    paths = deg[indices]  # two-hop paths through each edge
    k2 = np.repeat(src, paths)
    w2 = indices[np.repeat(indptr[indices] - (np.cumsum(paths) - paths), paths) + np.arange(len(k2))]
    edge, path = src * n + indices, k2 * n + w2  # `edge` ascends: CSR order is (src, dst)
    closed = edge.take(np.searchsorted(edge, path), mode="clip") == path  # k -> u -> w, k -> w
    linked = np.bincount(k2[closed], minlength=n).tolist()
    degree_sum = np.bincount(src, deg[indices] + 1, n).tolist()
    sc = np.bincount(k2, np.asarray(two_hop, np.int64)[w2], n).tolist()
    lc, gc = [], []
    for d, t, s, r, h in zip(deg.tolist(), linked, degree_sum, reach, dist):
        c = t / (d * (d - 1)) if d > 1 else 0.0  # out-clustering coefficient
        lc.append(10.0 ** (-c) * s if d else 0.0)
        gc.append((r / (n - 1)) ** 2 / h if r else 0.0)
    return lc, sc, gc


def cluster_rank(g: InfluenceGraph, node: int) -> float:
    return _columns(g)[0][g._index(node)]


def semi_local(g: InfluenceGraph, node: int) -> float:
    return _columns(g)[1][g._index(node)]


def out_closeness(g: InfluenceGraph, node: int) -> float:
    if g.n_nodes < 2:
        raise GraphError("out_closeness needs at least 2 nodes")
    return _columns(g)[2][g._index(node)]


def node_influence(g: InfluenceGraph) -> list[CentralityScores]:
    """Score every node and dense-rank by descending NI (rank 1 = highest;
    tied NI values share a rank). Output sorted by (rank, node id)."""
    if g.n_nodes == 1:  # GC needs a second node; an empty graph gives []
        raise GraphError("out_closeness needs at least 2 nodes")
    raw = [(i, lc, sc, gc, (math.exp(gc) - 1.0) * lc * sc) for i, lc, sc, gc in zip(g.node_ids(), *_columns(g))]
    raw.sort(key=lambda t: (-t[4], t[0]))
    scores = []
    rank = 0
    prev_ni = None
    for i, lc, sc, gc, ni in raw:
        if ni != prev_ni:
            rank += 1
            prev_ni = ni
        scores.append(CentralityScores(node_id=i, lc=lc, sc=sc, gc=gc, ni=ni, rank_ni=rank))
    return scores


def top_k(g: InfluenceGraph, k: int, genre: str | None = None):
    """Top-k nodes by NI, each with (first, second, total) reachability.

    With `genre`, scoring runs from scratch on the induced subgraph of that
    genre's nodes, and reachability is read off the same subgraph.
    Returns a list of (CentralityScores, (first, second, total)).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    target = g
    if genre is not None:
        ids = [i for i, n in g.nodes.items() if n.genre == genre]
        if not ids:
            raise GraphError(f"no nodes with genre {genre!r}")
        target = g.subgraph(ids)
    scores = node_influence(target)
    return [(s, reachability_counts(target, s.node_id)) for s in scores[:k]]


def export_scores_csv(path, g: InfluenceGraph, scores: list[CentralityScores]) -> None:
    reach, _, two_hop = reach_table(g)
    first = np.diff(g.indptr).tolist()
    at = [g._index(s.node_id) for s in scores]
    write_table(path, ["node_id", "name", "genre", "lc", "sc", "gc", "ni", "rank_ni",
                       "first_order", "second_order", "total_reach"],
                ([s.node_id, g.nodes[s.node_id].name, g.nodes[s.node_id].genre, s.lc, s.sc, s.gc,
                  s.ni, s.rank_ni, first[k], two_hop[k] - first[k], reach[k]] for s, k in zip(scores, at)))
