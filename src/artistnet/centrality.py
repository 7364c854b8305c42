"""Composite node-influence scoring.

Three components over the acyclic influence graph, all read in the
out-direction (influence flows influencer -> follower):

* cluster_rank (LC): out-neighborhood degree sum damped by 10^(-c) where
  c is the directed out-clustering coefficient.
* semi_local (SC): two-hop spread, summing next-nearest-neighborhood
  sizes over out-neighbors of out-neighbors.
* out_closeness (GC): reachability-corrected closeness
  (reachable/(N-1))^2 / (sum of hop distances).

The composite score is NI = (e^GC - 1) * LC * SC. SC, GC and the reach
columns read `graph.reach_table`: exact counts from one BFS per graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _out_clustering(succ, nbrs) -> float:
    """Fraction of ordered out-neighbor pairs (u, v) joined by an edge
    u -> v; 0 when the node has fewer than two out-neighbors."""
    if len(nbrs) < 2:
        return 0.0
    nbr_set = set(nbrs)
    linked = 0
    for u in nbrs:
        for v in succ[u]:
            if v in nbr_set and v != u:
                linked += 1
    return linked / (len(nbrs) * (len(nbrs) - 1))


def cluster_rank(g: InfluenceGraph, node: int) -> float:
    succ = g._succ
    nbrs = succ[g._index(node)]
    if not nbrs:
        return 0.0
    damping = 10.0 ** (-_out_clustering(succ, nbrs))
    return damping * sum(len(succ[j]) + 1 for j in nbrs)


def semi_local(g: InfluenceGraph, node: int) -> float:
    succ, two_hop = g._succ, reach_table(g)[2]
    return float(sum(two_hop[w] for u in succ[g._index(node)] for w in succ[u]))


def out_closeness(g: InfluenceGraph, node: int) -> float:
    if g.n_nodes < 2:
        raise GraphError("out_closeness needs at least 2 nodes")
    reach, dist, _ = reach_table(g)
    k = g._index(node)
    if reach[k] == 0:
        return 0.0
    return (reach[k] / (g.n_nodes - 1)) ** 2 / dist[k]


def node_influence(g: InfluenceGraph) -> list[CentralityScores]:
    """Score every node and dense-rank by descending NI (rank 1 = highest;
    tied NI values share a rank). Output sorted by (rank, node id)."""
    raw = []
    for i in g.node_ids():
        lc = cluster_rank(g, i)
        sc = semi_local(g, i)
        gc = out_closeness(g, i)
        ni = (math.exp(gc) - 1.0) * lc * sc
        raw.append((i, lc, sc, gc, ni))
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
    write_table(path, ["node_id", "name", "genre", "lc", "sc", "gc", "ni", "rank_ni",
                       "first_order", "second_order", "total_reach"],
                ([s.node_id, g.nodes[s.node_id].name, g.nodes[s.node_id].genre, s.lc, s.sc, s.gc,
                  s.ni, s.rank_ni, *reachability_counts(g, s.node_id)] for s in scores))
