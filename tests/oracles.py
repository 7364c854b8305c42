"""Independent brute-force evaluators used to cross-check the library.

These deliberately avoid the library's traversal code: neighborhoods and
distances come from networkx, and every formula is evaluated directly
with explicit loops.
"""

import math

import networkx as nx


def to_nx(g) -> nx.DiGraph:
    dg = nx.DiGraph()
    dg.add_nodes_from(g.node_ids())
    for (s, d), e in g.edges.items():
        dg.add_edge(s, d, weight=e.weight, year_diff=e.year_diff)
    return dg


def brute_cluster_rank(dg: nx.DiGraph, node) -> float:
    nbrs = sorted(dg.successors(node))
    if not nbrs:
        return 0.0
    if len(nbrs) < 2:
        c = 0.0
    else:
        linked = sum(
            1
            for u in nbrs
            for v in nbrs
            if u != v and dg.has_edge(u, v)
        )
        c = linked / (len(nbrs) * (len(nbrs) - 1))
    return 10.0 ** (-c) * sum(dg.out_degree(j) + 1 for j in nbrs)


def brute_two_hop(dg: nx.DiGraph, node) -> int:
    reach = set()
    for u in dg.successors(node):
        reach.add(u)
        reach.update(dg.successors(u))
    reach.discard(node)
    return len(reach)


def brute_semi_local(dg: nx.DiGraph, node) -> float:
    total = 0
    for u in dg.successors(node):
        for w in dg.successors(u):
            total += brute_two_hop(dg, w)
    return float(total)


def brute_out_closeness(dg: nx.DiGraph, node) -> float:
    dist = nx.single_source_shortest_path_length(dg, node)
    del dist[node]
    if not dist:
        return 0.0
    n = dg.number_of_nodes()
    return (len(dist) / (n - 1)) ** 2 / sum(dist.values())


def brute_node_influence(dg: nx.DiGraph, node) -> float:
    gc = brute_out_closeness(dg, node)
    return (math.exp(gc) - 1.0) * brute_cluster_rank(dg, node) * brute_semi_local(dg, node)


def brute_reachable(dg: nx.DiGraph, node) -> int:
    return len(nx.descendants(dg, node))


def reference_remove_cycles(g):
    """Round-based decycler: each round takes the SCCs of the whole
    remaining graph and deletes, in every nontrivial SCC visited by smallest
    member, its minimum (weight, src, dst) edge. Returns (remaining edges
    by key, removed edges in deletion order)."""
    edges = dict(g.edges)
    removed = []
    while True:
        dg = nx.DiGraph()
        dg.add_nodes_from(g.node_ids())
        dg.add_edges_from(edges)
        comps = [c for c in nx.strongly_connected_components(dg) if len(c) > 1]
        if not comps:
            return edges, removed
        for comp in sorted(comps, key=min):
            victim = min(
                (e for (s, d), e in edges.items() if s in comp and d in comp),
                key=lambda e: (e.weight, e.src, e.dst),
            )
            del edges[(victim.src, victim.dst)]
            removed.append(victim)
