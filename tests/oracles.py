"""Independent brute-force evaluators used to cross-check the library.

These deliberately avoid the library's traversal code: neighborhoods and
distances come from networkx, and every formula is evaluated directly
with explicit loops.
"""

import math

import networkx as nx
import numpy as np


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


def reference_tss(a, b):
    """TS-SS of one vector pair by the scalar formula: five np.dot calls
    and math-module trigonometry. Returns (ts, ss, theta_prime)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite vector component")
    mag_a = math.sqrt(float(np.dot(a, a)))
    mag_b = math.sqrt(float(np.dot(b, b)))
    if mag_a == 0.0 or mag_b == 0.0:
        theta, t = 10.0, 0.0
    else:
        cosine = min(1.0, max(-1.0, float(np.dot(a, b)) / (mag_a * mag_b)))
        theta = math.degrees(math.acos(cosine)) + 10.0
        t = mag_a * mag_b * abs(math.sin(math.radians(theta))) / 2.0
    diff = a - b
    ed = math.sqrt(float(np.dot(diff, diff)))
    s = math.pi * (ed + abs(mag_a - mag_b)) ** 2 * (theta / 360.0)
    return t, s, theta


def reference_sample_similarity(profiles, genres, samples_per_run, runs, seed):
    """Within- and between-genre TSS totals per run, drawn and summed one
    pair at a time in the documented order. Returns (within, between)."""
    members = {}
    for i in sorted(profiles):
        members.setdefault(genres[i], []).append(i)
    within_pool = sorted(i for m in members.values() if len(m) >= 2 for i in m)
    others = {g: sorted(i for h, m in members.items() if h != g for i in m) for g in members}
    between_pool = sorted(i for i in profiles if others[genres[i]])

    def tss(q, p):
        t, s, _ = reference_tss(profiles[q], profiles[p])
        return t * s

    within, between = [], []
    for run in range(runs):
        rng = np.random.default_rng(seed + run)
        swg = 0.0
        for _ in range(samples_per_run):
            q = within_pool[rng.integers(len(within_pool))]
            mates = members[genres[q]]
            p = q
            while p == q:
                p = mates[rng.integers(len(mates))]
            swg += tss(q, p)
        sbg = 0.0
        for _ in range(samples_per_run):
            q = between_pool[rng.integers(len(between_pool))]
            pool = others[genres[q]]
            sbg += tss(q, pool[rng.integers(len(pool))])
        within.append(swg)
        between.append(sbg)
    return within, between
