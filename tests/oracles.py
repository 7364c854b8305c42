"""Independent brute-force evaluators used to cross-check the library.

These deliberately avoid the library's traversal code: neighborhoods and
distances come from networkx, and every formula is evaluated directly
with explicit loops.
"""

import csv
import json
import math
from dataclasses import dataclass, fields
from itertools import combinations
from types import SimpleNamespace

import networkx as nx
import numpy as np

from artistnet.authrev import AuthenticityScore, AuthenticitySummary, AuthRevError
from artistnet.centrality import CentralityScores
from artistnet.genre import Dendrogram, GenreError
from artistnet.graph import YEAR_DIFF_MAX, YEAR_DIFF_MIN, ArtistNode, GraphError, InfluenceEdge
from artistnet.ingest import write_table
from artistnet.simvec import tss_rows


def reference_write_table(path, header, rows) -> None:
    """`header` and `rows` written by `csv.writer` in the artifact dialect
    (UTF-8, LF line ends): the reference for `ingest.write_table`, and the
    writer of tables it refuses, whose rows differ in length."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # csv quotes a field that holds a character of the line terminator,
        # so records are made with "\r\n" (quoting "\r" as well as "\n")
        # and written with "\n".
        sink = SimpleNamespace(write=lambda record: fh.write(record[:-2] + "\n"))
        w = csv.writer(sink, lineterminator="\r\n")
        w.writerow(header)
        w.writerows(rows)


def edges_of(g) -> dict:
    """{(src, dst): InfluenceEdge} of a graph, read off its edge arrays."""
    ids = g.node_ids()
    columns = (g.src.tolist(), g.indices.tolist(), g.year_diff.tolist(), g.weight.tolist())
    return {(ids[s], ids[d]): InfluenceEdge(ids[s], ids[d], y, None if math.isnan(w) else w)
            for s, d, y, w in zip(*columns)}


def to_nx(g) -> nx.DiGraph:
    dg = nx.DiGraph()
    dg.add_nodes_from(g.node_ids())
    for (s, d), e in edges_of(g).items():
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


def brute_second_order(dg: nx.DiGraph, node) -> int:
    """Nodes at distance exactly 2 from `node`."""
    return sum(d == 2 for d in nx.single_source_shortest_path_length(dg, node, cutoff=2).values())


def succ_rows(g) -> list[list[int]]:
    """Successor rows by dense node, as Python lists, sliced from the CSR
    arrays `indptr` and `indices`."""
    indptr, indices = g.indptr.tolist(), g.indices.tolist()
    return [indices[indptr[k]:indptr[k + 1]] for k in range(g.n_nodes)]


def reference_bfs_distances(g, node) -> dict:
    """Unweighted hop distances from `node` along out-edges (node excluded),
    by one level-by-level BFS over the graph's successor rows."""
    succ, ids = succ_rows(g), g.node_ids()
    start = ids.index(node)
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


def reference_node_influence(g) -> list[CentralityScores]:
    """node_influence node by node: cluster rank, semi-local spread and
    closeness of each node from its successor rows (`succ_rows`) and the hop
    distances of `reference_bfs_distances`, integer sums taken in Python and
    the float steps written as the per-node formulas; its reach counts the
    nodes at distance 1, at distance 2 and at any distance; then dense ranks
    by descending NI, sorted by (rank, id). Raises the library's GraphError
    for a graph with one node."""
    succ, ids, n = succ_rows(g), g.node_ids(), g.n_nodes
    hops = [list(reference_bfs_distances(g, i).values()) for i in ids]
    two_hop = [sum(d <= 2 for d in dist) for dist in hops]
    raw = []
    for k, i in enumerate(ids):
        nbrs = succ[k]
        lc = 10.0 ** (-_out_clustering(succ, nbrs)) * sum(len(succ[j]) + 1 for j in nbrs) if nbrs else 0.0
        sc = float(sum(two_hop[w] for u in nbrs for w in succ[u]))
        if n < 2:
            raise GraphError("out_closeness needs at least 2 nodes")
        gc = (len(hops[k]) / (n - 1)) ** 2 / sum(hops[k]) if hops[k] else 0.0
        reach = {"first_order": hops[k].count(1), "second_order": hops[k].count(2), "total_reach": len(hops[k])}
        raw.append((i, lc, sc, gc, (math.exp(gc) - 1.0) * lc * sc, reach))
    raw.sort(key=lambda t: (-t[4], t[0]))
    scores, rank, prev_ni = [], 0, None
    for i, lc, sc, gc, ni, reach in raw:
        if ni != prev_ni:
            rank, prev_ni = rank + 1, ni
        scores.append(CentralityScores(node_id=i, lc=lc, sc=sc, gc=gc, ni=ni, rank_ni=rank, **reach))
    return scores


def reference_periphery(g) -> dict:
    """{id: fraction of the node's out-neighbors in another genre, 0 for a
    sink}, neighbor by neighbor over `succ_rows`."""
    succ, ids = succ_rows(g), g.node_ids()
    out = {}
    for k, i in enumerate(ids):
        nbrs = [ids[w] for w in succ[k]]
        own = g.nodes[i].genre
        out[i] = sum(g.nodes[w].genre != own for w in nbrs) / len(nbrs) if nbrs else 0.0
    return out


def rank(e) -> tuple:
    """The order in which decycling weighs edges: ascending (weight, src, dst)."""
    return e.weight, e.src, e.dst


def reference_remove_cycles(g):
    """Round-based decycler: each round takes the SCCs of the whole
    remaining graph and deletes, in every nontrivial SCC visited by smallest
    member, its minimum (weight, src, dst) edge. Returns (remaining edges
    by key, removed edges in deletion order)."""
    return _decycle(g.node_ids(), edges_of(g))


def reference_rank_suffix_decycle(g) -> list:
    """The edges the decycling rule removes, in ascending rank: e = (u, v)
    when u and v share a networkx SCC of the edges ranked at least e's, e
    included. One SCC pass per edge."""
    ranked = sorted(edges_of(g).values(), key=rank)
    removed = []
    for k, e in enumerate(ranked):
        dg = nx.DiGraph()
        dg.add_nodes_from(g.node_ids())
        dg.add_edges_from((f.src, f.dst) for f in ranked[k:])
        if any(e.src in c and e.dst in c for c in nx.strongly_connected_components(dg)):
            removed.append(e)
    return removed


def _decycle(node_ids, edges: dict):
    removed = []
    while True:
        dg = nx.DiGraph()
        dg.add_nodes_from(node_ids)
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


@dataclass(frozen=True)
class InfluenceRow:
    """One typed row of the influence table."""
    influencer_id: int
    influencer_name: str
    influencer_main_genre: str
    influencer_active_start: int
    follower_id: int
    follower_name: str
    follower_main_genre: str
    follower_active_start: int


def reference_load_influence(path) -> list[InfluenceRow]:
    """The influence table's rows as csv.DictReader reads them, typed, each
    (influencer, follower) pair at its first occurrence."""
    rows, seen, columns = [], set(), [f.name for f in fields(InfluenceRow)]
    with open(path, newline="", encoding="utf-8") as fh:
        for record in csv.DictReader(fh):
            row = InfluenceRow(*(int(record[c]) if c.endswith(("_id", "_start")) else record[c]
                                 for c in columns))
            if (row.influencer_id, row.follower_id) not in seen:
                seen.add((row.influencer_id, row.follower_id))
                rows.append(row)
    return rows


def reference_build_graph(rows):
    """Record-based graph build: (ArtistNode by id, one unweighted
    InfluenceEdge per row that is not self-influence, self-influence rows
    dropped); a node takes its first row's name, genre and active start."""
    nodes, edges, dropped = {}, [], 0
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
        edges.append(InfluenceEdge(src=row.influencer_id, dst=row.follower_id,
                                   year_diff=row.follower_active_start - row.influencer_active_start))
    return nodes, edges, dropped


def reference_normalize_weights(edges):
    """(edges with YEAR_DIFF_MIN < year_diff < YEAR_DIFF_MAX, ascending by
    (src, dst), weighted z = (x + 30) / (x_max + 30) with x_max the largest
    kept year_diff; the number dropped)."""
    kept = [e for e in sorted(edges, key=lambda e: (e.src, e.dst))
            if YEAR_DIFF_MIN < e.year_diff < YEAR_DIFF_MAX]
    if not kept:
        raise GraphError("no edges remain after year-difference filtering")
    denom = max(e.year_diff for e in kept) - YEAR_DIFF_MIN
    weighted = [InfluenceEdge(e.src, e.dst, e.year_diff, (e.year_diff - YEAR_DIFF_MIN) / denom)
                for e in kept]
    return weighted, len(edges) - len(kept)


def reference_graph_build(rows, out) -> None:
    """`graph build`'s five artifacts, written under `out` by the record
    pipeline: build, normalize, the round-based decycler (its removed edges
    written in ascending rank), and writers that walk the records."""
    nodes, edges, self_loops = reference_build_graph(rows)
    weighted, window = reference_normalize_weights(edges)
    kept, removed = _decycle(sorted(nodes), {(e.src, e.dst): e for e in weighted})
    removed.sort(key=rank)
    header = ["from", "to", "year_diff", "weight"]
    write_table(out / "nodes.csv", ["id", "name", "genre", "active_start"],
                ([i, n.name, n.genre, n.active_start] for i, n in sorted(nodes.items())))
    write_table(out / "edges.csv", header, ([s, d, e.year_diff, e.weight] for (s, d), e in sorted(kept.items())))
    write_table(out / "removed_edges.csv", header, ([e.src, e.dst, e.year_diff, e.weight] for e in removed))
    lines = ["digraph influence {"]
    for i, n in sorted(nodes.items()):
        label = n.name.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {i} [label="{label}"];')
    lines += [f"  {s} -> {d} [weight={e.weight:.6f}];" for (s, d), e in sorted(kept.items())]
    (out / "graph.dot").write_text("\n".join(lines + ["}"]) + "\n", encoding="utf-8")
    summary = {"nodes": len(nodes), "edges": len(kept), "edges_dropped_year_window": window,
               "edges_removed_in_decycle": len(removed), "self_loops_dropped": self_loops}
    (out / "graph_summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n",
                                            encoding="utf-8")


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


def reference_pairwise_metric(X, metric: str) -> np.ndarray:
    """Condensed upper-triangle values of the chosen metric from all-pairs
    `np.triu_indices` arrays: `tss_rows` on 8192 pairs at a time, the
    others off the whole Gram matrix."""
    X = np.asarray(X, dtype=float)
    iu, ju = np.triu_indices(X.shape[0], k=1)
    if metric == "tss":
        blocks = [tss_rows(X[iu[lo:lo + 8192]], X[ju[lo:lo + 8192]]) for lo in range(0, len(iu), 8192)]
        return np.concatenate([t * s for t, s, _ in blocks])
    gram = X @ X.T
    sq = np.diag(gram)
    dots = gram[iu, ju]
    if metric == "euclidean":
        return np.sqrt(np.maximum(sq[iu] + sq[ju] - 2.0 * dots, 0.0))
    mags = np.sqrt(sq)
    prod = mags[iu] * mags[ju]
    with np.errstate(invalid="ignore", divide="ignore"):
        cosine = np.where(prod > 0.0, dots / prod, 1.0)
    return np.clip(cosine, -1.0, 1.0)


def reference_uniqueness(X, metric: str) -> float:
    """100 * distinct / C(n, 2) of the pairwise values rounded to 7 decimals,
    counted by np.unique."""
    values = reference_pairwise_metric(X, metric)
    return 100.0 * len(np.unique(np.round(values, 7))) / len(values)


def reference_sample_similarity(profiles, genres, samples_per_run, runs, seed):
    """Within- and between-genre TSS totals per run, in the documented draw
    order: the four index arrays come from the same `integers` calls, each
    partner is picked from a Python list (q's genre without q, or the other
    genres' artists in (genre, id) order), and each pair is scored by the
    scalar formula and added with a running `+=`. Returns (within, between)."""
    members = {}
    for i in sorted(profiles, key=lambda i: (genres[i], i)):
        members.setdefault(genres[i], []).append(i)
    order = [i for m in members.values() for i in m]
    within_pool = [i for i in order if len(members[genres[i]]) >= 2]

    def tss(q, p):
        t, s, _ = reference_tss(profiles[q], profiles[p])
        return t * s

    within, between = [], []
    for run in range(runs):
        rng = np.random.default_rng(seed + run)
        qs = [within_pool[j] for j in rng.integers(len(within_pool), size=samples_per_run)]
        ks = rng.integers(0, np.array([len(members[genres[q]]) - 1 for q in qs]))
        swg = 0.0
        for q, k in zip(qs, ks):
            swg += tss(q, [i for i in members[genres[q]] if i != q][k])
        qs = [order[j] for j in rng.integers(len(order), size=samples_per_run)]
        ks = rng.integers(0, np.array([len(order) - len(members[genres[q]]) for q in qs]))
        sbg = 0.0
        for q, k in zip(qs, ks):
            sbg += tss(q, [i for i in order if genres[i] != genres[q]][k])
        within.append(swg)
        between.append(sbg)
    return within, between


def _genre_members(ids, genres) -> dict[str, list[int]]:
    members: dict[str, list[int]] = {}
    for i in sorted(ids):
        members.setdefault(genres[i], []).append(i)
    return members


def reference_cluster_genres(profiles: dict[int, np.ndarray], genres: dict[int, str],
                             linkage: str = "average") -> Dendrogram:
    """The dict-based agglomeration `cluster_genres` replaced: pair
    distances keyed by frozenset, clusters named by sorted label tuples,
    the least (distance, pair) over all pairs of labels at each merge."""
    members = _genre_members(profiles.keys(), genres)
    means = {g: np.mean([profiles[i] for i in m], axis=0) for g, m in members.items()}
    names = sorted(means)
    if len(names) < 2:
        raise GenreError("clustering needs at least 2 genres")
    if linkage not in ("average", "ward"):
        raise GenreError(f"unknown linkage {linkage!r}")

    # Working distances: plain Euclidean for average linkage, squared for
    # the Ward Lance-Williams update.
    def base_dist(a, b):
        d2 = float(np.sum((means[a] - means[b]) ** 2))
        return d2 if linkage == "ward" else d2 ** 0.5

    labels: list[tuple[str, ...]] = [(n,) for n in names]
    sizes = {(n,): 1 for n in names}
    trees: dict[tuple[str, ...], dict] = {(n,): {"name": n} for n in names}
    dist = {frozenset((a, b)): base_dist(a[0], b[0]) for a, b in combinations(labels, 2)}

    merges = []
    while len(labels) > 1:
        # the least (distance, pair); `labels` is sorted, so each pair is too
        d, (a, b) = min((dist[frozenset(pair)], pair) for pair in combinations(labels, 2))
        merged = tuple(sorted(a + b))
        report_d = d ** 0.5 if linkage == "ward" else d
        merges.append((a, b, report_d))
        trees[merged] = {"children": [trees.pop(a), trees.pop(b)], "distance": report_d}
        na, nb = sizes.pop(a), sizes.pop(b)
        sizes[merged] = na + nb
        labels = [l for l in labels if l not in (a, b)]
        for other in labels:
            dak = dist.pop(frozenset((a, other)))
            dbk = dist.pop(frozenset((b, other)))
            nk = sizes[other]
            if linkage == "average":
                dnew = (na * dak + nb * dbk) / (na + nb)
            else:  # ward, on squared distances
                dnew = ((na + nk) * dak + (nb + nk) * dbk - nk * d) / (na + nb + nk)
            dist[frozenset((merged, other))] = dnew
        dist.pop(frozenset((a, b)))
        labels.append(merged)
        labels.sort()

    return Dendrogram(leaves=names, merges=merges, tree=trees[labels[0]])


def reference_flat_cut(dendro: Dendrogram, k: int) -> dict[str, int]:
    """Stop the merge sequence when k clusters remain; genre -> cluster
    index (clusters numbered by sorted label), member lists kept per label."""
    clusters = {(leaf,): [leaf] for leaf in dendro.leaves}
    for a, b, _ in dendro.merges:
        if len(clusters) == k:
            break
        merged = tuple(sorted(a + b))
        clusters[merged] = clusters.pop(a) + clusters.pop(b)
    out = {}
    for idx, label in enumerate(sorted(clusters)):
        for genre in clusters[label]:
            out[genre] = idx
    return out


def reference_average_extreme_distance(values, mode="pair_mean"):
    """Average extreme distance by a running total over the pairs (i, j),
    i < j, in row-major order."""
    vals = list(values)
    n = len(vals)
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += abs(vals[i] - vals[j])
    return 2.0 * total / (n * (n - 1) if mode == "pair_mean" else n * (n - 2))


def _minmax(values: list[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def reference_authenticity(g, profiles, alpha=0.8, mode="pair_mean"):
    """Authenticity follower by follower: one tss_rows call over each
    follower's profiled influencers (networkx predecessors, ascending),
    min-max mapped in Python, AD by the running total of
    reference_average_extreme_distance (with the library's errors for an
    unknown mode and for unbounded n = 2)."""
    dg = to_nx(g)
    scores: list[AuthenticityScore] = []
    excluded = 0
    for node in g.node_ids():
        if node not in profiles:
            continue
        influencers = [i for i in sorted(dg.predecessors(node)) if i in profiles]
        if len(influencers) < 2:
            if dg.in_degree(node) >= 1:
                excluded += 1
            continue
        t, s, _ = tss_rows([profiles[node]] * len(influencers), [profiles[i] for i in influencers])
        mapped = _minmax((t * s).tolist())
        if mode not in ("pair_mean", "unbounded"):
            raise AuthRevError(f"unknown mode {mode!r}")
        if mode == "unbounded" and len(mapped) < 3:
            raise AuthRevError("unbounded mode needs n >= 3")
        ad = reference_average_extreme_distance(mapped, mode=mode)
        scores.append(
            AuthenticityScore(
                node_id=node,
                ad=ad,
                extreme=ad >= alpha,
                stdev=float(np.std(mapped)),
            )
        )
    fraction = (
        sum(s.extreme for s in scores) / len(scores) if scores else 0.0
    )
    summary = AuthenticitySummary(
        eligible=len(scores),
        excluded_few_inputs=excluded,
        fraction_extreme=fraction,
        alpha=alpha,
        mode=mode,
    )
    return scores, summary


def _reference_gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float(np.sum(p * p))


def _reference_grow(X, y, n_classes, rng, depth, max_depth, m_features, importances, n_total):
    counts = np.bincount(y, minlength=n_classes).astype(float)
    node_gini = _reference_gini(counts)
    n = len(y)
    if depth >= max_depth or n < 2 or node_gini == 0.0:
        return {"proba": (counts / counts.sum()).tolist()}
    d = X.shape[1]
    feats = sorted(rng.choice(d, size=min(m_features, d), replace=False).tolist())
    best = None  # (gini_after, feature, threshold, mask)
    for f in feats:
        col = X[:, f]
        values = np.unique(col)
        if len(values) < 2:
            continue
        for thr in (values[:-1] + values[1:]) / 2.0:
            mask = col <= thr
            nl = int(mask.sum())
            if nl == n:  # the midpoint rounded up onto the largest value
                continue
            left = np.bincount(y[mask], minlength=n_classes).astype(float)
            right = counts - left
            score = (nl * _reference_gini(left) + (n - nl) * _reference_gini(right)) / n
            if best is None or score < best[0]:
                best = (score, f, float(thr), mask)
    if best is None or best[0] >= node_gini:
        return {"proba": (counts / counts.sum()).tolist()}
    score, f, thr, mask = best
    importances[f] += (n / n_total) * (node_gini - score)
    return {
        "feature": int(f),
        "threshold": thr,
        "left": _reference_grow(X[mask], y[mask], n_classes, rng, depth + 1, max_depth,
                                m_features, importances, n_total),
        "right": _reference_grow(X[~mask], y[~mask], n_classes, rng, depth + 1, max_depth,
                                 m_features, importances, n_total),
    }


def _reference_predict(roots, classes, X):
    probas = np.zeros((X.shape[0], len(classes)))
    for root in roots:
        for i, x in enumerate(X):
            node = root
            while "proba" not in node:
                node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
            probas[i] += node["proba"]
    return np.array([classes[int(np.argmax(p))] for p in probas])


def reference_forest_train(X, labels, trees=200, max_depth=8, features_per_split=None,
                           seed=0, split=(0.10, 0.05, 0.05)):
    """The forest grown by re-masking and re-counting the column for every
    candidate threshold, and scored by walking each row down each tree.
    Returns an authrev.ForestModel."""
    from artistnet.authrev import ForestModel, _Tree

    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    n, d = X.shape
    i_train = max(1, int(round(n * split[0])))
    i_val = i_train + max(1, int(round(n * split[1])))
    i_test = i_val + max(1, int(round(n * split[2])))
    Xtr, ytr_raw = X[:i_train], labels[:i_train]
    classes = sorted(set(ytr_raw.tolist()))
    class_index = {c: i for i, c in enumerate(classes)}
    ytr = np.array([class_index[c] for c in ytr_raw])
    m_features = features_per_split or math.ceil(math.sqrt(d))
    importances = np.zeros(d)
    roots = []
    for ss in np.random.SeedSequence(seed).spawn(trees):
        rng = np.random.default_rng(ss)
        idx = rng.integers(0, len(ytr), size=len(ytr))
        roots.append(_reference_grow(Xtr[idx], ytr[idx], len(classes), rng, 0, max_depth,
                                     m_features, importances, len(ytr)))
    total = importances.sum()
    if total > 0:
        importances = importances / total

    def accuracy(lo, hi):
        return float(np.mean(_reference_predict(roots, classes, X[lo:hi]) == labels[lo:hi]))

    return ForestModel(
        trees=[_Tree(r) for r in roots],
        classes=classes,
        feature_importances=importances,
        train_accuracy=accuracy(0, i_train),
        validation_accuracy=accuracy(i_train, i_val),
        test_accuracy=accuracy(i_val, i_test),
    )


# ---------------------------------------------------------------------------
# the per-row song loader the song table replaced


def artist_id_tuples(songs) -> list[tuple[int, ...]]:
    """Each song's artist ids of a SongTable, as the tuple the per-row
    loader gives (`SongRecord.artist_ids`)."""
    bounds = songs.indptr.tolist()
    return [tuple(songs.ids[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class SongRecord:
    artist_ids: tuple[int, ...]
    danceability: float
    energy: float
    valence: float
    tempo: float
    loudness: float
    key: int
    acousticness: float
    instrumentalness: float
    liveness: float
    speechiness: float
    duration_ms: float
    popularity: float
    year: int
    mode: int
    explicit: int

    def feature_vector(self) -> np.ndarray:
        from artistnet.ingest import FEATURES

        return np.array([float(getattr(self, f)) for f in FEATURES])


def reference_load_songs(path, known_artist_ids=None):
    """One frozen record per kept song, cleaned by the rules of
    `ingest.load_songs`, one csv.DictReader row at a time; a cell that is
    not a finite number raises the same IngestError. An artist listed twice
    in one song is kept once, at its first place."""
    from artistnet.ingest import DROPPED_COLUMNS, FEATURES, CleaningReport, IngestError

    report = CleaningReport()
    songs = []
    numeric = FEATURES + DROPPED_COLUMNS
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    for lineno, raw in enumerate(rows, start=2):
        report.rows_read += 1
        if any((raw.get(c) or "").strip() == "" for c in numeric):
            report.rows_dropped_missing_value += 1
            continue
        values = {}
        for col in numeric:
            try:
                values[col] = float(raw[col])
            except ValueError:
                values[col] = math.nan
            if not math.isfinite(values[col]):
                raise IngestError(
                    f"{path}:{lineno}: numeric field {col}={raw[col]!r} is not a finite number")
        inner = (raw["artist_ids"] or "").strip()
        if inner.startswith("[") and inner.endswith("]"):
            inner = inner[1:-1]
        try:
            listed = [int(p) for p in inner.split(",") if p.strip()]
        except ValueError:
            raise IngestError(f"{path}:{lineno}: bad artist_ids {raw['artist_ids']!r}") from None
        artist_ids = ()
        for artist in listed:
            if artist not in artist_ids:
                artist_ids += (artist,)
        if not artist_ids:
            report.rows_dropped_missing_artist += 1
            continue
        if not (-60.0 <= values["loudness"] <= 0.0):
            report.rows_dropped_loudness += 1
            continue
        if known_artist_ids is not None and not any(a in known_artist_ids for a in artist_ids):
            report.rows_flagged_unlinked += 1
        songs.append(SongRecord(
            artist_ids=artist_ids,
            **{c: values[c] for c in FEATURES if c not in ("key", "year")},
            key=int(values["key"]), year=int(values["year"]),
            mode=int(values["mode"]), explicit=int(values["explicit"]),
        ))
    return songs, report


def reference_build_artist_profiles(songs) -> dict:
    """Per-artist mean feature vector: a running sum started from each
    artist's first song, divided by its song count."""
    sums, counts = {}, {}
    for song in songs:
        vec = song.feature_vector()
        for artist in song.artist_ids:
            if artist in sums:
                sums[artist] = sums[artist] + vec
                counts[artist] += 1
            else:
                sums[artist] = vec.copy()
                counts[artist] = 1
    return {a: sums[a] / counts[a] for a in sorted(sums)}


def reference_genre_feature_trend(songs, genre: str, feature: str, artist_genres: dict):
    """Per-year mean of a raw feature for one genre vs all genres, one year's
    values collected in a list and averaged by np.mean.

    A song belongs to a genre when any of its artists has that main genre;
    the global series covers every song with a known-genre artist.
    Returns ({year: genre_mean}, {year: global_mean}).
    """
    from artistnet.ingest import NUMERIC

    genre_acc: dict[int, list[float]] = {}
    global_acc: dict[int, list[float]] = {}
    years = map(int, songs.values[:, NUMERIC.index("year")].tolist())
    values = songs.values[:, NUMERIC.index(feature)].tolist()
    for artist_ids, year, value in zip(artist_id_tuples(songs), years, values):
        song_genres = {artist_genres[a] for a in artist_ids if a in artist_genres}
        if not song_genres:
            continue
        global_acc.setdefault(year, []).append(value)
        if genre in song_genres:
            genre_acc.setdefault(year, []).append(value)
    genre_series = {y: float(np.mean(v)) for y, v in sorted(genre_acc.items())}
    global_series = {y: float(np.mean(v)) for y, v in sorted(global_acc.items())}
    return genre_series, global_series
