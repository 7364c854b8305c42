"""Genre-level analyses: within/between-genre similarity and influence
sampling, hierarchical genre clustering, and genre time series: debut
counts read off the graph's nodes, yearly feature means off the songs.
Similarity sampling and clustering read one profile layout, a block of rows
per genre (`_genre_blocks`); clustering merges on one distance matrix."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from artistnet.graph import InfluenceGraph, genre_codes
from artistnet.ingest import FEATURES, SongTable
from artistnet.simvec import tss_rows


# The genre-by-year feature means table; ALL names the series of all genres.
YEAR = FEATURES.index("year")
YEAR_MEANS_COLUMNS = ["genre", "year", "n_songs"] + FEATURES[:YEAR] + FEATURES[YEAR + 1:]
ALL = "__all__"


class GenreError(Exception):
    pass


@dataclass(frozen=True)
class SamplingConfig:
    samples_per_run: int = 2500
    runs: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.samples_per_run < 1 or self.runs < 1:
            raise GenreError("samples_per_run and runs must be >= 1")


@dataclass
class GenreSamplingReport:
    metric: str  # "tss" or "ip"
    within_totals: list[float]
    between_totals: list[float]
    within_mean: float
    between_mean: float
    within_stronger: bool  # verdict on the means
    runs_within_stronger: int  # per-run verdict count
    excluded_genres: list[str] = field(default_factory=list)
    flagged_runs: list[int] = field(default_factory=list)
    samples_per_run: int = 0
    runs: int = 0
    seed: int = 0


def _report(metric: str, within: list[float], between: list[float], cfg: SamplingConfig,
            **lists) -> GenreSamplingReport:
    """The report of a sampling's per-run totals: within is the stronger
    side where its TSS is lower, or its IP higher."""
    stronger = float.__lt__ if metric == "tss" else float.__gt__
    w_mean, b_mean = float(np.mean(within)), float(np.mean(between))
    return GenreSamplingReport(metric, within, between, w_mean, b_mean, stronger(w_mean, b_mean),
                               sum(map(stronger, within, between)), **lists,
                               samples_per_run=cfg.samples_per_run, runs=cfg.runs, seed=cfg.seed)


def _genre_blocks(profiles: dict[int, np.ndarray], genres: dict[int, str]):
    """(names, size, P): the sorted genres of the profiled ids, each one's
    count of ids, and the profiles stacked in (genre, id) order, genre g a
    block of size[g] rows. An id with no genre is skipped."""
    blocks: dict[str, list[np.ndarray]] = {}
    for i in sorted(profiles):
        if i in genres:
            blocks.setdefault(genres[i], []).append(profiles[i])
    names = sorted(blocks)
    return names, np.array([len(blocks[g]) for g in names]), np.array([v for g in names for v in blocks[g]], float)


def sample_similarity(profiles: dict[int, np.ndarray], genres: dict[int, str],
                      cfg: SamplingConfig) -> GenreSamplingReport:
    """Monte-Carlo TSS sums for same-genre and cross-genre artist pairs.

    The artists are laid out in (genre, id) order: genre g is the block of
    size[g] positions from start[g], N in all. Each run, seeded with
    cfg.seed + run index, draws n = samples_per_run pairs in four batch
    `integers` calls, in this order:
    1. within q = integers(len(within_pool), size=n), over the positions
       whose genre has 2 or more artists;
    2. within mate k = integers(0, size[g] - 1), g the genre of q, and
       p = start[g] + k + (k >= q - start[g]): uniform over g without q;
    3. between q = integers(N, size=n);
    4. between partner k = integers(0, N - size[g]), and
       p = k + size[g] * (k >= start[g]): uniform over the other genres.
    Each side is scored by one tss_rows call and summed left to right, as a
    running `+=` would. Lower TSS means more similar, so the within-stronger
    verdict is mean(SWG) < mean(SBG).
    """
    names, size, P = _genre_blocks(profiles, genres)
    if len(names) < 2:
        raise GenreError("sampling needs at least 2 genres")
    excluded = [g for g, n in zip(names, size.tolist()) if n < 2]
    start = np.cumsum(size) - size
    genre_of = np.repeat(np.arange(len(names)), size)  # block of each position
    within_pool = np.flatnonzero(size[genre_of] >= 2)
    if not len(within_pool):
        raise GenreError("no genre has 2 or more artists")

    def total_tss(qs: np.ndarray, ps: np.ndarray) -> float:
        t, s, _ = tss_rows(P[qs], P[ps])
        return float(np.add.accumulate(t * s)[-1])

    within_totals, between_totals = [], []
    for run in range(cfg.runs):
        draw = np.random.default_rng(cfg.seed + run).integers
        q = within_pool[draw(len(within_pool), size=cfg.samples_per_run)]
        g = genre_of[q]
        k = draw(0, size[g] - 1)
        within_totals.append(total_tss(q, start[g] + k + (k >= q - start[g])))
        q = draw(len(P), size=cfg.samples_per_run)
        g = genre_of[q]
        k = draw(0, len(P) - size[g])
        between_totals.append(total_tss(q, k + size[g] * (k >= start[g])))

    return _report("tss", within_totals, between_totals, cfg, excluded_genres=excluded)


def influence_proximity(rank_q: int, rank_p: int) -> float:
    """Rank-proximity influence 1 / (1 + |rank_q - rank_p|), in (0, 1]; elementwise on arrays."""
    return 1.0 / (1.0 + abs(rank_q - rank_p))


def sample_influence(g: InfluenceGraph, scores, cfg: SamplingConfig) -> GenreSamplingReport:
    """Like sample_similarity but accumulating rank-proximity (IP) rather
    than TSS over the edges, one `integers` call per side and run.

    Runs where a side has no eligible pairs report 0 for that side and
    are flagged. Higher IP means stronger influence, so the verdict is
    mean(WIP) > mean(TIP).
    """
    rank = {s.node_id: s.rank_ni for s in scores}
    scored, rank_of = np.array([(i in rank, rank.get(i, 0)) for i in g.node_ids()], np.int64).reshape(-1, 2).T
    _, genre_of = genre_codes(g)
    keep = (scored[g.src] & scored[g.indices]).astype(bool)
    s, d = g.src[keep], g.indices[keep]  # dense ends of the edges, ascending by (src, dst)
    ips = influence_proximity(rank_of[s], rank_of[d])
    within = genre_of[s] == genre_of[d]
    within_ips, between_ips = ips[within], ips[~within]

    def total_ip(rng, ips: np.ndarray) -> float:
        if not len(ips):
            return 0.0
        picks = rng.integers(len(ips), size=cfg.samples_per_run)
        return float(np.add.accumulate(ips[picks])[-1])

    within_totals, between_totals, flagged = [], [], []
    for run in range(cfg.runs):
        rng = np.random.default_rng(cfg.seed + run)
        within_totals.append(total_ip(rng, within_ips))
        between_totals.append(total_ip(rng, between_ips))
        if not len(within_ips) or not len(between_ips):
            flagged.append(run)

    return _report("ip", within_totals, between_totals, cfg, flagged_runs=flagged)


@dataclass
class Dendrogram:
    leaves: list[str]
    # (cluster_a, cluster_b, linkage_distance), a cluster named by its sorted tuple of genres
    merges: list[tuple[tuple[str, ...], tuple[str, ...], float]]
    tree: dict  # nested {"name"} leaves / {"children", "distance"} internals

    def flat_cut(self, k: int) -> dict[str, int]:
        """The clusters left after the first len(leaves) - k merges; genre ->
        cluster index (clusters numbered by sorted label)."""
        if not 1 <= k <= len(self.leaves):
            raise GenreError(f"cut size {k} out of range")
        clusters = {(leaf,) for leaf in self.leaves}
        for a, b, _ in self.merges[:len(self.leaves) - k]:
            clusters = clusters - {a, b} | {tuple(sorted(a + b))}
        return {genre: idx for idx, label in enumerate(sorted(clusters)) for genre in label}

    def to_newick(self) -> str:
        def render(node) -> str:
            if "name" in node:
                return "'" + node["name"].replace("'", "''") + "'"
            inner = ",".join(render(c) for c in node["children"])
            return f"({inner}):{node['distance']!r}"

        return render(self.tree) + ";"


def cluster_genres(profiles: dict[int, np.ndarray], genres: dict[int, str],
                   linkage: str = "average") -> Dendrogram:
    """Agglomerative clustering of genre-mean vectors (Euclidean distance,
    average linkage by default, Ward behind the flag); an id with no genre
    is skipped. The working distances (squared for Ward) fill a k x k matrix
    once; each merge writes the Lance-Williams update into the row and
    column of its pair's first cluster (Muellner 2011's primitive loop). A
    cluster keeps the row of its least genre, so row order is label order,
    and ties go to the first least entry in row-major order: the
    lexicographically least label pair."""
    names, size, P = _genre_blocks(profiles, genres)
    if len(names) < 2:
        raise GenreError("clustering needs at least 2 genres")
    if linkage not in ("average", "ward"):
        raise GenreError(f"unknown linkage {linkage!r}")
    means = [np.mean(block, axis=0) for block in np.split(P, np.cumsum(size[:-1]))]
    k = len(names)
    dist = np.full((k, k), np.inf)  # inf on the diagonal, and on the row and column of a merged-away cluster
    for i in range(k):
        for j in range(i + 1, k):
            d2 = float(np.sum((means[i] - means[j]) ** 2))
            dist[i, j] = dist[j, i] = d2 if linkage == "ward" else d2 ** 0.5

    labels = [(n,) for n in names]  # of each row; a label's length is its cluster's size
    trees = [{"name": n} for n in names]
    merges = []
    for _ in range(k - 1):
        a, b = divmod(int(np.argmin(dist)), k)  # a < b, as dist is symmetric
        d = float(dist[a, b])
        report_d = d ** 0.5 if linkage == "ward" else d
        merges.append((labels[a], labels[b], report_d))
        trees[a] = {"children": [trees[a], trees[b]], "distance": report_d}
        rest = np.flatnonzero((dist[a] < np.inf) & (dist[b] < np.inf))  # the other live rows
        na, nb, nk = len(labels[a]), len(labels[b]), np.array([len(labels[o]) for o in rest.tolist()])
        if linkage == "average":
            new = (na * dist[a, rest] + nb * dist[b, rest]) / (na + nb)
        else:  # ward, on squared distances
            new = ((na + nk) * dist[a, rest] + (nb + nk) * dist[b, rest] - nk * d) / (na + nb + nk)
        dist[a, rest] = dist[rest, a] = new
        dist[b, :] = dist[:, b] = np.inf
        labels[a] = tuple(sorted(labels[a] + labels[b]))

    return Dendrogram(leaves=names, merges=merges, tree=trees[0])


def debut_counts(g: InfluenceGraph) -> dict[tuple[str, int], int]:
    """Debutants per (main genre, active-start year): each node of the
    graph counted once."""
    return dict(Counter((n.genre, n.active_start) for n in g.nodes.values()))


def genre_year_means(songs: SongTable, artist_genres: dict[int, str]) -> list[list]:
    """Rows [series, year, n_songs, *means] (YEAR_MEANS_COLUMNS), sorted, of
    each series and year with a song. A song is in each distinct genre its
    artists have in `artist_genres` and, if in one, in ALL (a genre named
    ALL merges into it). A mean is the sum in song order, as np.bincount
    adds it, divided by n_songs."""
    series = sorted(set(artist_genres.values()) | {ALL})
    code_of = {name: k for k, name in enumerate(series)}
    known = np.fromiter(artist_genres, np.int64, len(artist_genres))
    code = np.fromiter(map(code_of.get, artist_genres.values()), np.int64, len(artist_genres))
    order = np.argsort(known)
    at = np.searchsorted(known, songs.ids, sorter=order)
    linked = np.searchsorted(known, songs.ids, "right", sorter=order) > at
    song = songs.rows[linked]
    # distinct (song, series) pairs in ascending song order, as song * len(series) + code
    pairs = np.sort(np.concatenate([song * len(series) + code[order[at[linked]]],
                                    song * len(series) + code_of[ALL]]))
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    song = pairs // len(series)
    years, year_at = np.unique(songs.values[:, YEAR], return_inverse=True)  # of each song
    cell = pairs % len(series) * len(years) + year_at[song]  # by (series, year)
    del at, linked, pairs, year_at  # freed before the (series, year) grouping
    bins, key = np.unique(cell, return_inverse=True)
    counts = np.bincount(key, minlength=len(bins))
    means = np.column_stack([np.bincount(key, songs.values[song, k], len(bins))
                             for k in range(len(FEATURES)) if k != YEAR]) / counts[:, None]
    years = years.tolist()
    return [[series[b // len(years)], int(years[b % len(years)]), n, *m]
            for b, n, m in zip(bins.tolist(), counts.tolist(), means.tolist())]


def genre_influence_matrix(g: InfluenceGraph, threshold: float = 0.05):
    """Genre-to-genre influence weights: edge counts out of each genre,
    normalized by that genre's total out-edges. Cross-genre pairs below
    the threshold are pruned; self-pairs are reported separately.
    Returns (cross, self_pairs) as sorted (from, to, weight) lists."""
    names, code = genre_codes(g)
    k = len(names)
    counts = np.bincount(code[g.src] * k + code[g.indices], minlength=k * k).reshape(k, k)
    out_totals = counts.sum(1).tolist()
    rows, cols = np.nonzero(counts)  # ascending (from, to): `names` is sorted
    cross, self_pairs = [], []
    for a, b, c in zip(rows.tolist(), cols.tolist(), counts[rows, cols].tolist()):
        gm, gn, w = names[a], names[b], c / out_totals[a]
        if gm == gn:
            self_pairs.append((gm, gn, w))
        elif w >= threshold:
            cross.append((gm, gn, w))
    return cross, self_pairs
