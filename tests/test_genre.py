import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import graph_from_rows, make_graph
from oracles import reference_cluster_genres, reference_flat_cut, reference_sample_similarity

from artistnet import genre as genre_module
from artistnet.centrality import CentralityScores
from artistnet.genre import (
    YEAR_MEANS_COLUMNS,
    GenreError,
    SamplingConfig,
    cluster_genres,
    debut_counts,
    genre_influence_matrix,
    genre_year_means,
    influence_proximity,
    sample_influence,
    sample_similarity,
)
from artistnet.graph import InfluenceGraph
from artistnet.ingest import FEATURES, NUMERIC, SongTable, json_text
from artistnet.simvec import tss, tss_rows


def clustered_profiles(rng, genres=("a", "b"), per_genre=5, spread=1.0, gap=50.0):
    profiles, labels = {}, {}
    nid = 0
    for gi, g in enumerate(genres):
        center = np.zeros(4)
        center[0] = gi * gap
        for _ in range(per_genre):
            profiles[nid] = center + rng.normal(scale=spread, size=4)
            labels[nid] = g
            nid += 1
    return profiles, labels


class TestSampleSimilarity:
    def test_identical_clones_give_zero_within(self, rng):
        profiles = {0: np.ones(3), 1: np.ones(3), 2: np.full(3, 9.0), 3: np.full(3, 9.0)}
        genres = {0: "a", 1: "a", 2: "b", 3: "b"}
        report = sample_similarity(profiles, genres, SamplingConfig(10, 3, seed=1))
        assert report.within_totals == [0.0, 0.0, 0.0]
        assert report.within_stronger

    def test_single_forced_pair(self, rng):
        profiles = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0]),
                    2: np.array([5.0, 5.0]), 3: np.array([5.0, 6.0])}
        genres = {0: "a", 1: "a", 2: "b", 3: "b"}
        report = sample_similarity(profiles, genres, SamplingConfig(1, 1, seed=0))
        pair_values = {
            tss(profiles[0], profiles[1]).tss,
            tss(profiles[2], profiles[3]).tss,
        }
        assert report.within_totals[0] in pair_values

    def test_separated_clusters_verdict(self, rng):
        profiles, genres = clustered_profiles(rng, genres=("a", "b", "c"), gap=50.0)
        report = sample_similarity(profiles, genres, SamplingConfig(200, 5, seed=3))
        assert report.runs_within_stronger == 5
        assert report.within_stronger

    def test_small_genre_excluded_and_logged(self, rng):
        profiles, genres = clustered_profiles(rng)
        profiles[99] = np.zeros(4)
        genres[99] = "lonely"
        report = sample_similarity(profiles, genres, SamplingConfig(20, 2, seed=0))
        assert report.excluded_genres == ["lonely"]

    def test_reproducible_bit_for_bit(self, rng):
        profiles, genres = clustered_profiles(rng)
        cfg = SamplingConfig(50, 4, seed=7)
        a = sample_similarity(profiles, genres, cfg)
        b = sample_similarity(profiles, genres, cfg)
        assert a.within_totals == b.within_totals
        assert a.between_totals == b.between_totals

    def test_totals_equal_the_one_pair_at_a_time_reference(self):
        rng = np.random.default_rng(23)
        sizes = {"duo": 2, "trio": 3, "big": 6, "solo": 1}
        genres = {}
        for g, n in sizes.items():
            genres.update({len(genres) + k: g for k in range(n)})
        profiles = {i: rng.normal(scale=3.0, size=5) for i in genres}
        profiles[4] = np.zeros(5)
        cfg = SamplingConfig(300, 4, seed=11)
        report = sample_similarity(profiles, genres, cfg)
        within, between = reference_sample_similarity(profiles, genres, 300, 4, 11)
        assert report.within_totals == within
        assert report.between_totals == between
        assert report.excluded_genres == ["solo"]

    def test_pairs_are_uniform_over_the_valid_pairs(self, monkeypatch):
        # Genre sizes 2, 3, 1 and 4. Artist i's profile starts with i, so
        # the rows tss_rows is given name the pairs drawn.
        sizes = {"duo": 2, "trio": 3, "solo": 1, "quad": 4}
        genres = {}
        for g, n in sizes.items():
            genres.update({len(genres) + k: g for k in range(n)})
        profiles = {i: np.array([float(i), 1.0]) for i in genres}
        scored = []

        def recording_tss_rows(a, b):
            scored.append(Counter(zip(a[:, 0].astype(int).tolist(), b[:, 0].astype(int).tolist())))
            return tss_rows(a, b)

        monkeypatch.setattr(genre_module, "tss_rows", recording_tss_rows)
        n = 40_000
        sample_similarity(profiles, genres, SamplingConfig(n, 1, seed=29))
        within, between = scored
        size = {i: sizes[genres[i]] for i in genres}
        # P(q, p): q uniform over its pool, p uniform over q's partners.
        expected_within = {(q, p): 1 / 9 / (size[q] - 1) for q in genres for p in genres
                           if q != p and genres[q] == genres[p]}
        expected_between = {(q, p): 1 / 10 / (10 - size[q]) for q in genres for p in genres
                            if genres[q] != genres[p]}
        # chi-square 0.999 quantiles for 19 and 69 degrees of freedom
        for counts, expected, bound in ((within, expected_within, 43.82),
                                        (between, expected_between, 111.06)):
            assert set(counts) == set(expected)
            assert sum(counts.values()) == n
            chi2 = sum((counts[pair] - n * pr) ** 2 / (n * pr) for pair, pr in expected.items())
            assert chi2 < bound

    def test_needs_two_genres(self, rng):
        profiles = {0: np.zeros(2), 1: np.ones(2)}
        with pytest.raises(GenreError):
            sample_similarity(profiles, {0: "a", 1: "a"}, SamplingConfig(1, 1, seed=0))


class TestInfluenceProximity:
    def test_equal_ranks(self):
        assert influence_proximity(4, 4) == 1.0

    def test_rank_gap(self):
        assert influence_proximity(3, 7) == pytest.approx(0.2)

    def test_unit_interval(self, rng):
        for _ in range(50):
            a, b = rng.integers(1, 1000, size=2)
            assert 0.0 < influence_proximity(int(a), int(b)) <= 1.0


def scores_with_ranks(ranks):
    return [
        CentralityScores(node_id=i, lc=0, sc=0, gc=0, ni=float(-r), rank_ni=r)
        for i, r in ranks.items()
    ]


class TestSampleInfluence:
    def test_consecutive_ranks_give_half(self):
        genres = {0: "a", 1: "a", 2: "b", 3: "b"}
        g = make_graph(4, [(0, 1, 0.5), (2, 3, 0.5), (0, 2, 0.5), (1, 3, 0.5)], genres)
        scores = scores_with_ranks({0: 1, 1: 2, 2: 3, 3: 4})
        # same-genre edges (0,1) and (2,3) both join consecutive ranks
        report = sample_influence(g, scores, SamplingConfig(10, 2, seed=5))
        assert report.within_totals == [5.0, 5.0]

    def test_no_cross_genre_edges_flagged(self):
        genres = {0: "a", 1: "a"}
        g = make_graph(2, [(0, 1, 0.5)], genres)
        scores = scores_with_ranks({0: 1, 1: 2})
        report = sample_influence(g, scores, SamplingConfig(5, 2, seed=0))
        assert report.between_totals == [0.0, 0.0]
        assert report.flagged_runs == [0, 1]

    def test_replay_oracle(self):
        rng = np.random.default_rng(17)
        genres = {i: "a" if i < 5 else "b" for i in range(10)}
        edges = [(i, j, 0.5) for i in range(10) for j in range(10)
                 if i != j and rng.random() < 0.3]
        g = make_graph(10, edges, genres)
        scores = scores_with_ranks({i: i + 1 for i in range(10)})
        cfg = SamplingConfig(25, 3, seed=123)
        report = sample_influence(g, scores, cfg)

        # independent replay of the documented sampling procedure
        rank = {s.node_id: s.rank_ni for s in scores}
        within = sorted((s, d) for s, d, _ in edges if genres[s] == genres[d])
        between = sorted((s, d) for s, d, _ in edges if genres[s] != genres[d])
        for run in range(cfg.runs):
            rr = np.random.default_rng(cfg.seed + run)
            wip = 0.0
            for _ in range(cfg.samples_per_run):
                s, d = within[rr.integers(len(within))]
                wip += 1.0 / (1.0 + abs(rank[s] - rank[d]))
            tip = 0.0
            for _ in range(cfg.samples_per_run):
                s, d = between[rr.integers(len(between))]
                tip += 1.0 / (1.0 + abs(rank[s] - rank[d]))
            assert report.within_totals[run] == wip
            assert report.between_totals[run] == tip


class TestClusterGenres:
    def test_identical_means_merge_first_at_zero(self, rng):
        profiles = {0: np.zeros(3), 1: np.zeros(3), 2: np.full(3, 10.0)}
        genres = {0: "x", 1: "y", 2: "z"}
        dendro = cluster_genres(profiles, genres)
        a, b, d = dendro.merges[0]
        assert {a, b} == {("x",), ("y",)}
        assert d == 0.0

    def test_three_point_merge_order(self):
        profiles = {0: np.array([0.0]), 1: np.array([1.0]), 2: np.array([10.0])}
        genres = {0: "a", 1: "b", 2: "c"}
        dendro = cluster_genres(profiles, genres)
        assert dendro.merges[0][:2] == (("a",), ("b",))
        assert dendro.merges[0][2] == pytest.approx(1.0)
        # average linkage distance from {a,b} to c = (10 + 9) / 2
        assert dendro.merges[1][2] == pytest.approx(9.5)

    def test_merge_count(self, rng):
        profiles, genres = clustered_profiles(rng, genres=("a", "b", "c", "d"))
        dendro = cluster_genres(profiles, genres)
        assert len(dendro.merges) == 3
        assert len(dendro.leaves) == 4

    def test_distances_nondecreasing(self, rng):
        profiles, genres = clustered_profiles(rng, genres=("a", "b", "c", "d", "e"), gap=3.0)
        dendro = cluster_genres(profiles, genres)
        dists = [d for _, _, d in dendro.merges]
        assert dists == sorted(dists)

    def test_permutation_invariant(self, rng):
        profiles, genres = clustered_profiles(rng, genres=("a", "b", "c", "d"), gap=4.0)
        dendro1 = cluster_genres(profiles, genres)
        reversed_items = dict(reversed(list(profiles.items())))
        dendro2 = cluster_genres(reversed_items, genres)
        assert dendro1.merges == dendro2.merges

    def test_flat_cut(self, rng):
        profiles, genres = clustered_profiles(rng, genres=("a", "b", "c", "d"), gap=20.0)
        dendro = cluster_genres(profiles, genres)
        cut = dendro.flat_cut(4)
        assert sorted(cut) == ["a", "b", "c", "d"]
        assert len(set(cut.values())) == 4
        assert len(set(dendro.flat_cut(1).values())) == 1

    def test_newick_and_json(self, rng):
        profiles, genres = clustered_profiles(rng, genres=("a", "b", "c"))
        dendro = cluster_genres(profiles, genres)
        newick = dendro.to_newick()
        assert newick.endswith(";")
        assert "'a'" in newick
        tree = json.loads(json_text(dendro))
        assert sorted(tree["leaves"]) == ["a", "b", "c"]

    def test_newick_escapes_apostrophes(self):
        profiles = {0: np.zeros(2), 1: np.ones(2), 2: np.full(2, 5.0)}
        genres = {0: "Rock 'n' Roll", 1: "Jazz", 2: "Blues"}
        newick = cluster_genres(profiles, genres).to_newick()
        assert "'Rock ''n'' Roll'" in newick

    def test_ward_mode(self, rng):
        profiles, genres = clustered_profiles(rng, genres=("a", "b", "c"))
        dendro = cluster_genres(profiles, genres, linkage="ward")
        assert len(dendro.merges) == 2

    def test_single_genre_errors(self):
        with pytest.raises(GenreError):
            cluster_genres({0: np.zeros(2)}, {0: "a"})


# Genre names with quotes, commas, spaces and non-ASCII text.
GENRE_NAMES = st.text(st.sampled_from(list("ab,'\" éß漢")), min_size=1, max_size=4)


@st.composite
def genre_profiles(draw, width=3):
    """(profiles, genres) of 2-12 genres of 1-3 artists each, the artist ids
    shuffled across genres; the profiles hold the integers 0-2, so that
    genre means, and distances between them, often tie."""
    names = draw(st.lists(GENRE_NAMES, min_size=2, max_size=12, unique=True))
    genre_of = [g for g in names for _ in range(draw(st.integers(1, 3)))]
    ids = draw(st.permutations(range(len(genre_of))))
    cells = st.lists(st.integers(0, 2), min_size=width, max_size=width)
    vectors = draw(st.lists(cells, min_size=len(ids), max_size=len(ids)))
    return {i: np.array(v, float) for i, v in zip(ids, vectors)}, dict(zip(ids, genre_of))


def outcome(fn, *args):
    """fn(*args), or the message of the GenreError it raises."""
    try:
        return fn(*args)
    except GenreError as exc:
        return str(exc)


class TestClusterGenresMatchesReference:
    """The matrix agglomeration against the dict-based one it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(case=genre_profiles(), linkage=st.sampled_from(["average", "ward"]))
    def test_same_dendrogram_and_cuts(self, case, linkage):
        profiles, genres = case
        got = cluster_genres(profiles, genres, linkage)
        want = reference_cluster_genres(profiles, genres, linkage)
        assert got.leaves == want.leaves
        assert got.merges == want.merges
        assert got.tree == want.tree
        for k in range(1, len(want.leaves) + 1):
            assert got.flat_cut(k) == reference_flat_cut(want, k)

    @settings(max_examples=150, deadline=None)
    @given(case=genre_profiles(), stray=st.integers(-2, 40), linkage=st.sampled_from(["average", "ward"]))
    def test_an_id_with_no_genre_is_left_out(self, case, stray, linkage):
        profiles, genres = case
        assume(stray not in genres)
        with_stray = profiles | {stray: np.full(3, 7.0)}
        assert cluster_genres(with_stray, genres, linkage) == cluster_genres(profiles, genres, linkage)
        cfg = SamplingConfig(20, 2, seed=3)
        assert outcome(sample_similarity, with_stray, genres, cfg) == outcome(sample_similarity, profiles, genres, cfg)


def raw_row(i, ig, iy, f, fg, fy):
    """An influence row: influencer i of genre ig, active from iy, and
    follower f of genre fg, from fy."""
    return (i, f"n{i}", ig, iy, f, f"n{f}", fg, fy)


class TestDebutCounts:
    def test_artist_counted_once(self):
        rows = [
            raw_row(1, "Jazz", 1950, 2, "Pop", 1970),
            raw_row(2, "Pop", 1970, 3, "Pop", 1980),
        ]
        counts = debut_counts(graph_from_rows(rows))
        assert counts[("Pop", 1970)] == 1

    def test_empty(self):
        assert debut_counts(InfluenceGraph([], [])) == {}

    def test_hand_counted_fixture(self):
        rows = [
            raw_row(1, "Jazz", 1950, 2, "Pop", 1970),
            raw_row(1, "Jazz", 1950, 3, "Pop", 1970),
            raw_row(4, "Jazz", 1950, 5, "Blues", 1960),
        ]
        counts = debut_counts(graph_from_rows(rows))
        assert counts == {
            ("Jazz", 1950): 2,
            ("Pop", 1970): 2,
            ("Blues", 1960): 1,
        }


class TestFeatureTrend:
    """Hand cases for `genre_year_means`, read for the energy column."""

    def make_songs(self, specs):
        values = np.full((len(specs), len(NUMERIC)), 0.5)
        for row, (_, year, energy) in zip(values, specs):
            row[NUMERIC.index("year")], row[NUMERIC.index("energy")] = year, energy
        ids = [a if isinstance(a, tuple) else (a,) for a, _, _ in specs]
        return SongTable(np.array([a for t in ids for a in t], np.int64), np.cumsum([0] + [len(t) for t in ids]),
                         values)

    def energy(self, songs, genres):
        """{(series, year): (n_songs, mean energy)} of the table."""
        col = YEAR_MEANS_COLUMNS.index("energy")
        return {(r[0], r[1]): (r[2], r[col]) for r in genre_year_means(songs, genres)}

    def test_all_songs_genre_coincides_with_global(self):
        songs = self.make_songs([(1, 1970, 0.2), (2, 1970, 0.4), (1, 1980, 0.9)])
        rows = genre_year_means(songs, {1: "only", 2: "only"})
        assert [r[0] for r in rows] == ["__all__", "__all__", "only", "only"]
        assert [r[1:] for r in rows[:2]] == [r[1:] for r in rows[2:]]

    def test_single_song_year(self):
        songs = self.make_songs([(1, 1970, 0.7)])
        means = [songs.values[0, FEATURES.index(f)] for f in YEAR_MEANS_COLUMNS[3:]]
        assert genre_year_means(songs, {1: "g"}) == [["__all__", 1970, 1, *means], ["g", 1970, 1, *means]]

    def test_two_genre_hand_means(self):
        songs = self.make_songs([(1, 1970, 0.2), (2, 1970, 0.8), (1, 1980, 0.4)])
        assert self.energy(songs, {1: "a", 2: "b"}) == {
            ("__all__", 1970): (2, 0.5), ("__all__", 1980): (1, 0.4),
            ("a", 1970): (1, 0.2), ("a", 1980): (1, 0.4), ("b", 1970): (1, 0.8)}

    def test_membership(self):
        # A song counts once per distinct genre of its known artists and once
        # in __all__; a song without a known artist belongs to no series.
        songs = self.make_songs([((1, 2), 1970, 0.2), ((1, 3), 1970, 0.6), (9, 1970, 0.9)])
        assert self.energy(songs, {1: "a", 2: "a", 3: "b"}) == {
            ("__all__", 1970): (2, 0.4), ("a", 1970): (2, 0.4), ("b", 1970): (1, 0.6)}

    def test_no_linked_song_gives_no_rows(self):
        assert genre_year_means(self.make_songs([(9, 1970, 0.9)]), {1: "a"}) == []


class TestGenreInfluenceMatrix:
    def test_single_genre_self_pair_only(self):
        genres = {0: "a", 1: "a", 2: "a"}
        g = make_graph(3, [(0, 1, 0.5), (1, 2, 0.5)], genres)
        cross, selfp = genre_influence_matrix(g)
        assert cross == []
        assert selfp == [("a", "a", 1.0)]

    def test_cross_ratio(self):
        genres = {i: ("a" if i < 7 else "b") for i in range(10)}
        edges = [(0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5), (0, 4, 0.5),
                 (0, 5, 0.5), (0, 6, 0.5), (0, 7, 0.5),
                 (1, 8, 0.5), (2, 9, 0.5), (3, 7, 0.5)]
        g = make_graph(10, edges, genres)
        cross, selfp = genre_influence_matrix(g, threshold=0.05)
        weights = {(a, b): w for a, b, w in cross}
        assert weights[("a", "b")] == pytest.approx(4 / 10)
        assert selfp == [("a", "a", pytest.approx(6 / 10))]

    def test_rows_sum_to_one_with_self_pairs(self, rng):
        genres = {i: f"g{i % 3}" for i in range(9)}
        edges = [(i, j, 0.5) for i in range(9) for j in range(9)
                 if i != j and rng.random() < 0.4]
        g = make_graph(9, edges, genres)
        cross, selfp = genre_influence_matrix(g, threshold=0.0)
        totals: dict[str, float] = {}
        for a, _, w in cross + selfp:
            totals[a] = totals.get(a, 0.0) + w
        for total in totals.values():
            assert total == pytest.approx(1.0)

    def test_threshold_one_prunes_cross(self):
        genres = {0: "a", 1: "a", 2: "b"}
        g = make_graph(3, [(0, 1, 0.5), (0, 2, 0.5)], genres)
        cross, _ = genre_influence_matrix(g, threshold=1.0)
        assert cross == []
