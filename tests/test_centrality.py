import math

import numpy as np
import pytest

from conftest import make_graph, random_digraph
from oracles import (
    brute_cluster_rank,
    brute_node_influence,
    brute_out_closeness,
    brute_semi_local,
    reference_node_influence,
    reference_periphery,
    to_nx,
)

from artistnet.authrev import periphery_scores

from artistnet.centrality import (
    CentralityScores,
    node_influence,
    top_k,
    year_diff_centrality_correlation,
)
from artistnet.graph import ArtistNode, GraphError, InfluenceEdge, InfluenceGraph, remove_cycles


def record(g, node) -> CentralityScores:
    """The `node_influence(g)` record of `node`."""
    return next(s for s in node_influence(g) if s.node_id == node)


class TestClusterRank:
    def test_sink_is_zero(self):
        g = make_graph(2, [(0, 1)])
        assert record(g, 1).lc == 0.0

    def test_no_edges_among_neighbors(self):
        # 0 -> {1, 2}; 1 -> 3; 2 is a sink; c_0 = 0
        g = make_graph(4, [(0, 1), (0, 2), (1, 3)])
        assert record(g, 0).lc == pytest.approx(3.0)

    def test_edge_among_neighbors(self):
        # adding 1 -> 2 makes c_0 = 1/2 and raises neighbor degree sum
        g = make_graph(4, [(0, 1), (0, 2), (1, 3), (1, 2)])
        expected = brute_cluster_rank(to_nx(g), 0)
        assert record(g, 0).lc == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(10 ** -0.5 * ((2 + 1) + (0 + 1)))


class TestSemiLocal:
    def test_chain(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert record(g, 0).sc == 1.0

    def test_sink_is_zero(self):
        g = make_graph(2, [(0, 1)])
        assert record(g, 1).sc == 0.0

    def test_star_center_is_zero(self):
        g = make_graph(6, [(0, i) for i in range(1, 6)])
        assert record(g, 0).sc == 0.0


class TestOutCloseness:
    def test_chain(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert record(g, 0).gc == pytest.approx(1 / 3)

    def test_sink_is_zero(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert record(g, 2).gc == 0.0

    def test_star_center(self):
        g = make_graph(6, [(0, i) for i in range(1, 6)])
        assert record(g, 0).gc == pytest.approx(0.2)

    def test_single_node_errors(self):
        with pytest.raises(GraphError):
            node_influence(make_graph(1, []))


class TestNodeInfluence:
    def test_zero_gc_means_zero_ni(self):
        g = make_graph(3, [(0, 1), (0, 2)])
        scores = {s.node_id: s for s in node_influence(g)}
        assert scores[1].gc == 0.0 and scores[1].ni == 0.0
        assert scores[2].ni == 0.0

    def test_hand_value(self):
        # chain gives GC_0 = 1/3; LC and SC taken from the components so the
        # expected value is computed, not guessed
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        s = {x.node_id: x for x in node_influence(g)}[0]
        expected = (math.exp(s.gc) - 1.0) * s.lc * s.sc
        assert s.ni == pytest.approx(expected, rel=1e-12)
        assert s.ni == pytest.approx(brute_node_influence(to_nx(g), 0), rel=1e-12)

    def test_all_sinks_rank_tiebreak(self):
        g = make_graph(3, [])
        scores = node_influence(g)
        assert [s.node_id for s in scores] == [0, 1, 2]
        assert all(s.ni == 0.0 and s.rank_ni == 1 for s in scores)

    def test_dense_ranking(self):
        g = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        scores = node_influence(g)
        ranks = [s.rank_ni for s in scores]
        assert ranks[0] == 1
        assert ranks == sorted(ranks)
        # dense: next distinct value increments by one
        assert max(ranks) == len(set(round(s.ni, 15) for s in scores))

    def test_rank_invariant_under_positive_scaling(self):
        g, _ = remove_cycles(random_digraph(np.random.default_rng(11)))
        scores = node_influence(g)
        order = [s.node_id for s in scores]
        scaled = sorted(
            ((s.ni * 7.5, s.node_id) for s in scores), key=lambda t: (-t[0], t[1])
        )
        assert [i for _, i in scaled] == order


@pytest.mark.parametrize("seed", range(200))
def test_oracle_equivalence_random_dags(seed):
    """All four scores match the independent brute-force evaluator."""
    g, _ = remove_cycles(random_digraph(np.random.default_rng(seed)))
    dg = to_nx(g)
    by_id = {s.node_id: s for s in node_influence(g)}
    for node in g.node_ids():
        s = by_id[node]
        assert s.lc == pytest.approx(brute_cluster_rank(dg, node), rel=1e-12)
        assert s.sc == pytest.approx(brute_semi_local(dg, node), rel=1e-12)
        assert s.gc == pytest.approx(brute_out_closeness(dg, node), rel=1e-12)
        assert s.ni == pytest.approx(brute_node_influence(dg, node), rel=1e-12)


def test_scores_nonnegative_on_random_graphs():
    for seed in range(30):
        g, _ = remove_cycles(random_digraph(np.random.default_rng(3000 + seed)))
        for s in node_influence(g):
            assert s.lc >= 0 and s.sc >= 0 and s.gc >= 0 and s.ni >= 0


def test_ni_monotone_in_each_component():
    base = (2.0, 3.0, 0.4)

    def ni(lc, sc, gc):
        return (math.exp(gc) - 1.0) * lc * sc

    for bump in (0.5, 1.0, 2.0):
        lc, sc, gc = base
        assert ni(lc + bump, sc, gc) >= ni(lc, sc, gc)
        assert ni(lc, sc + bump, gc) >= ni(lc, sc, gc)
        assert ni(lc, sc, gc + bump) >= ni(lc, sc, gc)


class TestTopK:
    def test_single_edge(self):
        g = make_graph(2, [(0, 1)])
        (s,) = top_k(g, 1)
        assert s.node_id == 0
        assert (s.first_order, s.second_order, s.total_reach) == (1, 0, 1)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            top_k(make_graph(2, [(0, 1)]), 0)

    def test_unknown_genre(self):
        with pytest.raises(GraphError):
            top_k(make_graph(2, [(0, 1)]), 1, genre="Zydeco")

    def test_matches_brute_force_ordering(self):
        g, _ = remove_cycles(random_digraph(np.random.default_rng(77)))
        dg = to_nx(g)
        expected = sorted(
            ((brute_node_influence(dg, i), i) for i in g.node_ids()),
            key=lambda t: (-t[0], t[1]),
        )
        got = top_k(g, 3)
        assert [s.node_id for s in got] == [i for _, i in expected[:3]]

    def test_genre_subgraph_without_edges(self):
        genres = {0: "A", 1: "B", 2: "A", 3: "A"}
        g = make_graph(4, [(0, 1), (1, 2), (1, 3)], genres=genres)
        got = [(s.node_id, s.ni, s.rank_ni, s.first_order, s.second_order, s.total_reach)
               for s in top_k(g, 3, genre="A")]
        assert got == [(0, 0.0, 1, 0, 0, 0), (2, 0.0, 1, 0, 0, 0), (3, 0.0, 1, 0, 0, 0)]

    def test_subnet_depends_only_on_induced_subgraph(self):
        genres = {0: "A", 1: "A", 2: "A", 3: "B"}
        small = make_graph(3, [(0, 1), (1, 2)], genres=genres)
        big = make_graph(4, [(0, 1), (1, 2), (3, 0), (3, 1)], genres=genres)
        assert top_k(small, 3, genre="A") == top_k(big, 3, genre="A")


def relabeled(g, rng, genres=("Zydeco", "Blues", "Pop/Rock")):
    """`g` with its node ids moved to random distinct ids in [0, 10^6) (so
    dense order is not id order of `g`) and each genre drawn from `genres`."""
    old = np.array(g.node_ids())
    new = rng.choice(10**6, len(old), replace=False)
    nodes = [ArtistNode(int(b), f"artist{b}", str(rng.choice(genres)), 1950) for b in new.tolist()]
    return InfluenceGraph.from_arrays(nodes, new[g.src], new[g.indices], g.year_diff, g.weight)


def bits(values) -> list[int]:
    return np.array(values, np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("kind", ["cyclic", "decycled", "wide"])
@pytest.mark.parametrize("seed", range(15))
def test_whole_graph_columns_match_per_node_reference_bitwise(kind, seed):
    """node_influence and periphery_scores give the same bits as the
    node-by-node references, on cyclic, decycled and denser (up to 60
    nodes) multi-genre graphs."""
    rng = np.random.default_rng(seed)
    g = random_digraph(rng, max_nodes=60 if kind == "wide" else 12)
    if kind == "decycled":
        g, _ = remove_cycles(g)
    g = relabeled(g, rng)
    got, want = node_influence(g), reference_node_influence(g)
    ints = lambda s: (s.node_id, s.rank_ni, s.first_order, s.second_order, s.total_reach)
    assert list(map(ints, got)) == list(map(ints, want))
    for name in ("lc", "sc", "gc", "ni"):
        assert bits([getattr(s, name) for s in got]) == bits([getattr(s, name) for s in want])
    ids = g.node_ids()
    expected = reference_periphery(g)
    assert bits(list(periphery_scores(g, ids).values())) == bits([expected[i] for i in ids])


def test_genre_fixture_matches_references():
    genres = {0: "Zydeco", 1: "Blues", 2: "Zydeco", 3: "Pop/Rock", 4: "Blues"}
    g = make_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (2, 4), (4, 3)], genres=genres)
    assert node_influence(g) == reference_node_influence(g)
    assert periphery_scores(g, g.node_ids()) == reference_periphery(g) == {
        0: 2 / 3, 1: 1.0, 2: 1.0, 3: 0.0, 4: 1.0}


def test_fewer_than_two_nodes():
    for score in (node_influence, reference_node_influence):
        with pytest.raises(GraphError, match="out_closeness needs at least 2 nodes"):
            score(make_graph(1, []))
        assert score(InfluenceGraph([], [])) == []
    assert node_influence(make_graph(2, [])) == reference_node_influence(make_graph(2, []))


class TestCorrelation:
    def test_perfect_correlation(self):
        # Chain 0 -> 1 -> 2 -> 3 with year differences 1, 2, 3: the mean
        # incident year_diff of nodes 0..3 is 1, 1.5, 2.5 and 3.
        edges = [InfluenceEdge(0, 1, 1, 0.5), InfluenceEdge(1, 2, 2, 0.5), InfluenceEdge(2, 3, 3, 0.5)]
        g = InfluenceGraph([ArtistNode(i, f"a{i}", "g", 1950) for i in range(4)], edges)
        means = {0: 1.0, 1: 1.5, 2: 2.5, 3: 3.0}
        scores = [CentralityScores(node_id=i, lc=m, sc=2 * m, gc=m + 1, ni=-m) for i, m in means.items()]
        result = year_diff_centrality_correlation(g, scores)
        for col, r in (("lc", 1.0), ("sc", 1.0), ("gc", 1.0), ("ni", -1.0)):
            assert result[col]["r"] == pytest.approx(r)
            assert not result[col]["degenerate"]

    def test_degenerate_constant_columns(self):
        g = make_graph(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)])
        scores = [CentralityScores(node_id=i, lc=1.0, sc=1.0, gc=1.0, ni=1.0) for i in range(4)]
        result = year_diff_centrality_correlation(g, scores)
        assert result["ni"] == {"r": 0.0, "degenerate": True}

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(42)
        n = 1000
        nodes = [ArtistNode(i, f"a{i}", "g", 1950) for i in range(n)]
        edges = [
            InfluenceEdge(i, (i + 1) % n, int(rng.integers(-20, 60)), 0.5)
            for i in range(n - 1)
        ]
        g = InfluenceGraph(nodes, edges)
        scores = [
            CentralityScores(node_id=i, lc=float(rng.random()), sc=float(rng.random()),
                             gc=float(rng.random()), ni=float(rng.random()))
            for i in range(n)
        ]
        result = year_diff_centrality_correlation(g, scores)
        for col in ("lc", "sc", "gc", "ni"):
            assert abs(result[col]["r"]) < 0.1

    def test_too_few_nodes(self):
        g = make_graph(2, [(0, 1, 0.5)])
        scores = [CentralityScores(node_id=i, lc=0, sc=0, gc=0, ni=0) for i in range(2)]
        with pytest.raises(GraphError):
            year_diff_centrality_correlation(g, scores)
