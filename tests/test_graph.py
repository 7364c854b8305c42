import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_graph, random_digraph
from oracles import brute_reachable, reference_bfs_distances, reference_remove_cycles, to_nx

from artistnet import graph
from artistnet.centrality import CentralityScores, node_influence
from artistnet.graph import (
    ArtistNode,
    GraphError,
    InfluenceEdge,
    InfluenceGraph,
    build_graph,
    export_dot,
    export_edges_csv,
    export_nodes_csv,
    is_acyclic,
    normalize_weights,
    reach_table,
    reachability_counts,
    remove_cycles,
    year_diff_centrality_correlation,
)
from artistnet.ingest import RawInfluenceRow


def raw_row(i, iy, f, fy, genre="Pop/Rock"):
    return RawInfluenceRow(
        influencer_id=i, influencer_name=f"n{i}", influencer_main_genre=genre,
        influencer_active_start=iy, follower_id=f, follower_name=f"n{f}",
        follower_main_genre=genre, follower_active_start=fy,
    )


@st.composite
def weighted_digraphs(draw):
    """Small digraphs whose weights come from four values, so that equal
    weights fall back to the (src, dst) tie-break."""
    n = draw(st.integers(2, 9))
    pairs = sorted(draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]))))
    weights = draw(st.lists(st.sampled_from([0.125, 0.25, 0.5, 1.0]),
                            min_size=len(pairs), max_size=len(pairs)))
    return make_graph(n, [(s, d, w) for (s, d), w in zip(pairs, weights)])


def time_ordered_graph(seed, n=300, influencers=6, reversed_fraction=0.06):
    """Normalized graph in which each artist follows up to `influencers`
    earlier ones; a `reversed_fraction` of edges point back in time, which
    closes cycles through the forward paths."""
    rng = np.random.default_rng(seed)
    years = np.sort(rng.integers(1950, 1980, size=n)).tolist()
    rows = []
    for f in range(1, n):
        for i in rng.choice(f, size=min(f, influencers), replace=False).tolist():
            s, d = (f, i) if rng.random() < reversed_fraction else (i, f)
            rows.append(raw_row(s, years[s], d, years[d]))
    return normalize_weights(build_graph(rows))


class TestBuildGraph:
    def test_shared_influencer_counts(self):
        g = build_graph([raw_row(1, 1950, 2, 1970), raw_row(1, 1950, 3, 1980)])
        assert g.n_nodes == 3
        assert len(g.edges) == 2

    def test_year_diff(self):
        g = build_graph([raw_row(1, 1960, 2, 1980)])
        assert g.edges[(1, 2)].year_diff == 20

    def test_self_loop_dropped(self):
        g = build_graph([raw_row(1, 1950, 1, 1950)])
        assert len(g.edges) == 0
        assert g.self_loops_dropped == 1


class TestNormalizeWeights:
    def build(self, year_diffs):
        rows = [raw_row(i, 1950, 100 + i, 1950 + yd) for i, yd in enumerate(year_diffs)]
        return build_graph(rows)

    def test_max_maps_to_one(self):
        g = normalize_weights(self.build([70, 20]))
        assert g.edges[(0, 100)].weight == pytest.approx(1.0)

    def test_formula_midpoint(self):
        g = normalize_weights(self.build([70, 20]))
        assert g.edges[(1, 101)].weight == pytest.approx(0.5)

    def test_filter_bounds(self):
        g = normalize_weights(self.build([-35, -30, 80, 95, 10]))
        diffs = {e.year_diff for e in g.edges.values()}
        assert diffs == {10}

    def test_weights_in_unit_interval(self, rng):
        g = normalize_weights(self.build(list(rng.integers(-29, 80, size=50))))
        weights = [e.weight for e in g.edges.values()]
        assert min(weights) > 0.0
        assert max(weights) == pytest.approx(1.0)

    def test_empty_after_filter_errors(self):
        with pytest.raises(GraphError):
            normalize_weights(self.build([-30, 80]))


class TestRemoveCycles:
    def test_dag_untouched(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        dag, removed = remove_cycles(g)
        assert removed == []
        assert len(dag.edges) == 2

    def test_two_cycle_drops_lighter_edge(self):
        g = make_graph(2, [(0, 1, 0.7), (1, 0, 0.3)])
        dag, removed = remove_cycles(g)
        assert [(e.src, e.dst) for e in removed] == [(1, 0)]
        assert (0, 1) in dag.edges

    def test_equal_weight_tiebreak_by_ids(self):
        g = make_graph(3, [(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5)])
        dag, removed = remove_cycles(g)
        assert [(e.src, e.dst) for e in removed] == [(0, 1)]
        assert is_acyclic(dag)

    def test_requires_weights(self):
        from artistnet.graph import ArtistNode, InfluenceGraph
        nodes = [ArtistNode(i, f"a{i}", "g", 1950) for i in range(2)]
        unweighted = InfluenceGraph(nodes, [InfluenceEdge(0, 1, 1, None)])
        with pytest.raises(GraphError):
            remove_cycles(unweighted)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_graphs_become_acyclic(self, seed):
        g = random_digraph(np.random.default_rng(seed))
        dag, removed = remove_cycles(g)
        assert is_acyclic(dag)
        # no removed edge outside a nontrivial SCC of the input
        import networkx as nx
        sccs = [c for c in nx.strongly_connected_components(to_nx(g)) if len(c) > 1]
        for e in removed:
            assert any(e.src in c and e.dst in c for c in sccs)

    @settings(max_examples=300, deadline=None)
    @given(weighted_digraphs())
    def test_matches_reference_decycler(self, g):
        dag, removed = remove_cycles(g)
        kept, expected = reference_remove_cycles(g)
        assert removed == expected
        assert dag.edges == kept

    @pytest.mark.parametrize("seed", [3, 4])
    def test_time_ordered_graph_matches_reference_decycler(self, seed):
        g = time_ordered_graph(seed)
        dag, removed = remove_cycles(g)
        kept, expected = reference_remove_cycles(g)
        assert removed == expected
        assert dag.edges == kept

    # One graph per outcome of the two-sided search. Each graph is one SCC
    # whose lightest edge is (0, 1); `split_after_deleting` shows what the
    # search finds when that edge goes, and the decycler must still agree
    # with the round-based reference.
    @staticmethod
    def split_after_deleting(g, u, v):
        succ = [list(row) for row in g._succ]
        pred = [list(row) for row in g._in_csr[2]]
        succ[u].remove(v)
        pred[v].remove(u)
        return graph._split_search(succ, pred, u, v, set(range(g.n_nodes)))

    def assert_matches_reference(self, g):
        dag, removed = remove_cycles(g)
        kept, expected = reference_remove_cycles(g)
        assert removed == expected
        assert dag.edges == kept
        assert is_acyclic(dag)

    def test_searches_meet(self):
        # 0 still reaches 1 through 2: the SCC carries over whole.
        g = make_graph(4, [(0, 1, 0.1), (0, 2, 0.5), (2, 1, 0.5), (1, 3, 0.5), (3, 0, 0.5)])
        assert self.split_after_deleting(g, 0, 1) is None
        self.assert_matches_reference(g)

    def test_forward_runs_out_first(self):
        # 0 has no other out-edge; the backward search from 1 still has
        # 3 and 4 to find after the forward one stops.
        g = make_graph(5, [(0, 1, 0.1), (1, 2, 0.5), (2, 1, 0.5), (2, 3, 0.5), (3, 2, 0.5),
                           (3, 4, 0.5), (4, 3, 0.3), (4, 0, 0.5)])
        assert self.split_after_deleting(g, 0, 1) == ({0}, {1, 2, 3, 4})
        self.assert_matches_reference(g)

    def test_backward_runs_out_first(self):
        # 1 has no other in-edge; the forward search from 0 still has 3
        # and 4 to find after the backward one stops, and (1, 0) is left
        # on no cycle although it is C's next-lightest edge.
        g = make_graph(5, [(0, 1, 0.1), (1, 0, 0.2), (0, 2, 0.5), (2, 3, 0.5), (3, 4, 0.3),
                           (4, 0, 0.5)])
        assert self.split_after_deleting(g, 0, 1) == ({0, 2, 3, 4}, {1})
        self.assert_matches_reference(g)

    def test_leftover_goes_through_tarjan(self):
        # 1 -> {2, 3} -> 0: the 2-cycle {2, 3} is in neither search's set.
        g = make_graph(4, [(0, 1, 0.1), (1, 2, 0.5), (2, 3, 0.5), (3, 2, 0.4), (3, 0, 0.5)])
        assert self.split_after_deleting(g, 0, 1) == ({0}, {1})
        self.assert_matches_reference(g)

    def test_deterministic(self):
        edges = [(0, 1, 0.4), (1, 2, 0.2), (2, 0, 0.9), (2, 3, 0.5), (3, 2, 0.5)]
        a = remove_cycles(make_graph(4, edges))
        b = remove_cycles(make_graph(4, edges))
        assert [(e.src, e.dst) for e in a[1]] == [(e.src, e.dst) for e in b[1]]
        assert sorted(a[0].edges) == sorted(b[0].edges)


class TestReachability:
    def test_chain(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert reachability_counts(g, 0) == (1, 1, 3)

    def test_sink(self):
        g = make_graph(2, [(0, 1)])
        assert reachability_counts(g, 1) == (0, 0, 0)

    def test_star(self):
        g = make_graph(6, [(0, i) for i in range(1, 6)])
        assert reachability_counts(g, 0) == (5, 0, 5)

    def test_unknown_id(self):
        with pytest.raises(GraphError):
            reachability_counts(make_graph(2, [(0, 1)]), 99)

    @pytest.mark.parametrize("seed", range(100))
    def test_total_matches_transitive_closure(self, seed):
        g, _ = remove_cycles(random_digraph(np.random.default_rng(1000 + seed)))
        dg = to_nx(g)
        for node in g.node_ids():
            assert reachability_counts(g, node)[2] == brute_reachable(dg, node)


@st.composite
def digraphs(draw, max_nodes=70):
    """Digraphs with cycles, isolated nodes and nodes without in-edges."""
    n = draw(st.integers(1, max_nodes))
    pairs = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
        max_size=3 * n))
    return make_graph(n, sorted(pairs))


def seeded_digraph(n, seed, p=0.05):
    """A chain through all n nodes plus random edges both ways, so that
    reach crosses every source word."""
    rng = np.random.default_rng(seed)
    pairs = {(i, i + 1) for i in range(n - 1)}
    pairs |= {(s, d) for s, d in rng.integers(0, n, size=(int(p * n * n), 2)).tolist() if s != d}
    return make_graph(n, sorted(pairs))


class TestReachTable:
    def assert_matches_reference(self, g):
        reach, dist_sum, two_hop = reach_table(g)
        for k, node in enumerate(g.node_ids()):
            dist = reference_bfs_distances(g, node)
            expected = (len(dist), sum(dist.values()), sum(1 for d in dist.values() if d <= 2))
            assert (reach[k], dist_sum[k], two_hop[k]) == expected, node

    @settings(max_examples=200, deadline=None)
    @given(digraphs())
    def test_matches_reference_bfs(self, g):
        self.assert_matches_reference(g)

    def test_cycles_isolated_nodes_and_sources(self):
        # 0 -> 1 -> 2 -> 0 is a cycle, 3 is isolated, 4 has no in-edges.
        g = make_graph(6, [(0, 1), (1, 2), (2, 0), (4, 0), (2, 5)])
        assert reach_table(g) == [[3, 3, 3, 0, 4, 0], [6, 5, 4, 0, 10, 0], [2, 3, 3, 0, 2, 0]]
        self.assert_matches_reference(g)

    def test_no_edges(self):
        assert reach_table(make_graph(3, [])) == [[0, 0, 0]] * 3
        assert reach_table(InfluenceGraph([], [])) == [[], [], []]

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_word_boundary(self, n):
        self.assert_matches_reference(seeded_digraph(n, seed=n))

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_more_nodes_than_one_chunk(self, monkeypatch, chunk):
        monkeypatch.setattr(graph, "BFS_CHUNK", chunk)
        for seed in range(3):
            self.assert_matches_reference(seeded_digraph(70, seed))

    def test_computed_once_per_graph(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert reach_table(g) is reach_table(g)


class TestCorrelation:
    def scores_for(self, g):
        return node_influence(g)

    def test_perfect_correlation(self):
        from artistnet.graph import ArtistNode, InfluenceGraph
        edges = [InfluenceEdge(0, 1, 1, 0.5), InfluenceEdge(1, 2, 2, 0.5), InfluenceEdge(2, 3, 3, 0.5)]
        g = InfluenceGraph([ArtistNode(i, f"a{i}", "g", 1950) for i in range(4)], edges)
        scores = [
            CentralityScores(node_id=e.src, lc=float(e.year_diff), sc=float(e.year_diff),
                             gc=float(e.year_diff), ni=float(e.year_diff))
            for e in edges
        ] + [CentralityScores(node_id=3, lc=0, sc=0, gc=0, ni=0)]
        result = year_diff_centrality_correlation(g, scores, mode="per_edge")
        assert result["lc"]["r"] == pytest.approx(1.0)
        assert not result["lc"]["degenerate"]

    def test_degenerate_constant_columns(self):
        g = make_graph(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)])
        scores = [CentralityScores(node_id=i, lc=1.0, sc=1.0, gc=1.0, ni=1.0) for i in range(4)]
        result = year_diff_centrality_correlation(g, scores)
        assert result["ni"] == {"r": 0.0, "degenerate": True}

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(42)
        from artistnet.graph import InfluenceGraph, ArtistNode
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


def exported(tmp_path, export, *args) -> str:
    """The exact text an artifact writer puts in its file."""
    path = tmp_path / "export.csv"
    export(path, *args)
    return path.read_bytes().decode("utf-8")


class TestExports:
    def test_exports_are_stable(self, tmp_path):
        edges = [(0, 2, 0.5), (0, 1, 0.25), (1, 2, 1.0)]
        a = make_graph(3, edges)
        b = make_graph(3, list(reversed(edges)))
        assert exported(tmp_path, export_edges_csv, a) == exported(tmp_path, export_edges_csv, b)
        assert exported(tmp_path, export_nodes_csv, a) == exported(tmp_path, export_nodes_csv, b)
        assert exported(tmp_path, export_edges_csv, a) == (
            "from,to,year_diff,weight\n0,1,1,0.25\n0,2,2,0.5\n1,2,1,1.0\n")

    def test_plain_names_are_not_quoted(self, tmp_path):
        g = make_graph(2, [(0, 1, 0.5)], genres={1: "Jazz"})
        assert exported(tmp_path, export_nodes_csv, g) == (
            "id,name,genre,active_start\n0,artist0,Pop/Rock,1950\n1,artist1,Jazz,1951\n"
        )

    def test_dot_escapes_labels(self):
        g = InfluenceGraph([ArtistNode(0, 'Weird Al "Yankovic"', "g", 1950),
                            ArtistNode(1, "back\\slash", "g", 1950)], [])
        lines = export_dot(g).splitlines()
        assert lines[1] == '  0 [label="Weird Al \\"Yankovic\\""];'
        assert lines[2] == '  1 [label="back\\\\slash"];'
