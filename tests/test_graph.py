import json
import sys

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_rows, make_graph, random_digraph
from oracles import (brute_reachable, brute_second_order, edges_of, rank, reference_bfs_distances,
                     reference_graph_build, reference_load_influence, reference_rank_suffix_decycle,
                     reference_remove_cycles, to_nx)

from artistnet import cli, graph, ingest
from artistnet.centrality import node_influence
from artistnet.graph import (
    ArtistNode,
    GraphError,
    InfluenceEdge,
    InfluenceGraph,
    export_dot,
    is_acyclic,
    reach_table,
    remove_cycles,
)


def raw_row(i, iy, f, fy, genre="Pop/Rock"):
    """An influence row: influencer i, active from iy, and follower f, from fy."""
    return (i, f"n{i}", genre, iy, f, f"n{f}", genre, fy)


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
    return graph_from_rows(rows)


class TestBuildGraph:
    def test_shared_influencer_counts(self):
        g = graph_from_rows([raw_row(1, 1950, 2, 1970), raw_row(1, 1950, 3, 1980)])
        assert g.n_nodes == 3
        assert g.n_edges == 2

    def test_year_diff(self):
        g = graph_from_rows([raw_row(1, 1960, 2, 1980)])
        assert edges_of(g)[(1, 2)].year_diff == 20

    def test_self_loop_dropped(self):
        g = graph_from_rows([raw_row(1, 1950, 1, 1950), raw_row(1, 1950, 2, 1960)])
        assert list(edges_of(g)) == [(1, 2)]
        assert g.self_loops_dropped == 1

    def test_only_self_loops_errors(self):
        with pytest.raises(GraphError, match="no edges remain"):
            graph_from_rows([raw_row(1, 1950, 1, 1950)])


class TestNormalizeWeights:
    def build(self, year_diffs):
        rows = [raw_row(i, 1950, 100 + i, 1950 + yd) for i, yd in enumerate(year_diffs)]
        return graph_from_rows(rows)

    def test_max_maps_to_one(self):
        g = self.build([70, 20])
        assert edges_of(g)[(0, 100)].weight == pytest.approx(1.0)

    def test_formula_midpoint(self):
        g = self.build([70, 20])
        assert edges_of(g)[(1, 101)].weight == pytest.approx(0.5)

    def test_filter_bounds(self):
        g = self.build([-35, -30, 80, 95, 10])
        assert g.year_window_dropped == 4
        diffs = {e.year_diff for e in edges_of(g).values()}
        assert diffs == {10}

    def test_weights_in_unit_interval(self, rng):
        g = self.build(list(rng.integers(-29, 80, size=50)))
        weights = [e.weight for e in edges_of(g).values()]
        assert min(weights) > 0.0
        assert max(weights) == pytest.approx(1.0)

    def test_empty_after_filter_errors(self):
        with pytest.raises(GraphError):
            self.build([-30, 80])


def first_bad_edge(node_ids, pairs):
    """What a loop over the edges in input order finds first: a self-loop,
    an edge to an unknown node or a repeated edge; None if none."""
    seen = set()
    for s, d in pairs:
        if s == d:
            return f"self-loop edge {s}"
        if s not in node_ids or d not in node_ids:
            return f"edge ({s}, {d}) references unknown node"
        if (s, d) in seen:
            return f"duplicate edge ({s}, {d})"
        seen.add((s, d))
    return None


class TestValidation:
    nodes = [ArtistNode(i, f"a{i}", "g", 1950) for i in (1, 3, 5)]

    @pytest.mark.parametrize("pairs, message", [
        ([(1, 3), (5, 5)], "self-loop edge 5"),
        ([(1, 3), (3, 4)], "edge (3, 4) references unknown node"),
        ([(1, 3), (3, 5), (1, 3)], "duplicate edge (1, 3)"),
        # the first offending edge in input order, whatever its kind
        ([(3, 5), (3, 5), (0, 1), (1, 1)], "duplicate edge (3, 5)"),
        ([(6, 1), (3, 5), (3, 5), (1, 1)], "edge (6, 1) references unknown node"),
        ([(5, 3), (4, 3), (5, 3)], "edge (4, 3) references unknown node"),  # 4 sorts next to 5
        ([(4, 3), (5, 3)], "edge (4, 3) references unknown node"),
    ])
    def test_names_the_first_offending_edge(self, pairs, message):
        with pytest.raises(GraphError) as err:
            InfluenceGraph(self.nodes, [InfluenceEdge(s, d, d - s, 0.5) for s, d in pairs])
        assert str(err.value) == message

    @pytest.mark.parametrize("records", [True, False], ids=["records", "arrays"])
    def test_names_the_first_repeated_node_id(self, records):
        nodes = self.nodes + [ArtistNode(3, "other", "h", 1960), ArtistNode(1, "a1", "g", 1950)]
        with pytest.raises(GraphError) as err:
            if records:
                InfluenceGraph(nodes, [InfluenceEdge(1, 3, 2, 0.5)])
            else:
                InfluenceGraph.from_arrays(nodes, [1], [3], [2], [0.5])
        assert str(err.value) == "duplicate node id 3"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=10))
    def test_matches_a_loop_over_the_edges(self, pairs):
        src, dst = (np.array([p[k] for p in pairs], np.int64) for k in (0, 1))
        expected = first_bad_edge({1, 3, 5}, pairs)
        try:
            g = InfluenceGraph.from_arrays(self.nodes, src, dst, dst - src, np.full(len(pairs), 0.5))
        except GraphError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert list(edges_of(g)) == sorted(pairs)


def random_influence_rows(seed):
    """A seeded influence table with self-influence rows, repeated pairs,
    names holding commas and quotes, year differences past both ends of the
    window, and cycles."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    starts = rng.integers(1900, 2011, size=n).tolist()
    names = [f'Artist "{i}", Jr.' if i % 4 == 0 else f"a{i}" for i in range(n)]
    genres = ["Jazz", "Pop/Rock", "Folk, Country"]
    rows = []
    for _ in range(int(rng.integers(1, 4 * n))):
        i, f = rng.integers(0, n, size=2).tolist()
        f = i if rng.random() < 0.1 else f
        rows.append([i + 10, names[i], genres[i % 3], starts[i], f + 10, names[f], genres[f % 3], starts[f]])
    return rows


def test_graph_build_matches_the_record_pipeline(tmp_path):
    """`artistnet graph build` on a raw influence table writes the same
    bytes as the record-based load, build, normalize and round-based
    decycling pipeline."""
    seen = set()
    for seed in range(60):
        table, out, ref = tmp_path / f"influence{seed}.csv", tmp_path / f"out{seed}", tmp_path / f"ref{seed}"
        ref.mkdir()
        ingest.write_table(table, ingest.INFLUENCE_COLUMNS, random_influence_rows(seed))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"influence_csv": str(table), "songs_csv": "-", "out_dir": str(out)}))
        code = cli.main(["graph", "build", "--config", str(config)])
        try:
            reference_graph_build(reference_load_influence(table), ref)
        except GraphError:
            assert code == 3, seed
            seen.add("no edges")
            continue
        assert code == 0, seed
        for name in ("nodes.csv", "edges.csv", "removed_edges.csv", "graph.dot", "graph_summary.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), (seed, name)
        summary = json.loads((ref / "graph_summary.json").read_text())
        seen |= {key for key in ("self_loops_dropped", "edges_dropped_year_window",
                                 "edges_removed_in_decycle") if summary[key]}
    assert seen == {"no edges", "self_loops_dropped", "edges_dropped_year_window",
                    "edges_removed_in_decycle"}


class TestRemoveCycles:
    def test_dag_untouched(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        dag, removed = remove_cycles(g)
        assert removed == []
        assert dag.n_edges == 2

    def test_two_cycle_drops_lighter_edge(self):
        g = make_graph(2, [(0, 1, 0.7), (1, 0, 0.3)])
        dag, removed = remove_cycles(g)
        assert [(e.src, e.dst) for e in removed] == [(1, 0)]
        assert (0, 1) in edges_of(dag)

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
        sccs = [c for c in nx.strongly_connected_components(to_nx(g)) if len(c) > 1]
        for e in removed:
            assert any(e.src in c and e.dst in c for c in sccs)

    @settings(max_examples=300, deadline=None)
    @given(weighted_digraphs())
    def test_removes_exactly_what_the_rule_says(self, g):
        _, removed = remove_cycles(g)
        assert removed == reference_rank_suffix_decycle(g)

    @settings(max_examples=300, deadline=None)
    @given(weighted_digraphs())
    def test_matches_reference_decycler(self, g):
        self.assert_matches_reference(g)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_time_ordered_graph_matches_reference_decycler(self, seed):
        self.assert_matches_reference(time_ordered_graph(seed))

    def assert_matches_reference(self, g):
        """The round-based reference removes the same edges, listed here in
        ascending rank, and keeps the same DAG."""
        dag, removed = remove_cycles(g)
        kept, expected = reference_remove_cycles(g)
        assert removed == sorted(expected, key=rank)
        assert edges_of(dag) == kept
        assert is_acyclic(dag)

    # Each of the next four graphs is one SCC whose lightest edge is (0, 1),
    # and deleting that edge leaves a different remainder: still one SCC,
    # or u's side, v's side and what lies on neither.

    def test_searches_meet(self):
        # 0 still reaches 1 through 2: the SCC stays whole.
        g = make_graph(4, [(0, 1, 0.1), (0, 2, 0.5), (2, 1, 0.5), (1, 3, 0.5), (3, 0, 0.5)])
        self.assert_matches_reference(g)

    def test_forward_runs_out_first(self):
        # 0 has no other out-edge: 0 alone, {1, 2, 3, 4} still an SCC.
        g = make_graph(5, [(0, 1, 0.1), (1, 2, 0.5), (2, 1, 0.5), (2, 3, 0.5), (3, 2, 0.5),
                           (3, 4, 0.5), (4, 3, 0.3), (4, 0, 0.5)])
        self.assert_matches_reference(g)

    def test_backward_runs_out_first(self):
        # 1 has no other in-edge: 1 alone, {0, 2, 3, 4} still an SCC, and
        # (1, 0) is left on no cycle although it is the next-lightest edge.
        g = make_graph(5, [(0, 1, 0.1), (1, 0, 0.2), (0, 2, 0.5), (2, 3, 0.5), (3, 4, 0.3),
                           (4, 0, 0.5)])
        self.assert_matches_reference(g)

    def test_leftover_goes_through_tarjan(self):
        # 1 -> {2, 3} -> 0: the 2-cycle {2, 3} is on neither 0's side nor 1's.
        g = make_graph(4, [(0, 1, 0.1), (1, 2, 0.5), (2, 3, 0.5), (3, 2, 0.4), (3, 0, 0.5)])
        self.assert_matches_reference(g)

    def test_cycle_through_a_heavier_scc(self):
        # Heaviest first, {4, 5} and {1, 2} form in the first half of the
        # insertion times; 0 -> 1, 2 -> 3 -> 0 closes a cycle only through
        # {1, 2}, so the later half sees it only with 1 and 2 contracted.
        g = make_graph(6, [(4, 5, 0.9), (5, 4, 0.9), (1, 2, 0.9), (2, 1, 0.9), (0, 1, 0.5),
                           (2, 3, 0.5), (3, 0, 0.4), (0, 3, 0.1)])
        _, removed = remove_cycles(g)
        assert [(e.src, e.dst) for e in removed] == [(0, 3), (3, 0), (1, 2), (4, 5)]
        assert removed == reference_rank_suffix_decycle(g)
        self.assert_matches_reference(g)

    def test_deterministic(self):
        edges = [(0, 1, 0.4), (1, 2, 0.2), (2, 0, 0.9), (2, 3, 0.5), (3, 2, 0.5)]
        a = remove_cycles(make_graph(4, edges))
        b = remove_cycles(make_graph(4, edges))
        assert [(e.src, e.dst) for e in a[1]] == [(e.src, e.dst) for e in b[1]]
        assert edges_of(a[0]) == edges_of(b[0])


def reach_of(g) -> dict:
    """{id: (first_order, second_order, total_reach)} off the records of
    `node_influence`."""
    return {s.node_id: (s.first_order, s.second_order, s.total_reach) for s in node_influence(g)}


class TestReachability:
    def test_chain(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert reach_of(g)[0] == (1, 1, 3)

    def test_sink(self):
        g = make_graph(2, [(0, 1)])
        assert reach_of(g)[1] == (0, 0, 0)

    def test_star(self):
        g = make_graph(6, [(0, i) for i in range(1, 6)])
        assert reach_of(g)[0] == (5, 0, 5)

    @pytest.mark.parametrize("seed", range(100))
    def test_total_matches_transitive_closure(self, seed):
        g, _ = remove_cycles(random_digraph(np.random.default_rng(1000 + seed)))
        dg = to_nx(g)
        for node, (first, second, total) in reach_of(g).items():
            assert (first, second, total) == (
                dg.out_degree(node), brute_second_order(dg, node), brute_reachable(dg, node)), node


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


def scc_groups(g) -> set[frozenset]:
    """The node ids of each SCC that `_tarjan_scc` numbers over the graph's CSR arrays."""
    groups = {}
    for i, c in zip(g.node_ids(), graph._tarjan_scc(g.indptr.tolist(), g.indices.tolist())):
        groups.setdefault(c, set()).add(i)
    return {frozenset(c) for c in groups.values()}


class TestTarjanScc:
    def assert_matches_networkx(self, g):
        dg = to_nx(g)
        assert scc_groups(g) == {frozenset(c) for c in nx.strongly_connected_components(dg)}
        assert is_acyclic(g) == nx.is_directed_acyclic_graph(dg)

    @settings(max_examples=200, deadline=None)
    @given(digraphs())
    def test_matches_networkx(self, g):
        self.assert_matches_networkx(g)

    def test_isolated_node_sink_and_cycles(self):
        # 0 is isolated, 1 <-> 2 is a 2-cycle, 3 -> 4 -> 5 -> 3 a 3-cycle, 6 a sink.
        g = make_graph(7, [(1, 2), (2, 1), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)])
        assert scc_groups(g) == {frozenset({0}), frozenset({1, 2}), frozenset({3, 4, 5}), frozenset({6})}
        self.assert_matches_networkx(g)

    # The walk keeps its own stack, so depth far past the recursion limit is fine.

    def test_long_cycle_is_one_component(self):
        n = 50_000
        assert sys.getrecursionlimit() < n
        assert set(graph._tarjan_scc(list(range(n + 1)), list(range(1, n)) + [0])) == {0}

    def test_long_path_is_all_singletons(self):
        n = 50_000
        assert sys.getrecursionlimit() < n
        comp = graph._tarjan_scc(list(range(n)) + [n - 1], list(range(1, n)))
        assert len(set(comp)) == n


def exported(tmp_path, g) -> dict[str, str]:
    """The exact text of nodes.csv and edges.csv as `graph build` writes them for `g`."""
    cli.write_artifacts(tmp_path, cli.graph_tables(g))
    return {name: (tmp_path / name).read_bytes().decode("utf-8") for name in ("nodes.csv", "edges.csv")}


class TestExports:
    def test_exports_are_stable(self, tmp_path):
        edges = [(0, 2, 0.5), (0, 1, 0.25), (1, 2, 1.0)]
        a = make_graph(3, edges)
        b = make_graph(3, list(reversed(edges)))
        assert exported(tmp_path, a) == exported(tmp_path, b)
        assert exported(tmp_path, a)["edges.csv"] == (
            "from,to,year_diff,weight\n0,1,1,0.25\n0,2,2,0.5\n1,2,1,1.0\n")

    def test_plain_names_are_not_quoted(self, tmp_path):
        g = make_graph(2, [(0, 1, 0.5)], genres={1: "Jazz"})
        assert exported(tmp_path, g)["nodes.csv"] == (
            "id,name,genre,active_start\n0,artist0,Pop/Rock,1950\n1,artist1,Jazz,1951\n"
        )

    def test_dot_escapes_labels(self):
        g = InfluenceGraph([ArtistNode(0, 'Weird Al "Yankovic"', "g", 1950),
                            ArtistNode(1, "back\\slash", "g", 1950)], [])
        lines = export_dot(g).splitlines()
        assert lines[1] == '  0 [label="Weird Al \\"Yankovic\\""];'
        assert lines[2] == '  1 [label="back\\\\slash"];'
