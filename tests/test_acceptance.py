"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with `pytest -s` or on failure).
"""

import json
import math
import time

import networkx as nx
import numpy as np

from conftest import make_graph, random_digraph
from oracles import (
    brute_cluster_rank,
    brute_node_influence,
    brute_out_closeness,
    brute_semi_local,
    to_nx,
)
from test_cli import STAGES, write_fixture

from artistnet import graph as graphmod
from artistnet.authrev import (
    authenticity,
    average_extreme_distance,
    elastic_net_fit,
    forest_train,
)
from artistnet.centrality import node_influence
from artistnet.cli import main
from artistnet.genre import SamplingConfig, sample_similarity
from artistnet.graph import ArtistNode, InfluenceEdge, InfluenceGraph, is_acyclic, remove_cycles
from artistnet.simvec import fit_pca, ss, standardize, ts, tss, uniqueness


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number}: {status} — {detail}")
    assert ok, detail


def rel_close(a, b, tol=1e-12):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_criterion_1_centrality_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(20_001)
    checked = 0
    for _ in range(200):
        g = random_digraph(rng)
        ours = {s.node_id: s for s in node_influence(g)}
        dg = to_nx(g)
        for i in g.node_ids():
            assert rel_close(ours[i].lc, brute_cluster_rank(dg, i))
            assert rel_close(ours[i].sc, brute_semi_local(dg, i))
            assert rel_close(ours[i].gc, brute_out_closeness(dg, i))
            assert rel_close(ours[i].ni, brute_node_influence(dg, i))
            checked += 1
    elapsed = time.time() - start
    report(1, elapsed < 10.0,
           f"4 measures x {checked} nodes over 200 random digraphs match the "
           f"brute-force oracle (rel 1e-12) in {elapsed:.2f}s")


def test_criterion_2_cycle_removal():
    start = time.time()
    rng = np.random.default_rng(20_002)
    removed_total = 0
    for _ in range(100):
        g = random_digraph(rng)
        nontrivial = [
            c for c in nx.strongly_connected_components(to_nx(g)) if len(c) > 1
        ]
        dag, removed = remove_cycles(g)
        assert is_acyclic(dag)
        assert list(nx.topological_sort(to_nx(dag)))  # raises if cyclic
        for e in removed:
            assert any(e.src in c and e.dst in c for c in nontrivial)
        removed_total += len(removed)
    elapsed = time.time() - start
    report(2, elapsed < 5.0,
           f"100 random digraphs decycled ({removed_total} edges removed, all "
           f"inside input SCCs), topological order verified, in {elapsed:.2f}s")


def test_criterion_3_tss_identity_symmetry():
    rng = np.random.default_rng(20_003)
    for _ in range(1000):
        a = rng.normal(size=9)
        b = rng.normal(size=9)
        assert tss(a, a).tss == 0.0
        assert tss(a, b).tss == tss(b, a).tss
    ts_val, _theta = ts(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    ss_val = ss(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    ok = (
        abs(ts_val - math.sin(math.radians(100.0)) / 2.0) <= 1e-9
        and abs(ss_val - math.pi * 2.0 * (100.0 / 360.0)) <= 1e-9
    )
    report(3, ok,
           "TSS(a,a)=0 and exact symmetry over 1000 random 9-D pairs; "
           "orthogonal-pair TS/SS hand values match to 1e-9")


def test_criterion_4_uniqueness_ordering():
    start = time.time()
    rng = np.random.default_rng(0)
    X = rng.normal(size=(500, 9))
    u_tss = uniqueness(X, "tss")
    u_euc = uniqueness(X, "euclidean")
    u_cos = uniqueness(X, "cosine")
    elapsed = time.time() - start
    ok = u_tss >= u_euc >= u_cos and elapsed < 30.0
    report(4, ok,
           f"500 vectors (124,750 pairs): TSS {u_tss:.4f} >= Euclidean "
           f"{u_euc:.4f} >= cosine {u_cos:.4f} in {elapsed:.2f}s")


def test_criterion_5_pca_properties():
    rng = np.random.default_rng(20_005)
    X = rng.normal(size=(300, 7))
    model = fit_pca(standardize(X).vectors, 7)
    gram = model.components @ model.components.T
    orthonormal = np.max(np.abs(gram - np.eye(7))) <= 1e-9
    Z = standardize(X).vectors
    total_var = np.trace((Z - Z.mean(axis=0)).T @ (Z - Z.mean(axis=0)) / len(Z))
    var_ok = abs(model.explained_variance.sum() - total_var) <= 1e-6

    t = rng.normal(size=400)
    planted = np.column_stack([t, t]) + rng.normal(scale=0.05, size=(400, 2))
    first = fit_pca(planted, 1).components[0]
    target = np.array([1.0, 1.0]) / math.sqrt(2.0)
    cosine = abs(float(first @ target))
    report(5, orthonormal and var_ok and cosine >= 0.999,
           f"components orthonormal (1e-9), variance sum matches (1e-6), "
           f"planted-direction cosine {cosine:.6f}")


def test_criterion_6_genre_verdict():
    start = time.time()
    rng = np.random.default_rng(20_006)
    profiles, genres = {}, {}
    nid = 0
    for gi in range(5):
        center = np.zeros(9)
        center[gi] = 20.0  # 20 sigma from every other center
        for _ in range(50):
            profiles[nid] = center + rng.normal(scale=1.0, size=9)
            genres[nid] = f"genre{gi}"
            nid += 1
    rep = sample_similarity(profiles, genres, SamplingConfig(2500, 20, seed=42))
    elapsed = time.time() - start
    ok = rep.runs_within_stronger == 20 and rep.within_stronger and elapsed < 60.0
    report(6, ok,
           f"within-genre more similar in {rep.runs_within_stronger}/20 runs "
           f"(5 genres x 50 artists, centers >= 10 sigma apart) in {elapsed:.1f}s")


def test_criterion_7_authenticity():
    exact = (
        average_extreme_distance([0.0, 1.0]) == 1.0
        and average_extreme_distance([0.3, 0.3, 0.3]) == 0.0
        and abs(average_extreme_distance([0.0, 0.0, 1.0]) - 2.0 / 3.0) <= 1e-15
    )

    # Synthetic network: each follower has one influencer with an identical
    # profile (similarity maps to the near end) and two sharing a distant
    # profile (mapping to the far end) -> polarized similarity profile.
    nodes, edges, profiles = [], [], {}
    rng = np.random.default_rng(20_007)
    for f in range(40):
        fid, i1, i2, i3 = 4 * f, 4 * f + 1, 4 * f + 2, 4 * f + 3
        base = rng.normal(size=9)
        far = base + 50.0
        for nid in (fid, i1, i2, i3):
            nodes.append(ArtistNode(id=nid, name=f"n{nid}", genre="g", active_start=1970))
        for src in (i1, i2, i3):
            edges.append(InfluenceEdge(src=src, dst=fid, year_diff=5, weight=0.5))
        profiles[fid] = base.copy()
        profiles[i1] = base.copy()
        profiles[i2] = far.copy()
        profiles[i3] = far.copy()
    g = InfluenceGraph(nodes, edges)
    scores, summary = authenticity(g, profiles, alpha=0.8, mode="unbounded")
    fraction = summary.fraction_extreme
    report(7, exact and summary.eligible == 40 and fraction >= 0.95,
           f"AD hand values exact; {fraction:.0%} of {summary.eligible} "
           f"eligible nodes flagged extreme at alpha=0.8")


def test_criterion_8_elastic_net():
    rng = np.random.default_rng(20_008)
    X = rng.normal(size=(60, 4))
    y = 2.0 + X @ np.array([1.0, -0.5, 0.0, 2.0]) + rng.normal(scale=0.05, size=60)
    fit0 = elastic_net_fit(X, y, lam=0.0)
    coef_ols, *_ = np.linalg.lstsq(np.column_stack([np.ones(60), X]), y, rcond=None)
    ols_ok = (
        abs(fit0.intercept - coef_ols[0]) <= 1e-6
        and np.max(np.abs(fit0.coefficients - coef_ols[1:])) <= 1e-6
    )

    fit_pen = elastic_net_fit(X, y, lam=2.0, alpha_mix=0.5)
    h = fit_pen.objective_history
    monotone = all(h[i + 1] <= h[i] + 1e-12 for i in range(len(h) - 1))

    rng0 = np.random.default_rng(0)
    Xs = rng0.normal(size=(200, 8))
    beta = np.zeros(8)
    beta[2] = 2.0
    ys = Xs @ beta + rng0.normal(scale=0.1, size=200)
    sparse = elastic_net_fit(Xs, ys, lam=5.0, alpha_mix=0.9)
    planted_ok = (
        1.8 <= sparse.coefficients[2] <= 2.0
        and np.all(np.abs(np.delete(sparse.coefficients, 2)) < 0.05)
    )
    report(8, ols_ok and monotone and planted_ok,
           "lambda=0 matches OLS to 1e-6; objective non-increasing per sweep; "
           f"planted coefficient recovered at {sparse.coefficients[2]:.3f}")


def test_criterion_9_random_forest():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(400, 6))
    y = np.where(X[:, 2] > 0.0, "pos", "neg")
    model = forest_train(X, y, trees=200, max_depth=8, split=(0.5, 0.25, 0.25), seed=0)
    imp = model.feature_importances
    ok = (
        model.test_accuracy >= 0.95
        and imp[2] > 0.8
        and abs(imp.sum() - 1.0) <= 1e-9
    )
    report(9, ok,
           f"test accuracy {model.test_accuracy:.3f}, informative-feature "
           f"importance {imp[2]:.3f}, importances sum to 1")


def _snapshot(out):
    return {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}


def _strip_timestamps(raw):
    manifest = json.loads(raw)
    for stage in manifest.get("stages", {}).values():
        stage.pop("timestamp", None)
    return manifest


def test_criterion_10_determinism(tmp_path):
    cfg_path = write_fixture(tmp_path)
    out = tmp_path / "out"
    for threads in (["--threads", "1"], []):
        for stage in STAGES:
            assert main(stage + ["--config", str(cfg_path)] + threads) == 0
        first = _snapshot(out)
        for stage in STAGES:
            assert main(stage + ["--config", str(cfg_path)] + threads) == 0
        second = _snapshot(out)
        assert first.keys() == second.keys()
        for name in first:
            if name == "manifest.json":
                assert _strip_timestamps(first[name]) == _strip_timestamps(second[name])
            else:
                assert first[name] == second[name], name
    report(10, True,
           "all 8 stages rerun byte-identical (manifest identical modulo "
           "timestamps) at --threads 1 and at the default")
