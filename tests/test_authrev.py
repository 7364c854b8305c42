import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_graph
from oracles import reference_authenticity, reference_average_extreme_distance, reference_forest_train

from artistnet.authrev import (
    AuthRevError,
    authenticity,
    average_extreme_distance,
    elastic_net_fit,
    elastic_net_grid,
    elastic_net_objective,
    forest_train,
    label_revolutionaries,
    periphery_score,
    semantic_match,
)
from artistnet.centrality import CentralityScores
from artistnet.ingest import json_text


class TestAverageExtremeDistance:
    def test_polarized_pair_is_one(self):
        assert average_extreme_distance([0.0, 1.0]) == 1.0

    def test_constant_is_zero(self):
        assert average_extreme_distance([0.4, 0.4, 0.4]) == 0.0

    def test_three_values_hand(self):
        # pairs |0-0| + |0-1| + |0-1| = 2 over n(n-1)/2 = 3 pairs
        assert average_extreme_distance([0.0, 0.0, 1.0]) == pytest.approx(2 / 3)

    def test_unbounded_coefficient(self):
        # same sum, coefficient 2/(n(n-2)) = 2/3
        assert average_extreme_distance([0.0, 0.0, 1.0], mode="unbounded") == pytest.approx(2 * 2 / 3)

    def test_unbounded_mode_needs_three(self):
        with pytest.raises(AuthRevError):
            average_extreme_distance([0.0, 1.0], mode="unbounded")

    def test_needs_two(self):
        with pytest.raises(AuthRevError):
            average_extreme_distance([0.5])

    def test_pair_mean_bounded(self, rng):
        for _ in range(30):
            vals = rng.random(size=rng.integers(2, 8)).tolist()
            assert 0.0 <= average_extreme_distance(vals) <= 1.0

    def test_unknown_mode(self):
        with pytest.raises(AuthRevError):
            average_extreme_distance([0.0, 1.0], mode="median")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=60),
           st.sampled_from(["pair_mean", "unbounded"]))
    def test_matches_pairwise_loop_bitwise(self, vals, mode):
        assert average_extreme_distance(vals, mode) == reference_average_extreme_distance(vals, mode)


class TestAuthenticity:
    def test_two_influencer_follower(self):
        g = make_graph(3, [(0, 2, 0.5), (1, 2, 0.5)])
        profiles = {
            0: np.array([1.0, 0.0]),
            1: np.array([0.0, 5.0]),
            2: np.array([1.0, 0.1]),
        }
        scores, summary = authenticity(g, profiles)
        assert summary.eligible == 1
        (s,) = scores
        assert s.node_id == 2
        # min-max of two distinct values is always {0, 1} -> ad 1, extreme
        assert sorted(s.in_similarities) == [0.0, 1.0]
        assert s.ad == 1.0
        assert s.extreme

    def test_identical_similarities_map_to_zero(self):
        g = make_graph(3, [(0, 2, 0.5), (1, 2, 0.5)])
        v = np.array([2.0, 3.0])
        profiles = {0: v.copy(), 1: v.copy(), 2: np.array([1.0, 1.0])}
        scores, _ = authenticity(g, profiles)
        assert scores[0].in_similarities == [0.0, 0.0]
        assert scores[0].ad == 0.0
        assert not scores[0].extreme

    def test_single_influencer_excluded(self):
        g = make_graph(2, [(0, 1, 0.5)])
        profiles = {0: np.ones(2), 1: np.zeros(2)}
        scores, summary = authenticity(g, profiles)
        assert scores == []
        assert summary.excluded_few_inputs == 1
        assert summary.fraction_extreme == 0.0

    def test_unprofiled_influencer_ignored(self):
        g = make_graph(4, [(0, 3, 0.5), (1, 3, 0.5), (2, 3, 0.5)])
        profiles = {0: np.ones(2), 1: np.full(2, 2.0), 3: np.zeros(2)}
        scores, _ = authenticity(g, profiles)
        assert len(scores[0].in_similarities) == 2

    def test_alpha_threshold(self):
        g = make_graph(3, [(0, 2, 0.5), (1, 2, 0.5)])
        profiles = {0: np.ones(2), 1: np.full(2, 3.0), 2: np.zeros(2)}
        lenient, _ = authenticity(g, profiles, alpha=0.5)
        strict, _ = authenticity(g, profiles, alpha=1.0)
        assert lenient[0].ad == strict[0].ad
        assert lenient[0].extreme == (lenient[0].ad >= 0.5)
        assert strict[0].extreme == (strict[0].ad >= 1.0)

    def test_unbounded_mode_with_a_two_influencer_follower_raises(self):
        g = make_graph(5, [(0, 2), (1, 2), (0, 4), (1, 4), (3, 4)])
        profiles = {i: np.array([1.0, i]) for i in range(5)}
        with pytest.raises(AuthRevError, match="^unbounded mode needs n >= 3$"):
            authenticity(g, profiles, mode="unbounded")


# Profiles drawn from a small pool make tied similarities and zero vectors common.
PROFILE_POOL = [np.zeros(3), np.array([1.0, 2.0, 0.5]), np.array([2.0, 4.0, 1.0]),
                np.array([-1.0, 0.3, 2.0])]


@st.composite
def authenticity_cases(draw):
    """(graph, profiles): a small random graph whose node 0 may also have
    2, 160 or 200 extra influencers (most of them profiled, so more than
    128, numpy's pairwise-sum block); each node is unprofiled, takes a pool
    profile or a random one."""
    n = draw(st.integers(2, 9))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, unique=True, max_size=3 * n))
    hub = draw(st.sampled_from([0, 2, 160, 200]))
    edges += [(k, 0) for k in range(n, n + hub)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.integers(-1, len(PROFILE_POOL)), min_size=n, max_size=n))
    kinds += rng.integers(-1, len(PROFILE_POOL) + 1, size=hub).tolist()
    profiles = {i: PROFILE_POOL[k] if k < len(PROFILE_POOL) else rng.normal(size=3)
                for i, k in enumerate(kinds) if k >= 0}
    return make_graph(n + hub, edges), profiles


def outcome(fn, *args):
    """What `fn` returns, with every float as its bytes, or the AuthRevError
    message it raises."""
    try:
        scores, summary = fn(*args)
    except AuthRevError as exc:
        return str(exc)
    bits = lambda v: (type(v), np.float64(v).tobytes())
    return ([(s.node_id, bits(s.ad), bits(s.stdev), s.extreme, [bits(v) for v in s.in_similarities])
             for s in scores],
            {k: bits(v) if isinstance(v, float) else v for k, v in summary.__dict__.items()})


class TestAuthenticityMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(case=authenticity_cases(), alpha=st.sampled_from([0.3, 0.8, 1.5]),
           mode=st.sampled_from(["pair_mean", "unbounded"]))
    def test_bitwise(self, case, alpha, mode):
        g, profiles = case
        assert outcome(authenticity, g, profiles, alpha, mode) == outcome(
            reference_authenticity, g, profiles, alpha, mode)

    def test_follower_blocks(self):
        """Followers of 40 and of 41 influencers, interleaved by id: each
        count's followers span several blocks (84 and 79 followers a block)."""
        rng = np.random.default_rng(8)
        edges = [(int(s), 60 + f) for f in range(300) for s in rng.choice(60, 40 + f % 2, replace=False)]
        g = make_graph(360, edges)
        profiles = {i: rng.normal(size=9) for i in range(360)}
        assert outcome(authenticity, g, profiles, 0.8, "pair_mean") == outcome(
            reference_authenticity, g, profiles, 0.8, "pair_mean")

    def test_working_memory_is_bounded(self):
        # 1,000 followers of 40 influencers: scoring the 40,000 pairs at once
        # takes 12 MiB; a block of 84 followers, 3,360 pairs, far less.
        rng = np.random.default_rng(9)
        g = make_graph(1060, [(int(s), 60 + f) for f in range(1000) for s in rng.choice(60, 40, replace=False)])
        profiles = {i: rng.normal(size=9) for i in range(1060)}
        tracemalloc.start()
        try:
            authenticity(g, profiles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestElasticNet:
    def test_lambda_zero_matches_ols(self, rng):
        X = rng.normal(size=(50, 3))
        beta_true = np.array([2.0, -1.0, 0.5])
        y = 3.0 + X @ beta_true + rng.normal(scale=0.01, size=50)
        fit = elastic_net_fit(X, y, lam=0.0)
        Xc = np.column_stack([np.ones(50), X])
        ols, *_ = np.linalg.lstsq(Xc, y, rcond=None)
        assert fit.intercept == pytest.approx(ols[0], abs=1e-6)
        assert np.allclose(fit.coefficients, ols[1:], atol=1e-6)

    def test_huge_lambda_zeroes_coefficients(self, rng):
        X = rng.normal(size=(40, 4))
        y = X @ np.array([1.0, 2.0, -1.0, 0.5])
        fit = elastic_net_fit(X, y, lam=1e6, alpha_mix=1.0)
        assert np.all(fit.coefficients == 0.0)
        assert fit.intercept == pytest.approx(np.mean(y))

    def test_objective_monotone_nonincreasing(self, rng):
        X = rng.normal(size=(60, 5))
        y = X @ rng.normal(size=5) + rng.normal(size=60)
        fit = elastic_net_fit(X, y, lam=0.5, alpha_mix=0.5)
        h = fit.objective_history
        assert all(h[i + 1] <= h[i] + 1e-12 for i in range(len(h) - 1))

    def test_planted_sparse_recovery(self):
        rng = np.random.default_rng(0)
        n, d = 200, 8
        X = rng.normal(size=(n, d))
        beta = np.zeros(d)
        beta[2] = 2.0
        y = X @ beta + rng.normal(scale=0.1, size=n)
        fit = elastic_net_fit(X, y, lam=5.0, alpha_mix=0.9)
        assert 1.8 <= fit.coefficients[2] <= 2.0
        others = np.delete(fit.coefficients, 2)
        assert np.all(np.abs(others) < 0.05)

    def test_l1_norm_shrinks_with_lambda(self, rng):
        X = rng.normal(size=(80, 4))
        y = X @ np.array([1.5, -2.0, 0.0, 1.0]) + rng.normal(scale=0.2, size=80)
        norms = [
            np.sum(np.abs(elastic_net_fit(X, y, lam).coefficients))
            for lam in (0.0, 1.0, 10.0, 100.0)
        ]
        assert all(norms[i + 1] <= norms[i] + 1e-9 for i in range(3))

    def test_objective_function_agrees(self, rng):
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        fit = elastic_net_fit(X, y, lam=0.7, alpha_mix=0.3)
        recomputed = elastic_net_objective(
            X, y, fit.intercept, fit.coefficients, 0.7, 0.3
        )
        assert recomputed == pytest.approx(fit.objective_history[-1])

    def test_rejects_bad_inputs(self):
        X = np.ones((4, 2))
        y = np.ones(4)
        with pytest.raises(AuthRevError):
            elastic_net_fit(X, y, lam=-1.0)
        with pytest.raises(AuthRevError):
            elastic_net_fit(X, y, lam=1.0, alpha_mix=2.0)
        with pytest.raises(AuthRevError):
            elastic_net_fit(np.array([[np.nan, 1.0]]), np.array([1.0]), lam=0.0)

    def test_grid_prefers_informative_lambda(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 4))
        y = X @ np.array([2.0, 0.0, 0.0, -1.0]) + rng.normal(scale=0.1, size=100)
        fit = elastic_net_grid(X, y, [0.001, 0.01, 0.1, 1.0, 1000.0])
        assert fit.lam < 1000.0
        assert abs(fit.coefficients[0] - 2.0) < 0.2


class TestPeriphery:
    def test_all_same_genre(self):
        g = make_graph(3, [(0, 1, 0.5), (0, 2, 0.5)], {0: "a", 1: "a", 2: "a"})
        assert periphery_score(g, 0) == 0.0

    def test_mixed(self):
        g = make_graph(3, [(0, 1, 0.5), (0, 2, 0.5)], {0: "a", 1: "a", 2: "b"})
        assert periphery_score(g, 0) == 0.5

    def test_sink_is_zero(self):
        g = make_graph(2, [(0, 1, 0.5)], {0: "a", 1: "b"})
        assert periphery_score(g, 1) == 0.0


class TestSemanticMatch:
    def test_case_and_whitespace_insensitive(self):
        bios = {1: "A true PIONEER of\nthe form.", 2: "plain biography"}
        flagged, missing = semantic_match(["pioneer of the form"], bios)
        assert flagged == {1}
        assert missing == set()

    def test_missing_bios_reported(self):
        bios = {1: "", 2: "   ", 3: "innovator"}
        flagged, missing = semantic_match(["innovator"], bios, node_ids=[1, 2, 3, 4])
        assert flagged == {3}
        assert missing == {1, 2, 4}

    def test_empty_phrases_error(self):
        with pytest.raises(AuthRevError):
            semantic_match([], {1: "text"})


def ni_scores(values):
    return [
        CentralityScores(node_id=i, lc=0, sc=0, gc=0, ni=v, rank_ni=0)
        for i, v in enumerate(values)
    ]


class TestLabelRevolutionaries:
    def test_partition_and_deciles(self):
        scores = ni_scores([float(20 - i) for i in range(20)])
        periphery = {0: 1.0, 1: 0.0}
        labels = label_revolutionaries(scores, periphery, keyword_ids={2})
        by_id = {l.node_id: l for l in labels}
        assert len(labels) == 20
        # top quintile = positions 0..3; bottom decile = positions 18, 19
        assert by_id[0].label == "major" and by_id[0].evidence == ("periphery",)
        assert by_id[1].label == "unlabeled"
        assert by_id[2].label == "major" and by_id[2].evidence == ("keyword",)
        assert by_id[3].label == "unlabeled"
        assert by_id[4].label == "unlabeled"
        assert by_id[18].label == "non_major"
        assert by_id[19].label == "non_major"

    def test_both_evidence_kinds(self):
        scores = ni_scores([float(10 - i) for i in range(10)])
        labels = label_revolutionaries(scores, {0: 0.9}, keyword_ids={0})
        assert labels[0].evidence == ("periphery", "keyword")

    def test_minimum_size(self):
        with pytest.raises(AuthRevError):
            label_revolutionaries(ni_scores([1.0] * 9), {}, set())

    def test_tie_break_on_id(self):
        scores = ni_scores([1.0] * 10)
        labels = label_revolutionaries(scores, {}, set())
        assert [l.node_id for l in labels] == list(range(10))
        assert labels[-1].label == "non_major"


def separable_dataset(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    y = np.where(X[:, 2] > 0.0, "pos", "neg")
    return X, y


class TestForest:
    def test_separable_high_accuracy(self):
        X, y = separable_dataset()
        model = forest_train(X, y, trees=60, split=(0.5, 0.25, 0.25), seed=0)
        assert model.train_accuracy >= 0.95
        assert model.test_accuracy >= 0.90
        assert int(np.argmax(model.feature_importances)) == 2

    def test_importances_sum_to_one(self):
        X, y = separable_dataset(seed=2)
        model = forest_train(X, y, trees=40, split=(0.5, 0.25, 0.25), seed=1)
        assert model.feature_importances.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(model.feature_importances >= 0.0)

    def test_pure_noise_validation_near_chance(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 5))
        y = rng.choice(["a", "b"], size=400)
        model = forest_train(X, y, trees=50, split=(0.5, 0.25, 0.25), seed=3)
        assert 0.35 <= model.validation_accuracy <= 0.65

    def test_xor_needs_depth(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(600, 2))
        y = np.where(X[:, 0] * X[:, 1] > 0.0, "same", "diff")
        stumps = forest_train(X, y, trees=40, max_depth=1,
                              features_per_split=2, split=(0.5, 0.25, 0.25), seed=0)
        deep = forest_train(X, y, trees=40, max_depth=6,
                            features_per_split=2, split=(0.5, 0.25, 0.25), seed=0)
        assert stumps.test_accuracy < 0.7
        assert deep.test_accuracy >= 0.85

    def test_label_renaming_invariance(self):
        X, y = separable_dataset(seed=5)
        a = forest_train(X, y, trees=30, split=(0.5, 0.25, 0.25), seed=7)
        renamed = np.where(y == "pos", "zzz_pos", "aaa_neg")
        b = forest_train(X, renamed, trees=30, split=(0.5, 0.25, 0.25), seed=7)
        assert a.test_accuracy == b.test_accuracy
        assert np.allclose(a.feature_importances, b.feature_importances)

    def test_single_class_training_slice_errors(self):
        X = np.random.default_rng(0).normal(size=(100, 3))
        y = np.array(["only"] * 100)
        with pytest.raises(AuthRevError):
            forest_train(X, y, trees=5, split=(0.5, 0.25, 0.25))

    def test_deterministic_given_seed(self):
        X, y = separable_dataset(seed=6)
        a = forest_train(X, y, trees=20, split=(0.5, 0.25, 0.25), seed=11)
        b = forest_train(X, y, trees=20, split=(0.5, 0.25, 0.25), seed=11)
        assert np.array_equal(a.feature_importances, b.feature_importances)
        assert a.test_accuracy == b.test_accuracy

    def test_split_fractions_checked(self):
        X, y = separable_dataset(n=20)
        with pytest.raises(AuthRevError):
            forest_train(X, y, trees=5, split=(0.8, 0.2, 0.2))


# A column pair (a, next float above a) whose midpoint rounds up onto the
# larger value: 1 + 2**-52 has an odd last mantissa bit, so the tied sum
# rounds to the even neighbour above.
_ODD = 1.0 + 2.0 ** -52
_ADJACENT = [_ODD, np.nextafter(_ODD, 2.0), -_ODD, np.nextafter(-_ODD, 0.0), 3.0]


def _forest_case(seed, kinds, n, n_classes):
    """Rows of one column per kind (ties, constant, adjacent floats, or
    normal) and labels of n_classes classes, the first rows holding two."""
    rng = np.random.default_rng(seed)
    columns = {
        "ties": lambda: rng.integers(0, 4, size=n).astype(float),
        "constant": lambda: np.full(n, 0.25),
        "adjacent": lambda: rng.choice(_ADJACENT, size=n),
        "normal": lambda: rng.normal(size=n),
    }
    X = np.column_stack([columns[k]() for k in kinds])
    y = rng.integers(0, n_classes, size=n)
    y[:2] = [0, 1]
    return X, np.array(["c%d" % c for c in y])


class TestForestMatchesReference:
    """forest_train against the per-threshold re-counting forest it
    replaced: identical trees, importances and accuracies, byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(["ties", "constant", "adjacent", "normal"]),
                       min_size=1, max_size=5),
        n=st.integers(15, 60),
        n_classes=st.sampled_from([2, 3]),
        max_depth=st.integers(1, 8),
        data=st.data(),
    )
    def test_property(self, seed, kinds, n, n_classes, max_depth, data):
        X, y = _forest_case(seed, kinds, n, n_classes)
        features = data.draw(st.integers(1, len(kinds)))
        kw = dict(trees=3, max_depth=max_depth, features_per_split=features,
                  seed=seed, split=(0.5, 0.2, 0.2))
        got, want = forest_train(X, y, **kw), reference_forest_train(X, y, **kw)
        assert json_text(got) == json_text(want)

    def test_no_split_leaves_an_empty_side(self):
        # Adjacent floats whose midpoint rounds up onto the column's largest
        # value: that threshold sends every row left, so it is skipped
        # rather than grown into a 0/0 (NaN) leaf.
        X, y = _forest_case(19, ["adjacent"], 30, 2)
        model = forest_train(X, y, trees=3, max_depth=3, seed=19, split=(0.5, 0.2, 0.2))

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        json.loads(json_text(model), parse_constant=reject)

    def test_no_features_grows_leaves(self):
        X, y = np.zeros((20, 0)), np.array(["a", "b"] * 10)
        kw = dict(trees=2, split=(0.5, 0.2, 0.2))
        assert json_text(forest_train(X, y, **kw)) == json_text(reference_forest_train(X, y, **kw))

    def test_seeded_paper_shape(self):
        # 382 rows x 13 features, two classes, rounded so that values tie.
        rng = np.random.default_rng(382)
        X = np.round(rng.normal(size=(382, 13)), 2)
        y = np.where(X[:, 0] + X[:, 5] + rng.normal(scale=1.5, size=382) > 0, "major", "non_major")
        kw = dict(trees=20, max_depth=8, seed=5, split=(0.8, 0.1, 0.09))
        got, want = forest_train(X, y, **kw), reference_forest_train(X, y, **kw)
        assert json_text(got) == json_text(want)
        assert (got.train_accuracy, got.validation_accuracy, got.test_accuracy) == (
            want.train_accuracy, want.validation_accuracy, want.test_accuracy)
