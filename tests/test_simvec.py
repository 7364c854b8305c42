import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_pairwise_metric, reference_tss, reference_uniqueness

from artistnet.simvec import (
    SimvecError,
    _pairwise_metric,
    fit_pca,
    project,
    ss,
    standardize,
    ts,
    tss,
    tss_rows,
    uniqueness,
)

finite_vec = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=9,
)


class TestStandardize:
    def test_two_point_column(self):
        result = standardize([[0.0], [2.0]])
        np.testing.assert_allclose(result.vectors.ravel(), [-1.0, 1.0])

    def test_constant_column_flagged(self):
        result = standardize([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        assert result.constant_columns == [1]
        np.testing.assert_array_equal(result.vectors[:, 1], 0.0)

    def test_output_moments(self, rng):
        X = rng.normal(loc=3.0, scale=2.5, size=(50, 4))
        result = standardize(X)
        np.testing.assert_allclose(result.vectors.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(result.vectors.std(axis=0), 1.0, atol=1e-9)

    def test_round_trip(self, rng):
        X = rng.normal(size=(20, 3))
        result = standardize(X)
        back = result.vectors * result.stdevs + result.means
        np.testing.assert_allclose(back, X, atol=1e-9)

    def test_rejects_single_row(self):
        with pytest.raises(SimvecError):
            standardize([[1.0, 2.0]])


class TestPca:
    def test_isotropic_eigenvalues(self, rng):
        X = rng.normal(size=(5000, 4))
        model = fit_pca(standardize(X).vectors, 4)
        np.testing.assert_allclose(model.explained_variance, 1.0, atol=0.1)

    def test_planted_direction(self, rng):
        t = rng.normal(size=2000)
        X = np.column_stack([t, t]) + rng.normal(scale=0.01, size=(2000, 2))
        model = fit_pca(X, 1)
        target = np.array([1.0, 1.0]) / math.sqrt(2)
        cosine = abs(float(model.components[0] @ target))
        assert cosine >= 0.999

    def test_variance_sum_is_total_variance(self, rng):
        X = rng.normal(size=(300, 13)) * rng.uniform(0.5, 3.0, size=13)
        model = fit_pca(X, 13)
        centered = X - X.mean(axis=0)
        total = float(np.sum(centered * centered) / X.shape[0])
        assert float(model.explained_variance.sum()) == pytest.approx(total, abs=1e-6)

    def test_components_orthonormal(self, rng):
        X = rng.normal(size=(100, 9))
        model = fit_pca(X, 6)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-9)

    def test_eigenvalues_nonincreasing(self, rng):
        X = rng.normal(size=(100, 5)) * [5, 4, 3, 2, 1]
        ev = fit_pca(X, 5).explained_variance
        assert all(a >= b for a, b in zip(ev, ev[1:]))

    def test_sign_convention(self, rng):
        X = rng.normal(size=(100, 5))
        for row in fit_pca(X, 5).components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_k_too_large(self, rng):
        with pytest.raises(SimvecError):
            fit_pca(rng.normal(size=(10, 3)), 4)

    def test_json_roundtrip(self, rng):
        """pca_model.json's text reads back to the model's arrays, bit for bit."""
        model = fit_pca(rng.normal(size=(30, 4)), 2)
        back = json.loads(model.to_json())
        assert list(back) == sorted(["means", "stdevs", "components", "explained_variance"])
        for name, values in back.items():
            assert np.array(values).tobytes() == getattr(model, name).tobytes(), name


class TestProject:
    def test_component_maps_to_axis(self, rng):
        model = fit_pca(rng.normal(size=(50, 4)), 3)
        z = project(model, model.components[0])
        np.testing.assert_allclose(z, [1.0, 0.0, 0.0], atol=1e-9)

    def test_zero_vector(self, rng):
        model = fit_pca(rng.normal(size=(50, 4)), 2)
        np.testing.assert_array_equal(project(model, np.zeros(4)), 0.0)

    def test_isometry_on_span(self, rng):
        model = fit_pca(rng.normal(size=(50, 6)), 4)
        a = rng.normal(size=4) @ model.components
        b = rng.normal(size=4) @ model.components
        d_before = np.linalg.norm(a - b)
        d_after = np.linalg.norm(project(model, a) - project(model, b))
        assert d_after == pytest.approx(d_before, abs=1e-9)

    def test_dimension_mismatch(self, rng):
        model = fit_pca(rng.normal(size=(50, 4)), 2)
        with pytest.raises(SimvecError):
            project(model, np.zeros(5))


class TestTriangleSector:
    def test_identical_unit_vectors(self):
        value, theta = ts([1.0, 0.0], [1.0, 0.0])
        assert theta == pytest.approx(10.0)
        assert value == pytest.approx(math.sin(math.radians(10)) / 2, abs=1e-9)

    def test_orthogonal_hand_value(self):
        value, theta = ts([1.0, 0.0], [0.0, 1.0])
        assert theta == pytest.approx(100.0)
        assert value == pytest.approx(math.sin(math.radians(100)) / 2, abs=1e-9)

    def test_zero_vector_convention(self):
        value, theta = ts([0.0, 0.0], [1.0, 2.0])
        assert value == 0.0 and theta == 10.0

    def test_non_finite_rejected(self):
        with pytest.raises(SimvecError):
            ts([math.nan, 0.0], [1.0, 0.0])

    def test_ss_identical_is_zero(self):
        assert ss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_ss_orthogonal_hand_value(self):
        expected = math.pi * 2.0 * (100.0 / 360.0)
        assert ss([1.0, 0.0], [0.0, 1.0]) == pytest.approx(expected, abs=1e-9)

    def test_ss_quadratic_scaling(self, rng):
        a, b = rng.normal(size=4), rng.normal(size=4)
        for c in (2.0, 5.0, 0.3):
            assert ss(c * a, c * b) == pytest.approx(c * c * ss(a, b), rel=1e-9)

    def test_tss_identity(self, rng):
        for _ in range(20):
            a = rng.normal(size=5)
            assert tss(a, a).tss == 0.0

    def test_tss_orthogonal_product(self):
        r = tss([1.0, 0.0], [0.0, 1.0])
        assert r.tss == pytest.approx(r.ts * r.ss)
        assert r.tss == pytest.approx(
            math.sin(math.radians(100)) / 2 * math.pi * 2 * (100 / 360), abs=1e-9
        )

    def test_tss_symmetry_exact(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            a, b = rng.normal(size=9), rng.normal(size=9)
            assert tss(a, b).tss == tss(b, a).tss

    @given(finite_vec)
    @settings(max_examples=100, deadline=None)
    def test_tss_nonnegative_and_zero_on_self(self, values):
        a = np.array(values)
        r = tss(a, a)
        assert r.tss == 0.0
        b = a + 1.0
        r2 = tss(a, b[: len(a)])
        assert r2.tss >= 0.0
        assert 10.0 <= r2.theta_prime <= 190.0


# Components are 0 or at least 1e-3 in magnitude, so no product underflows.
component = st.one_of(st.just(0.0), st.floats(1e-3, 100.0), st.floats(-100.0, -1e-3))


@st.composite
def row_pairs(draw):
    """Matching rows: independent vectors, a vector against a positive or
    negative multiple of itself (parallel, antiparallel), itself, or zero."""
    d = draw(st.integers(1, 9))
    vec = st.lists(component, min_size=d, max_size=d).map(np.array)
    A, B = [], []
    for _ in range(draw(st.integers(1, 12))):
        a = draw(vec)
        kind = draw(st.sampled_from(["other", "multiple", "same", "zero"]))
        if kind == "other":
            b = draw(vec)
        elif kind == "multiple":
            b = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.01, 10.0)) * a
        else:
            b = a.copy() if kind == "same" else np.zeros(d)
        A.append(a)
        B.append(b)
    return np.array(A), np.array(B)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


class TestKernel:
    @given(row_pairs())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_reference(self, pair):
        A, B = pair
        t, s, theta = tss_rows(A, B)
        ref = [reference_tss(a, b) for a, b in zip(A, B)]
        assert bits(t) == bits([r[0] for r in ref])
        assert bits(s) == bits([r[1] for r in ref])
        assert bits(theta) == bits([r[2] for r in ref])
        assert bits(t * s) == bits([r[0] * r[1] for r in ref])
        assert [tss(a, b).tss for a, b in zip(A, B)] == (t * s).tolist()

    def test_bitwise_equal_to_reference_in_bulk(self):
        # Last-ulp differences (np.arccos, array ** 2) hit well under 1% of
        # pairs, so they need many pairs to show.
        rng = np.random.default_rng(5)
        A = rng.normal(size=(20000, 9)) * rng.uniform(0.01, 50.0, size=(20000, 1))
        B = rng.normal(size=(20000, 9)) * rng.uniform(0.01, 50.0, size=(20000, 1))
        ref = np.array([reference_tss(a, b) for a, b in zip(A, B)])
        assert bits(np.stack(tss_rows(A, B), axis=1).ravel()) == bits(ref.ravel())

    def test_antiparallel_passes_180_degrees(self):
        A = np.array([[1.0, 2.0, -0.5], [3.0, 0.0, 1e-3]])
        t, s, theta = tss_rows(A, -2.5 * A)
        assert theta.tolist() == [190.0, 190.0]
        assert bits(t) == bits([reference_tss(a, -2.5 * a)[0] for a in A])
        assert (t >= 0.0).all()

    def test_zero_rows_take_the_offset(self):
        t, s, theta = tss_rows(np.zeros((2, 3)), [[0.0, 0.0, 0.0], [1.0, -2.0, 2.0]])
        assert theta.tolist() == [10.0, 10.0] and t.tolist() == [0.0, 0.0]
        assert bits(s) == bits([0.0, reference_tss([0.0, 0.0, 0.0], [1.0, -2.0, 2.0])[1]])
        assert s[1] == pytest.approx(math.pi)  # (ED + MD)^2 = 36, theta' = 10

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_raises(self, bad):
        P = np.ones((3, 4))
        P[2, 1] = bad
        tss_rows(P[:2], P[:2][::-1])  # only the given rows are checked
        with pytest.raises(SimvecError):
            tss_rows(P[:2], P[1:])
        with pytest.raises(SimvecError):
            tss_rows(P[1:], P[:2])


class TestUniqueness:
    def test_all_identical(self):
        X = np.ones((5, 3))
        assert uniqueness(X, "tss") == pytest.approx(100.0 * 1 / 10)

    def test_random_ordering_tss_vs_cosine(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 9))
        assert uniqueness(X, "tss") >= uniqueness(X, "cosine")

    def test_invariant_under_reordering(self, rng):
        X = rng.normal(size=(40, 5))
        perm = rng.permutation(40)
        for metric in ("euclidean", "cosine", "tss"):
            assert uniqueness(X, metric) == pytest.approx(uniqueness(X[perm], metric))

    def test_condensed_matches_scalar(self, rng):
        X = rng.normal(size=(12, 4))
        condensed = _pairwise_metric(X, "tss")
        k = 0
        for i in range(12):
            for j in range(i + 1, 12):
                assert condensed[k] == pytest.approx(tss(X[i], X[j]).tss, rel=1e-9)
                k += 1

    @pytest.mark.parametrize("n", [2, 3, 129, 500, 777])  # from 129 rows on, a block ends inside a row
    def test_blocked_matches_the_all_pairs_reference(self, n):
        X = np.random.default_rng(n).normal(size=(n, 9))
        X[0] = 0.0
        X[-1] = X[n // 2]  # a repeated row (for n > 2)
        for metric in ("euclidean", "cosine", "tss"):
            assert _pairwise_metric(X, metric).tobytes() == reference_pairwise_metric(X, metric).tobytes()
            assert uniqueness(X, metric) == reference_uniqueness(X, metric)

    def test_unknown_metric_raises(self):
        with pytest.raises(SimvecError, match="unknown metric"):
            uniqueness(np.ones((3, 2)), "manhattan")

    @pytest.mark.parametrize("metric", ["euclidean", "cosine", "tss"])
    def test_working_memory_is_bounded(self, metric):
        # C(500, 2) pairs: all-pairs index arrays alone take 2 MB, the values 1 MB
        X = np.random.default_rng(3).normal(size=(500, 9))
        tracemalloc.start()
        try:
            uniqueness(X, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
