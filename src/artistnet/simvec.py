"""Feature standardization, PCA reduction, and the triangle/sector (TS-SS)
similarity metric.

All trigonometry is degree-based: the vector angle gets a +10 degree
offset so coincident vectors still span a nondegenerate triangle. TSS is
a dissimilarity: 0 means identical, larger means less similar.

The formula is written once, as the row kernel `tss_rows`; the scalar
`ts`, `ss` and `tss` are one-row calls of it, and `uniqueness` runs it
on every pair of vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_COMPONENTS = 9
ANGLE_OFFSET_DEG = 10.0
PAIR_BLOCK = 8192  # pairs `uniqueness` scores at a time, so its row copies stay small


class SimvecError(Exception):
    pass


@dataclass
class StandardizeResult:
    vectors: np.ndarray  # (n, d) standardized rows
    means: np.ndarray
    stdevs: np.ndarray  # population stdev; 1.0 substituted for flagged columns
    constant_columns: list[int] = field(default_factory=list)


def standardize(corpus) -> StandardizeResult:
    """Column-wise z-scores with population standard deviation.

    Zero-variance columns map to all-zeros and are flagged, not dropped.
    """
    X = np.asarray(corpus, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise SimvecError("standardize needs a 2-D corpus with >= 2 rows")
    if not np.all(np.isfinite(X)):
        raise SimvecError("non-finite value in corpus")
    means = X.mean(axis=0)
    stdevs = X.std(axis=0)  # population (ddof=0)
    constant = [int(j) for j in np.where(stdevs == 0.0)[0]]
    safe = stdevs.copy()
    safe[safe == 0.0] = 1.0
    Z = (X - means) / safe
    return StandardizeResult(vectors=Z, means=means, stdevs=safe, constant_columns=constant)


@dataclass
class PcaModel:
    means: np.ndarray
    stdevs: np.ndarray
    components: np.ndarray  # (k, d), orthonormal rows, eigenvalue-descending
    explained_variance: np.ndarray  # (k,)


def fit_pca(vectors, k: int, means=None, stdevs=None) -> PcaModel:
    """Top-k eigendecomposition of the population covariance matrix.

    `vectors` is expected standardized (see standardize); optional
    means/stdevs are carried on the model so pipelines can re-apply the
    same transform to new data. Sign convention: each component's
    largest-magnitude entry is positive.
    """
    X = np.asarray(vectors, dtype=float)
    n, d = X.shape
    if k > d:
        raise SimvecError(f"k={k} exceeds dimension {d}")
    if n < k + 1:
        raise SimvecError(f"need at least {k + 1} vectors for k={k}")
    centered = X - X.mean(axis=0)
    cov = centered.T @ centered / n
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order][:k]
    comps = eigvecs[:, order][:, :k].T.copy()
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(
        means=np.zeros(d) if means is None else np.asarray(means, dtype=float),
        stdevs=np.ones(d) if stdevs is None else np.asarray(stdevs, dtype=float),
        components=comps,
        explained_variance=np.maximum(eigvals, 0.0),
    )


def project(model: PcaModel, v) -> np.ndarray:
    """Map a (standardized) vector or row matrix onto the components."""
    arr = np.asarray(v, dtype=float)
    if arr.shape[-1] != model.components.shape[1]:
        raise SimvecError(
            f"dimension mismatch: vector has {arr.shape[-1]}, model expects {model.components.shape[1]}"
        )
    return arr @ model.components.T


# The kernel matches the two-vector formula bitwise: each row dot is one
# BLAS dot call, as np.dot on the rows is (einsum and (X * Y).sum(1) differ
# in the last ulp); acos is the math module's, mapped over Python floats
# (np.arccos differs in the last ulp), and np.sin calls the C library's sin,
# as math.sin does.
def _row_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return (X[:, None, :] @ Y[:, :, None]).reshape(-1)


def _libm(fn, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=len(x))


def tss_rows(A, B) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """TS, SS and theta' (degrees) of each row of A with the same row of B;
    a pair's TSS is TS * SS. theta' is the angle plus the 10 degree offset
    (just the offset if a vector is zero). TS = |a||b| |sin theta'| / 2, the
    triangle's area; |sin| keeps it nonnegative when theta' passes 180.
    SS = pi (ED + MD)^2 theta'/360, the sector's area, with ED the Euclidean
    distance and MD the magnitude difference. Raises SimvecError if a
    component of the given rows is not finite."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise SimvecError("non-finite vector component")
    mag_a = np.sqrt(_row_dots(A, A))
    mag_b = np.sqrt(_row_dots(B, B))
    prod = mag_a * mag_b
    live = prod > 0.0
    cosine = np.clip(_row_dots(A, B) / np.where(live, prod, 1.0), -1.0, 1.0)
    theta = np.where(live, np.degrees(_libm(math.acos, cosine)) + ANGLE_OFFSET_DEG,
                     ANGLE_OFFSET_DEG)
    ts_ = np.where(live, prod * np.abs(np.sin(np.radians(theta))) / 2.0, 0.0)
    D = A - B
    ed_md = np.sqrt(_row_dots(D, D)) + np.abs(mag_a - mag_b)
    # float_power calls the C library's pow, as Python's float ** 2 does;
    # ** on an array squares by multiplication, which differs in the last ulp.
    ss_ = math.pi * np.float_power(ed_md, 2.0) * (theta / 360.0)
    return ts_, ss_, theta


@dataclass(frozen=True)
class SimilarityResult:
    ts: float
    ss: float
    tss: float
    theta_prime: float


def tss(a, b) -> SimilarityResult:
    """TSS = TS * SS of two vectors (see tss_rows); 0 iff they coincide
    (or either area is 0)."""
    t, s, theta = (float(v[0]) for v in tss_rows(np.atleast_2d(a), np.atleast_2d(b)))
    return SimilarityResult(ts=t, ss=s, tss=t * s, theta_prime=theta)


def ts(a, b) -> tuple[float, float]:
    """Triangle's area similarity: (ts, theta_prime_degrees)."""
    r = tss(a, b)
    return r.ts, r.theta_prime


def ss(a, b) -> float:
    """Sector's area similarity."""
    return tss(a, b).ss


def _pairwise_metric(X: np.ndarray, metric: str) -> np.ndarray:
    """Condensed upper-triangle values of the chosen metric, filled into one
    array PAIR_BLOCK pairs at a time (a block may split a row). Euclidean and
    cosine read the Gram matrix, computed once: by row blocks, bits could differ."""
    if metric not in ("euclidean", "cosine", "tss"):
        raise SimvecError(f"unknown metric {metric!r}")
    first = np.cumsum(np.arange(len(X), 0, -1)) - len(X)  # row i's first pair; last, C(n, 2)
    out = np.empty(first[-1])
    if metric != "tss":
        gram = X @ X.T
        sq = np.diag(gram)
    for lo in range(0, len(out), PAIR_BLOCK):
        pair = np.arange(lo, min(lo + PAIR_BLOCK, len(out)))
        iu = np.searchsorted(first, pair, "right") - 1
        ju = pair - first[iu] + iu + 1
        if metric == "tss":
            t, s, _ = tss_rows(X[iu], X[ju])
            out[pair] = t * s
        elif metric == "euclidean":
            out[pair] = np.sqrt(np.maximum(sq[iu] + sq[ju] - 2.0 * gram[iu, ju], 0.0))
        else:
            prod = np.sqrt(sq[iu]) * np.sqrt(sq[ju])
            with np.errstate(invalid="ignore", divide="ignore"):
                out[pair] = np.clip(np.where(prod > 0.0, gram[iu, ju] / prod, 1.0), -1.0, 1.0)
    return out


def uniqueness(vectors, metric: str) -> float:
    """Percentage of distinct pairwise metric values at 7-decimal rounding:
    100 * distinct / C(n, 2), counted as np.unique does, without its
    numpy.ma import: as the sorted values' unequal neighbours, plus one."""
    X = np.asarray(vectors, dtype=float)
    if X.shape[0] < 2:
        raise SimvecError("uniqueness needs >= 2 vectors")
    r = _pairwise_metric(X, metric)
    r.round(7, out=r).sort()  # in place
    return 100.0 * (1 + np.count_nonzero(r[1:] != r[:-1])) / len(r)
