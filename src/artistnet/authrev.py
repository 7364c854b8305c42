"""Influence authenticity and revolutionary detection.

Covers the extreme-distribution authenticity score over each follower's
influencer similarities, elastic-net regression of influence on musical
features, genre-periphery and keyword evidence, rank-based labeling, and
a from-scratch random forest for feature importance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from artistnet.graph import GraphError, InfluenceGraph, genre_codes
from artistnet.simvec import tss_rows

DEFAULT_ALPHA = 0.8
VAL_FRACTION = 0.2  # the share of rows, at the tail, that elastic_net_grid validates on


class AuthRevError(Exception):
    pass


# ---------------------------------------------------------------------------
# authenticity


@dataclass
class AuthenticityScore:
    node_id: int
    in_similarities: list[float]  # per-node min-max mapped TSS values
    ad: float
    extreme: bool
    stdev: float


@dataclass
class AuthenticitySummary:
    eligible: int
    excluded_few_inputs: int
    fraction_extreme: float
    alpha: float
    mode: str


def average_extreme_distance(values, mode: str = "pair_mean") -> float:
    """Mean absolute gap over unordered pairs of the (already [0,1]-mapped)
    similarity values.

    pair_mean uses the 2/(n(n-1)) coefficient, which keeps the score in
    [0, 1] and defined for n = 2. unbounded uses the 2/(n(n-2))
    coefficient (n >= 3 only), which exceeds 1 for polarized inputs and
    so flags them more aggressively at a fixed threshold.
    """
    return float(_ad_rows(np.asarray(list(values), dtype=float)[None, :], mode)[0])


def _ad_rows(X: np.ndarray, mode: str) -> np.ndarray:
    """`average_extreme_distance` of each row of the (m, n) array X: gaps of
    the pairs i < j, in row-major order, summed left to right along the row."""
    n = X.shape[1]
    if n < 2:
        raise AuthRevError("need at least 2 similarity values")
    i, j = np.triu_indices(n, 1)
    total = np.add.accumulate(np.abs(X[:, i] - X[:, j]), axis=1)[:, -1]
    if mode == "pair_mean":
        return 2.0 * total / (n * (n - 1))
    if mode == "unbounded":
        if n < 3:
            raise AuthRevError("unbounded mode needs n >= 3")
        return 2.0 * total / (n * (n - 2))
    raise AuthRevError(f"unknown mode {mode!r}")


def authenticity(g: InfluenceGraph, profiles: dict[int, np.ndarray],
                 alpha: float = DEFAULT_ALPHA, mode: str = "pair_mean"):
    """Extreme-distribution score per follower with >= 2 profiled
    influencers; returns (scores, summary). Followers with the same
    influencer count n are taken a block at a time (at most 2**16 pairs of
    values a block): one `tss_rows` call scores the block's (follower,
    influencer) pairs, ascending by follower, then influencer id; each
    follower's n values are min-max mapped over its own influencers (all 0
    when they tie), and AD and stdev are taken of the mapped rows."""
    ids = g.node_ids()
    profiled = np.array([i in profiles for i in ids], dtype=bool)
    order = np.lexsort((g.src, g.indices))  # in-edges, ascending by (follower, influencer)
    follower, source = g.indices[order], g.src[order]
    count = np.bincount(follower[profiled[source]], minlength=len(ids))  # profiled influencers
    eligible = profiled & (count >= 2)
    excluded = int(np.sum(profiled & ~eligible & (np.bincount(follower, minlength=len(ids)) > 0)))
    pair = profiled[source] & eligible[follower]
    source = source[pair][np.argsort(count[follower[pair]], kind="stable")]  # by count, then (follower, influencer)
    nodes = np.flatnonzero(eligible)
    n_in = count[nodes]
    vectors = np.array([profiles[ids[k]] for k in np.flatnonzero(profiled)], dtype=float)
    row = np.cumsum(profiled) - 1  # dense index -> row of `vectors`
    ad, stdev, mapped, done = np.empty(len(nodes)), np.empty(len(nodes)), [None] * len(nodes), 0
    for n in np.flatnonzero(np.bincount(n_in)).tolist():  # the distinct counts, ascending
        members = np.flatnonzero(n_in == n)
        step = max(1, 2**16 // (n * (n - 1) // 2))  # followers a block: at most 2**16 pairs
        for b in range(0, len(members), step):
            rows = members[b:b + step]
            pairs = source[done:done + n * len(rows)]
            done += len(pairs)
            t, s, _ = tss_rows(vectors[np.repeat(row[nodes[rows]], n)], vectors[row[pairs]])
            v = (t * s).reshape(len(rows), n)
            lo = v.min(axis=1, keepdims=True)
            span = v.max(axis=1, keepdims=True) - lo
            X = (v - lo) / np.where(span == 0.0, 1.0, span)  # tied values map to 0
            ad[rows], stdev[rows] = _ad_rows(X, mode), np.std(X, axis=1)
            for r, x in zip(rows.tolist(), X.tolist()):
                mapped[r] = x
    scores = [AuthenticityScore(ids[k], x, a, a >= alpha, sd)
              for k, x, a, sd in zip(nodes.tolist(), mapped, ad.tolist(), stdev.tolist())]
    fraction = sum(s.extreme for s in scores) / len(scores) if scores else 0.0
    return scores, AuthenticitySummary(len(scores), excluded, fraction, alpha, mode)


# ---------------------------------------------------------------------------
# elastic net


@dataclass
class ElasticNetFit:
    intercept: float
    coefficients: np.ndarray
    lam: float
    alpha_mix: float
    iterations: int
    converged: bool
    objective_history: list[float] = field(default_factory=list)


def elastic_net_objective(X, y, intercept, beta, lam, alpha_mix) -> float:
    resid = y - intercept - X @ beta
    penalty = lam * (
        0.5 * (1.0 - alpha_mix) * float(beta @ beta)
        + alpha_mix * float(np.sum(np.abs(beta)))
    )
    return 0.5 * float(resid @ resid) + penalty


def _soft_threshold(z: float, gamma: float) -> float:
    if z > gamma:
        return z - gamma
    if z < -gamma:
        return z + gamma
    return 0.0


def elastic_net_fit(X, y, lam: float, alpha_mix: float = 0.5,
                    tol: float = 1e-7, max_iter: int = 10000) -> ElasticNetFit:
    """Cyclic coordinate descent with soft-thresholding for

        min 1/2 ||y - b0 - X beta||^2 + lam [ (1-a)/2 ||beta||^2 + a ||beta||_1 ]

    The intercept is unpenalized. Converges when the largest coefficient
    change in a sweep drops below tol.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise AuthRevError("non-finite input")
    if not 0.0 <= alpha_mix <= 1.0 or lam < 0.0:
        raise AuthRevError("need lam >= 0 and alpha_mix in [0, 1]")
    n, d = X.shape
    col_sq = np.einsum("ij,ij->j", X, X)
    beta = np.zeros(d)
    intercept = float(np.mean(y))
    resid = y - intercept  # maintained as y - intercept - X @ beta
    history = [elastic_net_objective(X, y, intercept, beta, lam, alpha_mix)]
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        max_delta = 0.0
        for j in range(d):
            denom = col_sq[j] + lam * (1.0 - alpha_mix)
            if denom == 0.0:
                continue
            old = beta[j]
            rho = float(X[:, j] @ resid) + col_sq[j] * old
            new = _soft_threshold(rho, lam * alpha_mix) / denom
            if new != old:
                resid += X[:, j] * (old - new)
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        shift = float(np.mean(resid))
        if shift != 0.0:
            intercept += shift
            resid -= shift
            max_delta = max(max_delta, abs(shift))
        history.append(elastic_net_objective(X, y, intercept, beta, lam, alpha_mix))
        if max_delta < tol:
            converged = True
            break
    return ElasticNetFit(intercept, beta, lam, alpha_mix, sweeps, converged, history)


def elastic_net_grid(X, y, lambda_grid, alpha_mix: float = 0.5) -> ElasticNetFit:
    """Pick lambda from the grid by validation MSE on a tail split."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n == 0:
        raise AuthRevError("no rows to fit the elastic net on")
    cut = max(1, int(round(n * (1.0 - VAL_FRACTION))))
    Xt, yt = X[:cut], y[:cut]
    Xv, yv = X[cut:], y[cut:]
    if len(yv) == 0:
        Xv, yv = Xt, yt
    best = None
    for lam in lambda_grid:
        fit = elastic_net_fit(Xt, yt, lam, alpha_mix)
        pred = fit.intercept + Xv @ fit.coefficients
        mse = float(np.mean((yv - pred) ** 2))
        if best is None or mse < best[0]:
            best = (mse, lam)
    return elastic_net_fit(X, y, best[1], alpha_mix)


# ---------------------------------------------------------------------------
# revolutionary labeling


def periphery_scores(g: InfluenceGraph, node_ids) -> dict[int, float]:
    """{id: fraction of its out-edges into another genre, 0 for a sink} of `node_ids`."""
    _, code = genre_codes(g)
    cross = np.bincount(g.src, code[g.src] != code[g.indices], g.n_nodes)
    share = (cross / np.maximum(np.diff(g.indptr), 1)).tolist()
    return {i: share[g._index(i)] for i in node_ids}


def periphery_score(g: InfluenceGraph, node: int) -> float:
    return periphery_scores(g, [node])[node]


def _normalize_text(text: str) -> str:
    return " ".join(text.split()).lower()


def semantic_match(phrases, bios: dict[int, str], node_ids=None):
    """Case-insensitive substring match of any indicator phrase against
    whitespace-normalized bios. Returns (flagged ids, missing ids)."""
    if not phrases:
        raise AuthRevError("empty phrase corpus")
    needles = [_normalize_text(p) for p in phrases if p.strip()]
    flagged = set()
    for node, text in bios.items():
        hay = _normalize_text(text or "")
        if hay and any(n in hay for n in needles):
            flagged.add(node)
    ids = set(node_ids) if node_ids is not None else set(bios)
    missing = {i for i in ids if not (bios.get(i) or "").strip()}
    return flagged, missing


@dataclass(frozen=True)
class RevolutionLabel:
    node_id: int
    label: str  # major | non_major | unlabeled
    evidence: tuple[str, ...] = ()


def label_revolutionaries(scores, periphery: dict[int, float],
                          keyword_ids, periphery_threshold: float = 0.5) -> list[RevolutionLabel]:
    """Bottom influence decile -> non_major; top quintile with periphery or
    keyword evidence -> major; everyone else unlabeled."""
    ordered = sorted(scores, key=lambda s: (-s.ni, s.node_id))
    n = len(ordered)
    if n < 10:
        raise AuthRevError("need at least 10 nodes to take deciles")
    n_top = max(1, math.floor(n * 0.20))
    n_bottom = max(1, math.floor(n * 0.10))
    labels = []
    for pos, s in enumerate(ordered):
        if pos >= n - n_bottom:
            labels.append(RevolutionLabel(s.node_id, "non_major", ("rank_bottom_decile",)))
            continue
        if pos < n_top:
            evidence = []
            if periphery.get(s.node_id, 0.0) >= periphery_threshold:
                evidence.append("periphery")
            if s.node_id in keyword_ids:
                evidence.append("keyword")
            if evidence:
                labels.append(RevolutionLabel(s.node_id, "major", tuple(evidence)))
                continue
        labels.append(RevolutionLabel(s.node_id, "unlabeled"))
    return labels


# ---------------------------------------------------------------------------
# random forest


def _gini(counts: np.ndarray):
    """Gini impurity of each row (last axis) of class counts; 0 if empty."""
    total = counts.sum(axis=-1, keepdims=True)
    p = counts / np.where(total == 0, 1.0, total)
    return np.where(total[..., 0] == 0, 0.0, 1.0 - np.sum(p * p, axis=-1))


@dataclass
class _Tree:
    root: dict


def _grow(X, y, n_classes, rng, depth, max_depth, m_features, importances, n_total):
    """Grow one Gini tree depth-first, left child first; an internal node
    draws its features with one rng.choice call. Each drawn column is
    sorted once; its thresholds are the midpoints of consecutive distinct
    values, left = values <= midpoint (a searchsorted count, so a midpoint
    that rounds up onto the next value sends that value left), and left
    class counts come off one cumulative sum of one-hot labels in sorted
    order. A threshold that leaves the right side empty is skipped. The
    split is the first minimum (first feature, then smallest threshold),
    taken only if it is below the node's impurity."""
    counts = np.bincount(y, minlength=n_classes).astype(float)
    node_gini = float(_gini(counts))
    n, d = X.shape
    if depth >= max_depth or n < 2 or node_gini == 0.0 or d == 0:
        return {"proba": (counts / counts.sum()).tolist()}
    feats = sorted(rng.choice(d, size=min(m_features, d), replace=False).tolist())
    order = np.argsort(X[:, feats], axis=0, kind="stable")
    cols = X[order, feats]  # each drawn column, sorted
    prefix = np.cumsum(np.eye(n_classes)[y[order]], axis=0)  # (rows, features, classes)
    candidates = []  # per feature: (feature, thresholds, left sizes, left class counts)
    for j, f in enumerate(feats):
        col = cols[:, j]
        last = np.flatnonzero(col[:-1] != col[1:])  # last row of each run of equal values
        thresholds = (col[last] + col[last + 1]) / 2.0
        nl = np.searchsorted(col, thresholds, side="right")
        candidates.append((np.full(len(nl), f), thresholds, nl, prefix[nl - 1, j]))
    feature, threshold, nl, left = (np.concatenate(c) for c in zip(*candidates))
    gini_left, gini_right = _gini(np.stack([left, counts - left]))
    scores = (nl * gini_left + (n - nl) * gini_right) / n
    scores[nl == n] = np.inf  # a midpoint that rounded up onto the largest value: right side empty
    # the first minimum: first feature, then smallest threshold
    best = int(np.argmin(scores)) if len(scores) else None
    if best is None or scores[best] >= node_gini:
        return {"proba": (counts / counts.sum()).tolist()}
    f, thr, score = int(feature[best]), float(threshold[best]), float(scores[best])
    mask = X[:, f] <= thr
    importances[f] += (n / n_total) * (node_gini - score)
    return {
        "feature": f,
        "threshold": thr,
        "left": _grow(X[mask], y[mask], n_classes, rng, depth + 1, max_depth,
                      m_features, importances, n_total),
        "right": _grow(X[~mask], y[~mask], n_classes, rng, depth + 1, max_depth,
                       m_features, importances, n_total),
    }


def _route(node, X, rows, probas):
    """Add the proba of the leaf each of `rows` reaches from `node`."""
    if "proba" in node:
        probas[rows] += node["proba"]
        return
    left = X[rows, node["feature"]] <= node["threshold"]
    _route(node["left"], X, rows[left], probas)
    _route(node["right"], X, rows[~left], probas)


@dataclass
class ForestModel:
    trees: list
    classes: list
    feature_importances: np.ndarray
    train_accuracy: float
    validation_accuracy: float
    test_accuracy: float

    def predict(self, X):
        X = np.asarray(X, dtype=float)
        probas = np.zeros((X.shape[0], len(self.classes)))
        for tree in self.trees:  # each row sums its leaf probas in tree order
            _route(tree.root, X, np.arange(X.shape[0]), probas)
        return np.asarray(self.classes)[np.argmax(probas, axis=1)]


def forest_train(X, labels, trees: int = 200, max_depth: int = 8,
                 features_per_split: int | None = None, seed: int = 0,
                 split: tuple[float, float, float] = (0.10, 0.05, 0.05)) -> ForestModel:
    """Bootstrap forest of Gini trees over ordered rows.

    The first split[0] fraction of rows trains, the next split[1] fraction
    validates, the next split[2] tests (the CLI passes the rows in a
    class-stratified order, so each slice keeps the class mix). Importances
    are normalized impurity decreases. Each tree draws a bootstrap sample
    from its own SeedSequence.spawn seed and is grown by _grow's sorted
    prefix-count sweep (CART), so a seed fixes the trees; prediction routes
    all rows down a tree at once.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    n, d = len(labels), X.shape[-1]  # X is 1-D when it has no rows
    i_train = max(1, int(round(n * split[0])))
    i_val = i_train + max(1, int(round(n * split[1])))
    i_test = i_val + max(1, int(round(n * split[2])))
    if i_test > n:
        raise AuthRevError("split fractions exceed the dataset")
    Xtr, ytr_raw = X[:i_train], labels[:i_train]

    classes = sorted(set(ytr_raw.tolist()))
    if len(classes) < 2:
        raise AuthRevError("training slice contains a single class")
    class_index = {c: i for i, c in enumerate(classes)}
    ytr = np.array([class_index[c] for c in ytr_raw])

    m_features = features_per_split or math.ceil(math.sqrt(d))
    importances = np.zeros(d)
    grown = []
    for ss in np.random.SeedSequence(seed).spawn(trees):
        rng = np.random.default_rng(ss)
        idx = rng.integers(0, len(ytr), size=len(ytr))
        grown.append(_Tree(_grow(Xtr[idx], ytr[idx], len(classes), rng, 0, max_depth,
                                 m_features, importances, len(ytr))))

    total = importances.sum()
    if total > 0:
        importances = importances / total

    model = ForestModel(grown, classes, importances, 0.0, 0.0, 0.0)
    model.train_accuracy, model.validation_accuracy, model.test_accuracy = (
        float(np.mean(model.predict(X[lo:hi]) == labels[lo:hi]))
        for lo, hi in ((0, i_train), (i_train, i_val), (i_val, i_test))
    )
    return model
