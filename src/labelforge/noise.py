"""Cluster-assignment uncertainty.

Trains a softmax linear classifier on cluster assignments, scores each
sample's uncertainty (entropy, max-logit or class-margin), fits a Weibull
to the less confident mode of the scores and turns it into a
per-sample probability of incorrect clustering. Ground-truth diagnostics
(outlier / split-id tagging, average precision) live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import UNASSIGNED, Clustering, EmbeddingSet, LabelSet, LinearHead, modal
from .errors import InvalidData, TooFewClusters, TrainingDiverged
from .evt import WeibullParams, otsu_split, weibull_fit_mle

CORRECT = 0
OUTLIER = 1
SPLIT_ID = 2

METRICS = ("entropy", "max_logit", "class_margin")


@dataclass(frozen=True)
class NoiseModel:
    """Lower-mode Weibull over an uncertainty metric's scores, on the
    scale of :func:`confidence` (entropy negated)."""

    metric: str
    otsu_t: float
    wb_low: WeibullParams


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def train_linear_classifier(
    emb: EmbeddingSet,
    c: Clustering,
    epochs: int = 30,
    lr: float = 1.0,
    l2: float = 1e-4,
    seed: int = 0,
    batch_size: int = 256,
) -> LinearHead:
    """Multinomial logistic regression on cluster assignments.

    UNASSIGNED samples are excluded; mini-batch gradient descent with an
    L2 penalty; bias-free so logits stay comparable across classes.
    Training runs in the rows' dtype: the initial weights are drawn in
    float64 and rounded to it once. Raises :class:`TrainingDiverged` when
    the weights end up not finite (``lr`` too large).
    """
    mask = c.assignment != UNASSIGNED
    X = emb.rows[mask]
    y = c.assignment[mask]
    K = c.num_clusters
    if K < 2:
        raise TooFewClusters(f"need >= 2 clusters, got {K}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    W = (rng.standard_normal((K, emb.d)) * 0.01).astype(X.dtype)
    n = X.shape[0]
    order = np.arange(n)
    # overflow surfaces as non-finite weights, raised below as a typed error
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            rng.shuffle(order)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                xb, yb = X[idx], y[idx]
                probs = _softmax(xb @ W.T)
                probs[np.arange(len(idx)), yb] -= 1.0
                grad = probs.T @ xb / len(idx) + l2 * W
                W -= lr * grad
    if not np.isfinite(W).all():
        raise TrainingDiverged(f"noise classifier training diverged: weights not finite (lr={lr})")
    return LinearHead(W)


def uncertainty_scores(head: LinearHead, emb: EmbeddingSet, metric: str) -> np.ndarray:
    """Score each sample; higher always means *more confident* for
    max_logit / class_margin, and higher entropy means less confident."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    z = head.logits(emb)
    if metric == "max_logit":
        return z.max(axis=1)
    if metric == "class_margin":
        part = np.partition(z, -2, axis=1)
        return part[:, -1] - part[:, -2]
    probs = _softmax(z)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0, probs * np.log(probs), 0.0)
    return -terms.sum(axis=1)


def confidence(metric: str, scores) -> np.ndarray:
    """``scores`` of ``metric`` oriented so that higher means more confident."""
    scores = np.asarray(scores, dtype=np.float64)
    return -scores if metric == "entropy" else scores


def fit_noise_model(
    margin_scores, metric: str = "class_margin", n_bins: int = 64
) -> NoiseModel:
    """Otsu split of the oriented scores, Weibull MLE on the less confident side."""
    t, low, _ = otsu_split(confidence(metric, margin_scores), n_bins=n_bins)
    return NoiseModel(metric=metric, otsu_t=t, wb_low=weibull_fit_mle(low))


def p_minus(m: NoiseModel, score) -> np.ndarray:
    """Probability of incorrect clustering: survival function of the
    lower-mode Weibull at the oriented score, in [0, 1] and non-decreasing in
    uncertainty."""
    return m.wb_low.sf(confidence(m.metric, score))


def label_cluster_errors(c: Clustering, labels: LabelSet) -> np.ndarray:
    """Tag each assigned sample CORRECT, OUTLIER or SPLIT_ID (diagnostic).

    A cluster's identity is its modal label (ties to the smaller id);
    members with a different label are outliers. Each identity's "true
    cluster" is the cluster holding most of its samples (ties to the
    smaller cluster id); its samples elsewhere are split-id unless already
    outliers there. UNASSIGNED samples keep -1.
    """
    assigned = np.flatnonzero(c.assignment != UNASSIGNED)
    cid = c.assignment[assigned]
    ident = labels.labels[assigned]
    modal_label, _ = modal(cid, ident)
    # per identity: cluster with the largest share of its samples
    true_cluster, _ = modal(ident, cid)
    tags = np.full(c.n, -1, dtype=np.int64)
    tags[assigned] = np.select(
        [modal_label[cid] != ident, true_cluster[ident] != cid], [OUTLIER, SPLIT_ID], CORRECT
    )
    return tags


def average_precision(scores, positives) -> float:
    """AP of ranking by descending score (ties broken by original index)."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    pos = np.asarray(positives, dtype=bool).ravel()
    if not pos.any():
        raise InvalidData("need at least one positive sample")
    order = np.lexsort((np.arange(s.size), -s))
    hits = pos[order]
    ranks = np.flatnonzero(hits) + 1
    cum_hits = np.arange(1, ranks.size + 1)
    return float(np.mean(cum_hits / ranks))
