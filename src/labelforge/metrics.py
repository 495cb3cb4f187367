"""Evaluation metrics: clustering P/R/F (pairwise and BCubed), pair
verification (accuracy, TAR@FAR), closed-set identification, and the
Fréchet distance between embedding sets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import UNASSIGNED, Clustering, EmbeddingSet, LabelSet, groups
from .errors import InvalidData


@dataclass(frozen=True)
class VerificationProtocol:
    """List of (index_a, index_b, same_identity) pairs."""

    pairs: tuple[tuple[int, int, bool], ...]

    def __post_init__(self):
        pairs = tuple((int(a), int(b), bool(s)) for a, b, s in self.pairs)
        same = [s for _, _, s in pairs]
        if not any(same) or all(same):
            raise InvalidData("need at least one positive and one negative pair")
        object.__setattr__(self, "pairs", pairs)


def _contingency(c: Clustering, labels: LabelSet):
    """Cluster ids and labels of the assigned samples and their cluster x
    label count table; None when no sample is assigned."""
    mask = c.assignment != UNASSIGNED
    a = c.assignment[mask]
    l = labels.labels[mask]
    if a.size == 0:
        return None
    cont = np.zeros((int(a.max()) + 1, int(l.max()) + 1), dtype=np.int64)
    np.add.at(cont, (a, l), 1)
    return a, l, cont


def pairwise_prf(c: Clustering, labels: LabelSet) -> tuple[float, float, float]:
    """Pairwise precision / recall / F1 over assigned samples."""
    table = _contingency(c, labels)
    if table is None:
        return 1.0, 0.0, 0.0
    _, _, cont = table
    same_cluster = int(np.sum(cont.sum(axis=1) * (cont.sum(axis=1) - 1) // 2))
    same_label = int(np.sum(cont.sum(axis=0) * (cont.sum(axis=0) - 1) // 2))
    both = int(np.sum(cont * (cont - 1) // 2))
    precision = both / same_cluster if same_cluster > 0 else 1.0
    recall = both / same_label if same_label > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def bcubed_prf(c: Clustering, labels: LabelSet) -> tuple[float, float, float]:
    """BCubed per-sample precision / recall means and their harmonic mean."""
    table = _contingency(c, labels)
    if table is None:
        return 1.0, 0.0, 0.0
    a, l, cont = table
    cluster_sizes = cont.sum(axis=1)
    class_sizes = cont.sum(axis=0)
    inter = cont[a, l].astype(np.float64)
    precision = float(np.mean(inter / cluster_sizes[a]))
    recall = float(np.mean(inter / class_sizes[l]))
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f1


def coverage(c: Clustering) -> float:
    """Fraction of samples with a cluster assignment."""
    return float(np.mean(c.assignment != UNASSIGNED))


def verification_metrics(
    emb: EmbeddingSet, protocol: VerificationProtocol, fars: tuple[float, ...] = (1e-2, 1e-3)
) -> tuple[float, dict[float, float]]:
    """Best sweep accuracy plus TAR at each requested FAR.

    Pair score is the cosine similarity; the accuracy threshold is swept
    over all observed scores, and TAR@FAR uses the largest threshold-free
    TAR whose realized FAR stays within the bound.
    """
    rows = emb.rows / np.linalg.norm(emb.rows, axis=1)[:, None]
    ai = np.array([p[0] for p in protocol.pairs])
    bi = np.array([p[1] for p in protocol.pairs])
    same = np.array([p[2] for p in protocol.pairs], dtype=bool)
    scores = np.sum(rows[ai] * rows[bi], axis=1)

    pos = np.sort(scores[same])
    neg = np.sort(scores[~same])
    # accuracy at every observed threshold t from exact counts: pos >= t
    # and neg < t (NaN scores sort last and pass no threshold)
    t = np.unique(scores)
    t = t[~np.isnan(t)]
    n_pos = np.count_nonzero(~np.isnan(pos))
    acc = (n_pos - np.searchsorted(pos, t) + np.searchsorted(neg, t)) / scores.size
    best_acc = float(acc.max(initial=0.0))

    neg_sorted = neg[::-1]
    tar_at_far: dict[float, float] = {}
    for far in fars:
        allowed = int(np.floor(far * neg.size))
        if allowed >= neg.size:
            threshold = -np.inf
        else:
            # pass exactly `allowed` negatives: threshold just above the
            # (allowed+1)-th largest negative
            threshold = np.nextafter(neg_sorted[allowed], np.inf)
        tar_at_far[far] = float(np.mean(pos >= threshold))
    return best_acc, tar_at_far


def identification_rank(
    gallery: tuple[EmbeddingSet, np.ndarray],
    probe: tuple[EmbeddingSet, np.ndarray],
    ks: tuple[int, ...] = (1, 5),
) -> dict[int, float]:
    """Closed-set identification rate at each rank k (ties to the lower
    gallery index)."""
    g_emb, g_ids = gallery
    p_emb, p_ids = probe
    g_ids = np.asarray(g_ids, dtype=np.int64)
    p_ids = np.asarray(p_ids, dtype=np.int64)
    missing = set(p_ids.tolist()) - set(g_ids.tolist())
    if missing:
        raise InvalidData(f"probe ids not in gallery: {sorted(missing)[:5]}")
    g_rows = g_emb.rows / np.linalg.norm(g_emb.rows, axis=1)[:, None]
    p_rows = p_emb.rows / np.linalg.norm(p_emb.rows, axis=1)[:, None]
    sims = p_rows @ g_rows.T
    # entry j's rank: the entries more similar, plus the equally similar ones
    # at a lower index. A hit at k is a true-id entry of rank < k, so only
    # the best true-id entry counts: the most similar, the first of a tie.
    true = g_ids[None, :] == p_ids[:, None]
    best = np.argmax(np.where(true, sims, -np.inf), axis=1)
    best_sim = sims[np.arange(len(p_ids)), best][:, None]
    before = np.arange(len(g_ids))[None, :] < best[:, None]
    rank = np.count_nonzero((sims > best_sim) | ((sims == best_sim) & before), axis=1)
    return {k: float(np.mean(rank < k)) for k in ks}


@dataclass(frozen=True)
class FrechetStats:
    mean: np.ndarray
    cov: np.ndarray


def frechet_stats(emb: EmbeddingSet, regularizer: float = 1e-6) -> FrechetStats:
    if emb.n < 2:
        raise InvalidData("need >= 2 samples for covariance")
    # accumulate in float64: the float32 rows would round the sums
    mean = emb.rows.mean(axis=0, dtype=np.float64)
    centered = emb.rows - mean
    cov = centered.T @ centered / (emb.n - 1)
    cov = 0.5 * (cov + cov.T) + regularizer * np.eye(emb.d)
    return FrechetStats(mean=mean, cov=cov)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (mat + mat.T))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(a: EmbeddingSet, b: EmbeddingSet) -> float:
    """Wasserstein-2 distance between Gaussian fits of two embedding sets."""
    sa = frechet_stats(a)
    sb = frechet_stats(b)
    diff = sa.mean - sb.mean
    root_a = _psd_sqrt(sa.cov)
    inner = _psd_sqrt(root_a @ sb.cov @ root_a)
    val = float(diff @ diff + np.trace(sa.cov + sb.cov - 2.0 * inner))
    return max(val, 0.0)


def build_verification_protocol(
    labels: LabelSet, pairs_per_class: int = 3, seed: int = 0
) -> VerificationProtocol:
    """Sample a balanced same/different pair list from ground truth."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pairs: list[tuple[int, int, bool]] = []
    n = labels.n
    order, bounds = groups(labels.labels, labels.num_ids)
    # a negative pair needs a second identity, a positive one two samples of one
    if labels.num_ids < 2:
        raise InvalidData(f"verification pairs need two or more identities, got {labels.num_ids}")
    if np.diff(bounds).max() < 2:
        raise InvalidData("verification pairs need an identity with two or more samples, got none")
    for ident in range(labels.num_ids):
        members = order[bounds[ident] : bounds[ident + 1]]
        if members.size < 2:
            continue
        for _ in range(pairs_per_class):
            a, b = rng.choice(members, size=2, replace=False)
            pairs.append((int(a), int(b), True))
            other = int(rng.integers(n))
            while labels.labels[other] == ident:
                other = int(rng.integers(n))
            pairs.append((int(a), other, False))
    return VerificationProtocol(tuple(pairs))
