"""Test-only helpers that the pipeline never calls: structured pseudo-label
noise for the noise and retraining tests (criteria 07 and 08), and the
softmax cross-entropy the noise classifier's gradient is checked against.
"""

import numpy as np

from labelforge.data import UNASSIGNED, Clustering, LabelSet, groups, relabel
from labelforge.errors import InvalidData


def inject_label_noise(
    c: Clustering, labels: LabelSet, rate: float, mode: str, seed: int
) -> Clustering:
    """Corrupt a ground-truth-derived clustering with structured noise.

    ``outlier`` reassigns floor(rate * n) random samples to a random other
    cluster; ``split_id`` splits floor(rate * num_clusters) random clusters,
    moving a random half of each into a fresh cluster.
    """
    if not 0.0 <= rate < 1.0:
        raise InvalidData(f"rate {rate} not in [0, 1)")
    if mode not in ("outlier", "split_id"):
        raise ValueError(f"unknown noise mode {mode!r}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    assignment = c.assignment.copy()
    num_clusters = c.num_clusters

    if mode == "outlier":
        assigned = np.flatnonzero(assignment != UNASSIGNED)
        count = int(rate * assignment.size)
        count = min(count, assigned.size)
        if count and num_clusters >= 2:
            victims = rng.choice(assigned, size=count, replace=False)
            for i in victims:
                cur = assignment[i]
                offset = rng.integers(1, num_clusters)
                assignment[i] = (cur + offset) % num_clusters
    else:
        count = int(rate * num_clusters)
        if count:
            targets = rng.choice(num_clusters, size=count, replace=False)
            next_id = num_clusters
            # moved members get fresh ids, so the groups of the targets hold
            order, bounds = groups(assignment, num_clusters)
            for cid in targets:
                members = order[bounds[cid] : bounds[cid + 1]]
                if members.size < 2:
                    continue
                half = members.size // 2
                moved = rng.choice(members, size=half, replace=False)
                assignment[moved] = next_id
                next_id += 1
    return Clustering(relabel(assignment), p_minus=c.p_minus)


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample negative log-likelihood of the given targets under the
    softmax of ``logits``, in their dtype."""
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return -log_probs[np.arange(len(y)), y]
