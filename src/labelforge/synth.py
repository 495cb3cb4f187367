"""Synthetic embedding harness.

Generates identity-structured unit-norm embeddings (one spherical prototype
per identity, gaussian perturbation, renormalization) and builds labeled /
unlabeled splits with controlled identity overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EmbeddingSet, LabelSet, groups
from .errors import InvalidData


@dataclass(frozen=True)
class SynthConfig:
    num_ids: int
    samples_per_id: int
    dim: int
    within_id_sigma: float
    seed: int
    # long-tail option: per-id counts drawn log-uniform in
    # [samples_per_id, samples_per_id_max] when the max is set
    samples_per_id_max: int | None = None

    def __post_init__(self):
        if self.num_ids < 2:
            raise ValueError("num_ids must be >= 2")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.within_id_sigma < 0:
            raise ValueError("within_id_sigma must be >= 0")
        if self.samples_per_id < 1:
            raise ValueError("samples_per_id must be >= 1")
        if self.samples_per_id_max is not None and self.samples_per_id_max < self.samples_per_id:
            raise ValueError("samples_per_id_max must be >= samples_per_id")


@dataclass(frozen=True)
class SplitSpec:
    labeled_id_fraction: float
    overlap_id_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.labeled_id_fraction <= 1.0:
            raise ValueError("labeled_id_fraction must be in (0, 1]")
        if not 0.0 <= self.overlap_id_fraction <= 1.0:
            raise ValueError("overlap_id_fraction must be in [0, 1]")


def generate_identities(cfg: SynthConfig) -> tuple[EmbeddingSet, LabelSet]:
    """Draw per-identity prototypes uniformly on the sphere and perturb.

    Deterministic given ``cfg.seed``; per-identity sub-streams keep the
    output independent of generation order.
    """
    root = np.random.SeedSequence(cfg.seed)
    id_seeds = root.spawn(cfg.num_ids)
    all_rows = []
    all_labels = []
    for ident in range(cfg.num_ids):
        rng = np.random.default_rng(id_seeds[ident])
        proto = rng.standard_normal(cfg.dim)
        proto /= np.linalg.norm(proto)
        if cfg.samples_per_id_max is None:
            count = cfg.samples_per_id
        else:
            lo, hi = np.log(cfg.samples_per_id), np.log(cfg.samples_per_id_max + 1)
            count = int(np.exp(rng.uniform(lo, hi)))
            count = max(cfg.samples_per_id, min(count, cfg.samples_per_id_max))
        noise = rng.standard_normal((count, cfg.dim)) * cfg.within_id_sigma
        rows = proto[None, :] + noise
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        all_rows.append(rows)
        all_labels.append(np.full(count, ident, dtype=np.int64))
    emb = EmbeddingSet(np.vstack(all_rows), normalized=True)
    return emb, LabelSet(np.concatenate(all_labels))


def make_overlap_split(
    emb: EmbeddingSet, labels: LabelSet, spec: SplitSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition samples into labeled / unlabeled with controlled id overlap.

    Identities are split into labeled-only, overlap and unlabeled-only
    groups. The labeled side gets all samples of labeled-only ids plus the
    first half (rounded down) of each overlap id's samples; everything else
    is unlabeled. Returns (labeled_idx, unlabeled_idx, gt_overlap_mask)
    where the mask flags unlabeled samples whose identity also appears in
    the labeled split.
    """
    num_ids = labels.num_ids
    n_overlap = int(round(spec.overlap_id_fraction * num_ids))
    remaining = num_ids - n_overlap
    n_labeled_only = int(round(spec.labeled_id_fraction * remaining))
    n_unlabeled_only = remaining - n_labeled_only
    if spec.overlap_id_fraction > 0 and n_overlap == 0:
        raise InvalidData("overlap fraction nonzero but no overlap ids")
    if remaining > 0 and n_labeled_only == 0:
        raise InvalidData("no labeled-only identities")
    if remaining > 0 and spec.labeled_id_fraction < 1.0 and n_unlabeled_only == 0:
        raise InvalidData("no unlabeled-only identities")
    if n_labeled_only == 0 and n_overlap == 0:
        raise InvalidData("labeled split would be empty")

    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    perm = rng.permutation(num_ids)
    overlap_ids = perm[:n_overlap]
    labeled_ids = perm[n_overlap : n_overlap + n_labeled_only]

    # each identity's first `keep` members, in index order, are labeled
    order, bounds = groups(labels.labels, num_ids)
    sizes = np.diff(bounds)
    keep = np.zeros(num_ids, dtype=np.int64)
    keep[labeled_ids] = sizes[labeled_ids]
    keep[overlap_ids] = sizes[overlap_ids] // 2
    rank = np.arange(labels.n) - np.repeat(bounds[:-1], sizes)
    is_labeled = np.zeros(labels.n, dtype=bool)
    is_labeled[order[rank < np.repeat(keep, sizes)]] = True
    unlabeled = np.flatnonzero(~is_labeled)
    return np.flatnonzero(is_labeled), unlabeled, keep[labels.labels[unlabeled]] > 0
