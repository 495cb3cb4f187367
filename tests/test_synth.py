import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforge import errors
from labelforge.data import UNASSIGNED, Clustering, EmbeddingSet, LabelSet, relabel
from labelforge.synth import (
    SplitSpec,
    SynthConfig,
    generate_identities,
    make_overlap_split,
)
from noise_helpers import inject_label_noise


def test_zero_sigma_collapses_to_prototype():
    cfg = SynthConfig(num_ids=3, samples_per_id=4, dim=8, within_id_sigma=0.0, seed=7)
    emb, labels = generate_identities(cfg)
    for ident in range(3):
        rows = emb.rows[labels.labels == ident]
        np.testing.assert_allclose(rows, np.broadcast_to(rows[0], rows.shape), atol=1e-12)


def test_determinism():
    cfg = SynthConfig(num_ids=5, samples_per_id=6, dim=16, within_id_sigma=0.3, seed=99)
    emb1, lab1 = generate_identities(cfg)
    emb2, lab2 = generate_identities(cfg)
    assert np.array_equal(emb1.rows, emb2.rows)
    assert np.array_equal(lab1.labels, lab2.labels)


def test_unit_norm():
    cfg = SynthConfig(num_ids=4, samples_per_id=10, dim=12, within_id_sigma=0.5, seed=1)
    emb, _ = generate_identities(cfg)
    np.testing.assert_allclose(np.linalg.norm(emb.rows, axis=1), 1.0, atol=1e-6)


def test_within_vs_cross_similarity():
    cfg = SynthConfig(num_ids=50, samples_per_id=40, dim=32, within_id_sigma=0.25, seed=3)
    emb, labels = generate_identities(cfg)
    sims = emb.rows @ emb.rows.T
    same = labels.labels[:, None] == labels.labels[None, :]
    np.fill_diagonal(same, False)
    off_diag = ~np.eye(emb.n, dtype=bool)
    within = sims[same].mean()
    cross = sims[off_diag & ~same].mean()
    assert within > cross


def test_long_tail_counts():
    cfg = SynthConfig(
        num_ids=30, samples_per_id=5, dim=8, within_id_sigma=0.1, seed=11,
        samples_per_id_max=50,
    )
    _, labels = generate_identities(cfg)
    counts = np.bincount(labels.labels)
    assert counts.min() >= 5 and counts.max() <= 50
    assert counts.min() < counts.max()


def _harness(num_ids=20, per_id=10, seed=0):
    cfg = SynthConfig(num_ids=num_ids, samples_per_id=per_id, dim=8,
                      within_id_sigma=0.2, seed=seed)
    return generate_identities(cfg)


def test_split_disjoint_no_overlap_mask():
    emb, labels = _harness()
    labeled, unlabeled, mask = make_overlap_split(
        emb, labels, SplitSpec(labeled_id_fraction=0.5, overlap_id_fraction=0.0, seed=1)
    )
    assert not mask.any()


def test_split_full_overlap():
    emb, labels = _harness()
    labeled, unlabeled, mask = make_overlap_split(
        emb, labels, SplitSpec(labeled_id_fraction=1.0, overlap_id_fraction=1.0, seed=1)
    )
    assert mask.all()


def test_split_group_sizes():
    cfg = SynthConfig(num_ids=100, samples_per_id=4, dim=8, within_id_sigma=0.1, seed=5)
    emb, labels = generate_identities(cfg)
    labeled, unlabeled, mask = make_overlap_split(
        emb, labels, SplitSpec(labeled_id_fraction=0.5, overlap_id_fraction=0.2, seed=2)
    )
    labeled_ids = set(labels.labels[labeled].tolist())
    unlabeled_ids = set(labels.labels[unlabeled].tolist())
    overlap_ids = labeled_ids & unlabeled_ids
    assert len(overlap_ids) == 20
    assert len(labeled_ids - overlap_ids) == 40
    assert len(unlabeled_ids - overlap_ids) == 40


def test_split_partition_property():
    emb, labels = _harness(seed=4)
    labeled, unlabeled, mask = make_overlap_split(
        emb, labels, SplitSpec(labeled_id_fraction=0.6, overlap_id_fraction=0.3, seed=9)
    )
    assert set(labeled.tolist()) | set(unlabeled.tolist()) == set(range(emb.n))
    assert not set(labeled.tolist()) & set(unlabeled.tolist())
    # mask is exactly the brute-force membership test
    labeled_id_set = set(labels.labels[labeled].tolist())
    expected = np.array([int(labels.labels[i]) in labeled_id_set for i in unlabeled])
    np.testing.assert_array_equal(mask, expected)


def _split_by_identity_scans(labels, spec):
    """make_overlap_split as one membership scan per identity: the
    reference for the grouped version."""
    num_ids = labels.num_ids
    n_overlap = int(round(spec.overlap_id_fraction * num_ids))
    n_labeled_only = int(round(spec.labeled_id_fraction * (num_ids - n_overlap)))
    perm = np.random.default_rng(np.random.SeedSequence(spec.seed)).permutation(num_ids)
    overlap_ids = set(perm[:n_overlap].tolist())
    labeled_ids = set(perm[n_overlap : n_overlap + n_labeled_only].tolist())
    labeled_idx, unlabeled_idx = [], []
    for ident in range(num_ids):
        members = np.flatnonzero(labels.labels == ident)
        if ident in labeled_ids:
            labeled_idx.extend(members.tolist())
        elif ident in overlap_ids:
            half = len(members) // 2
            labeled_idx.extend(members[:half].tolist())
            unlabeled_idx.extend(members[half:].tolist())
        else:
            unlabeled_idx.extend(members.tolist())
    labeled = np.array(sorted(labeled_idx), dtype=np.int64)
    unlabeled = np.array(sorted(unlabeled_idx), dtype=np.int64)
    labeled_id_set = set(labels.labels[labeled].tolist())
    mask = np.array([int(labels.labels[i]) in labeled_id_set for i in unlabeled], dtype=bool)
    return labeled, unlabeled, mask


# the messages with which make_overlap_split refuses a split it cannot make
_SPLIT_REFUSALS = {
    "overlap fraction nonzero but no overlap ids",
    "no labeled-only identities",
    "no unlabeled-only identities",
    "labeled split would be empty",
}


@given(
    st.lists(st.integers(1, 6), min_size=2, max_size=15),
    st.sampled_from([0.3, 0.5, 0.8, 1.0]),
    st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    st.integers(0, 2**16),
)
@settings(max_examples=200, deadline=None)
def test_split_equals_per_identity_scans(sizes, labeled_fraction, overlap_fraction, seed):
    rng = np.random.default_rng(seed)
    labels = LabelSet(rng.permutation(np.repeat(np.arange(len(sizes)), sizes)))
    emb = EmbeddingSet(np.ones((labels.n, 2)))
    spec = SplitSpec(labeled_fraction, overlap_fraction, seed)
    try:
        got = make_overlap_split(emb, labels, spec)
    except errors.InvalidData as exc:
        # only the split's own refusals; any other InvalidData fails the test
        assert str(exc) in _SPLIT_REFUSALS
        return
    for a, b in zip(got, _split_by_identity_scans(labels, spec)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@given(st.lists(st.integers(-1, 6), min_size=1, max_size=40), st.integers(0, 2**16))
@settings(max_examples=200, deadline=None)
def test_split_id_noise_equals_per_cluster_scans(ids, seed):
    c = Clustering(relabel(np.array(ids)))
    got = inject_label_noise(c, None, 0.5, "split_id", seed)
    # the per-cluster scans the grouped version replaced
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    assignment = c.assignment.copy()
    next_id = c.num_clusters
    for cid in rng.choice(c.num_clusters, size=int(0.5 * c.num_clusters), replace=False):
        members = np.flatnonzero(assignment == cid)
        if members.size >= 2:
            assignment[rng.choice(members, size=members.size // 2, replace=False)] = next_id
            next_id += 1
    np.testing.assert_array_equal(got.assignment, relabel(assignment))


def test_split_insufficient_ids():
    emb, labels = _harness(num_ids=2)
    with pytest.raises(errors.InvalidData, match="no labeled-only identities"):
        make_overlap_split(
            emb, labels,
            SplitSpec(labeled_id_fraction=0.01, overlap_id_fraction=0.0, seed=0),
        )


def test_noise_rate_zero_unchanged():
    _, labels = _harness()
    c = Clustering(labels.labels)
    out = inject_label_noise(c, labels, rate=0.0, mode="outlier", seed=0)
    np.testing.assert_array_equal(out.assignment, c.assignment)


def test_noise_rate_out_of_range():
    _, labels = _harness()
    c = Clustering(labels.labels)
    with pytest.raises(errors.InvalidData, match=r"rate 1\.0 not in \[0, 1\)"):
        inject_label_noise(c, labels, rate=1.0, mode="outlier", seed=0)


def test_outlier_noise_diff_count():
    cfg = SynthConfig(num_ids=10, samples_per_id=10, dim=8, within_id_sigma=0.1, seed=2)
    _, labels = generate_identities(cfg)  # n = 100
    c = Clustering(labels.labels)
    out = inject_label_noise(c, labels, rate=0.2, mode="outlier", seed=3)
    assert int(np.sum(out.assignment != c.assignment)) == 20


def test_split_id_noise_moves_half():
    cfg = SynthConfig(num_ids=5, samples_per_id=10, dim=8, within_id_sigma=0.1, seed=2)
    _, labels = generate_identities(cfg)
    c = Clustering(labels.labels)
    out = inject_label_noise(c, labels, rate=0.21, mode="split_id", seed=3)
    assert out.num_clusters == c.num_clusters + 1
    # exactly one original cluster lost exactly half its members
    moved = int(np.sum(out.assignment != c.assignment))
    assert moved == 5
    assert out.assignment[out.assignment != c.assignment].tolist() == [5] * 5 or moved == 5


def test_noise_preserves_invariants():
    _, labels = _harness(seed=8)
    c = Clustering(labels.labels)
    for mode in ("outlier", "split_id"):
        out = inject_label_noise(c, labels, rate=0.3, mode=mode, seed=5)
        assigned = out.assignment[out.assignment != UNASSIGNED]
        assert np.array_equal(np.unique(assigned), np.arange(out.num_clusters))
