import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforge import errors
from labelforge.data import Clustering, EmbeddingSet, LabelSet, l2_normalize
from labelforge.metrics import (
    VerificationProtocol,
    bcubed_prf,
    build_verification_protocol,
    coverage,
    frechet_distance,
    frechet_stats,
    identification_rank,
    pairwise_prf,
    verification_metrics,
)
from labelforge.synth import SynthConfig, generate_identities


# --- pairwise / bcubed ---

def pairwise_oracle(assignment, labels):
    """Brute-force enumeration over all sample pairs."""
    idx = [i for i, a in enumerate(assignment) if a != -1]
    both = same_c = same_l = 0
    for i, j in itertools.combinations(idx, 2):
        sc = assignment[i] == assignment[j]
        sl = labels[i] == labels[j]
        same_c += sc
        same_l += sl
        both += sc and sl
    p = both / same_c if same_c else 1.0
    r = both / same_l if same_l else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def test_pairwise_worked_example():
    c = Clustering(np.array([0, 0, 0, 1, 1]))
    labels = LabelSet(np.array([0, 0, 1, 1, 1]))
    assert pairwise_prf(c, labels) == pytest.approx((0.5, 0.5, 0.5))


def test_pairwise_matches_oracle_randomized():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        assignment = rng.integers(-1, 4, size=n)
        labels = _contiguous(rng.integers(0, 4, size=n))
        got = pairwise_prf(_compacted(assignment), LabelSet(labels))
        want = pairwise_oracle(assignment.tolist(), labels.tolist())
        assert got == pytest.approx(want)


def _contiguous(labels):
    _, out = np.unique(labels, return_inverse=True)
    return out


def _compacted(assignment):
    out = assignment.copy()
    assigned = out != -1
    if assigned.any():
        uniq = np.unique(out[assigned])
        remap = {int(v): i for i, v in enumerate(uniq)}
        out[assigned] = [remap[int(v)] for v in out[assigned]]
    return Clustering(out)


def bcubed_oracle(assignment, labels):
    idx = [i for i, a in enumerate(assignment) if a != -1]
    precisions, recalls = [], []
    for i in idx:
        cluster = [j for j in idx if assignment[j] == assignment[i]]
        klass = [j for j in idx if labels[j] == labels[i]]
        inter = len(set(cluster) & set(klass))
        precisions.append(inter / len(cluster))
        recalls.append(inter / len(klass))
    p = float(np.mean(precisions))
    r = float(np.mean(recalls))
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def test_bcubed_worked_example():
    c = Clustering(np.array([0, 0, 0, 1, 1]))
    labels = LabelSet(np.array([0, 0, 1, 1, 1]))
    want = bcubed_oracle(c.assignment.tolist(), labels.labels.tolist())
    assert bcubed_prf(c, labels) == pytest.approx(want)


def test_bcubed_matches_oracle_randomized():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(5, 50))
        assignment = rng.integers(-1, 4, size=n)
        labels = _contiguous(rng.integers(0, 4, size=n))
        got = bcubed_prf(_compacted(assignment), LabelSet(labels))
        want = bcubed_oracle(assignment.tolist(), labels.tolist())
        assert got == pytest.approx(want)


def test_singletons_perfect_precision_low_recall():
    labels = LabelSet(np.array([0, 0, 0, 0]))
    c = Clustering(np.arange(4))
    p, r, _ = bcubed_prf(c, labels)
    assert p == pytest.approx(1.0)
    assert r == pytest.approx(0.25)
    pp, pr, _ = pairwise_prf(c, labels)
    assert pp == pytest.approx(1.0)  # zero same-cluster pairs convention
    assert pr == pytest.approx(0.0)


def test_perfect_clustering_scores_one():
    labels = LabelSet(np.array([0, 0, 1, 1, 2]))
    c = Clustering(labels.labels.copy())
    assert pairwise_prf(c, labels) == pytest.approx((1.0, 1.0, 1.0))
    assert bcubed_prf(c, labels) == pytest.approx((1.0, 1.0, 1.0))


def test_coverage():
    c = Clustering(np.array([0, 1, -1, -1]))
    assert coverage(c) == pytest.approx(0.5)


# --- verification ---

def _verification_case():
    rows = np.array([
        [1.0, 0.0], [0.99, 0.14], [0.0, 1.0], [0.14, 0.99],
    ])
    emb = l2_normalize(EmbeddingSet(rows))
    pairs = (
        (0, 1, True), (2, 3, True),
        (0, 2, False), (1, 3, False), (0, 3, False),
    )
    return emb, VerificationProtocol(pairs)


def test_verification_accuracy_sweep_oracle():
    emb, protocol = _verification_case()
    acc, _ = verification_metrics(emb, protocol)
    rows = emb.rows
    scores = [float(rows[a] @ rows[b]) for a, b, _ in protocol.pairs]
    same = [s for _, _, s in protocol.pairs]
    best = 0.0
    for t in scores:
        correct = sum(
            (sc >= t) == is_same for sc, is_same in zip(scores, same)
        )
        best = max(best, correct / len(scores))
    assert acc == pytest.approx(best)
    assert acc == pytest.approx(1.0)  # this case is separable


def verification_reference(emb, protocol, fars):
    """The original sweep, kept as the reference: two full passes over the
    pair scores per unique score (O(pairs^2))."""
    rows = emb.rows / np.linalg.norm(emb.rows, axis=1)[:, None]
    ai = np.array([p[0] for p in protocol.pairs])
    bi = np.array([p[1] for p in protocol.pairs])
    same = np.array([p[2] for p in protocol.pairs], dtype=bool)
    scores = np.sum(rows[ai] * rows[bi], axis=1)
    pos = scores[same]
    neg = scores[~same]
    best_acc = 0.0
    for t in np.unique(scores):
        acc = (np.sum(pos >= t) + np.sum(neg < t)) / scores.size
        best_acc = max(best_acc, float(acc))
    neg_sorted = np.sort(neg)[::-1]
    tar_at_far = {}
    for far in fars:
        allowed = int(np.floor(far * neg.size))
        if allowed >= neg.size:
            threshold = -np.inf
        elif allowed == 0:
            threshold = np.nextafter(neg_sorted[0], np.inf)
        else:
            threshold = np.nextafter(neg_sorted[allowed], np.inf)
        tar_at_far[far] = float(np.mean(pos >= threshold))
    return best_acc, tar_at_far


@st.composite
def tied_protocols(draw):
    """Unit rows at a few angles (so pair scores tie often), optionally one
    zero row (NaN scores), and random same/different pair flags."""
    n = draw(st.integers(2, 12))
    angles = np.array(draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))) * np.pi / 4
    rows = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))] = 0.0
    m = draw(st.integers(2, 60))
    pairs = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)), i % 2 == 0 or draw(st.booleans()))
        for i in range(m)
    ]
    pairs[1] = (pairs[1][0], pairs[1][1], False)
    return EmbeddingSet(rows), VerificationProtocol(tuple(pairs))


@given(tied_protocols(), st.lists(st.sampled_from([1e-3, 1e-2, 0.1, 0.5, 1.0]), max_size=3))
@settings(max_examples=200, deadline=None)
def test_verification_matches_reference_sweep(case, fars):
    emb, protocol = case
    with np.errstate(invalid="ignore", divide="ignore"):
        got = verification_metrics(emb, protocol, fars=tuple(fars))
        want = verification_reference(emb, protocol, tuple(fars))
    assert got == want


def test_protocol_needs_both_pair_kinds():
    with pytest.raises(errors.InvalidData, match="one positive and one negative pair"):
        VerificationProtocol(((0, 1, True), (1, 2, True)))


def test_tar_at_far_bounds_realized_far():
    rng = np.random.default_rng(2)
    pos = rng.normal(0.7, 0.1, 400)
    neg = rng.normal(0.0, 0.1, 2000)
    d = 3
    rows = np.zeros((2400 * 2, d))
    # build an embedding pair list realizing those scores exactly in 2-D
    pairs = []
    scores = np.concatenate([pos, neg])
    labels = np.concatenate([np.ones(400, bool), np.zeros(2000, bool)])
    for i, (s, is_pos) in enumerate(zip(scores, labels)):
        s = float(np.clip(s, -1.0, 1.0))
        rows[2 * i] = [1.0, 0.0, 0.0]
        rows[2 * i + 1] = [s, np.sqrt(1 - s * s), 0.0]
        pairs.append((2 * i, 2 * i + 1, bool(is_pos)))
    emb = EmbeddingSet(rows / np.linalg.norm(rows, axis=1)[:, None])
    protocol = VerificationProtocol(tuple(pairs))
    _, tars = verification_metrics(emb, protocol, fars=(1e-3, 1e-2, 1e-1))
    # realized FAR must respect each bound
    for far, tar in tars.items():
        allowed = int(np.floor(far * 2000))
        thresholds = np.sort(scores[~labels])[::-1]
        t = np.nextafter(thresholds[allowed], np.inf)
        realized_far = np.mean(scores[~labels] >= t)
        assert realized_far <= far + 1e-12
        assert tar == pytest.approx(np.mean(scores[labels] >= t), abs=1e-9)
    # TAR is monotone in FAR
    vals = [tars[f] for f in (1e-3, 1e-2, 1e-1)]
    assert vals[0] <= vals[1] <= vals[2]


# --- identification ---

def test_identification_exact_match():
    g_rows = np.eye(3)
    gallery = (EmbeddingSet(g_rows, normalized=True), np.array([10, 20, 30]))
    probe = (EmbeddingSet(g_rows, normalized=True), np.array([10, 20, 30]))
    rates = identification_rank(gallery, probe, ks=(1,))
    assert rates[1] == pytest.approx(1.0)


def test_identification_perturbed_probe():
    rng = np.random.default_rng(3)
    cfg = SynthConfig(num_ids=10, samples_per_id=2, dim=16, within_id_sigma=0.05, seed=4)
    emb, labels = generate_identities(cfg)
    gallery = (EmbeddingSet(emb.rows[::2], normalized=True), labels.labels[::2])
    probe = (EmbeddingSet(emb.rows[1::2], normalized=True), labels.labels[1::2])
    rates = identification_rank(gallery, probe, ks=(1, 5))
    assert rates[1] == pytest.approx(1.0)
    assert rates[5] >= rates[1]


def test_identification_rank_k_monotone():
    rng = np.random.default_rng(5)
    cfg = SynthConfig(num_ids=12, samples_per_id=2, dim=4, within_id_sigma=0.6, seed=6)
    emb, labels = generate_identities(cfg)
    gallery = (EmbeddingSet(emb.rows[::2], normalized=True), labels.labels[::2])
    probe = (EmbeddingSet(emb.rows[1::2], normalized=True), labels.labels[1::2])
    rates = identification_rank(gallery, probe, ks=(1, 3, 5, 12))
    assert rates[1] <= rates[3] <= rates[5] <= rates[12]
    assert rates[12] == pytest.approx(1.0)  # closed set: all ids present


def argsort_identification_rank(gallery, probe, ks):
    """The full-sort formulation rank counting replaced: a stable sort of
    each probe's gallery by descending similarity, hits among its first k."""
    (g_emb, g_ids), (p_emb, p_ids) = gallery, probe
    g_rows = g_emb.rows / np.linalg.norm(g_emb.rows, axis=1)[:, None]
    p_rows = p_emb.rows / np.linalg.norm(p_emb.rows, axis=1)[:, None]
    order = np.argsort(-(p_rows @ g_rows.T), axis=1, kind="stable")
    return {k: float(np.mean(np.any(g_ids[order[:, :k]] == p_ids[:, None], axis=1))) for k in ks}


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    g=st.integers(1, 12),
    p=st.integers(1, 12),
    palette=st.integers(1, 4),
    num_ids=st.integers(1, 5),
)
def test_identification_rank_equals_the_stable_sort(data, g, p, palette, num_ids):
    # rows drawn from a few directions: exact similarity ties; gallery ids
    # drawn from a few values: identities with several gallery entries
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    dirs = rng.standard_normal((palette, 3))
    g_rows = dirs[data.draw(st.lists(st.integers(0, palette - 1), min_size=g, max_size=g))]
    p_rows = dirs[data.draw(st.lists(st.integers(0, palette - 1), min_size=p, max_size=p))]
    g_ids = np.array(data.draw(st.lists(st.integers(0, num_ids - 1), min_size=g, max_size=g)))
    p_ids = np.array(data.draw(st.lists(st.sampled_from(sorted(set(g_ids.tolist()))),
                                        min_size=p, max_size=p)))
    gallery, probe = (EmbeddingSet(g_rows), g_ids), (EmbeddingSet(p_rows), p_ids)
    ks = (0, 1, 2, 5, g, g + 1)
    assert identification_rank(gallery, probe, ks) == argsort_identification_rank(gallery, probe, ks)


def test_identification_ties_go_to_the_lower_gallery_index():
    # two gallery entries equally similar to the probe: only the first is rank 1
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    gallery = (EmbeddingSet(rows, normalized=True), np.array([4, 5, 6]))
    for probe_id, rank1 in ((4, 1.0), (5, 0.0)):
        probe = (EmbeddingSet(rows[:1], normalized=True), np.array([probe_id]))
        assert identification_rank(gallery, probe, ks=(1, 2)) == {1: rank1, 2: 1.0}


def test_identification_open_probe_rejected():
    gallery = (EmbeddingSet(np.eye(3), normalized=True), np.array([0, 1, 2]))
    probe = (EmbeddingSet(np.eye(3), normalized=True), np.array([0, 1, 7]))
    with pytest.raises(errors.InvalidData, match=r"probe ids not in gallery: \[7\]"):
        identification_rank(gallery, probe)


# --- Frechet ---

def test_frechet_self_distance_zero():
    rng = np.random.default_rng(7)
    emb = l2_normalize(EmbeddingSet(rng.standard_normal((500, 8))))
    assert frechet_distance(emb, emb) < 1e-6


def test_frechet_one_dimensional_analytic():
    # N(0,1) vs N(1,1) in 2-D with a dummy zero-variance axis:
    # distance = |mean diff|^2 + (sigma - sigma)^2 = 1.0
    rng = np.random.default_rng(8)
    n = 100_000
    a = np.column_stack([rng.normal(0.0, 1.0, n), np.zeros(n)])
    b = np.column_stack([rng.normal(1.0, 1.0, n), np.zeros(n)])
    d = frechet_distance(EmbeddingSet(a), EmbeddingSet(b))
    assert d == pytest.approx(1.0, rel=0.05)


def test_frechet_symmetry():
    rng = np.random.default_rng(9)
    a = l2_normalize(EmbeddingSet(rng.standard_normal((300, 6))))
    b = l2_normalize(EmbeddingSet(rng.standard_normal((300, 6)) + 0.3))
    dab = frechet_distance(a, b)
    dba = frechet_distance(b, a)
    assert abs(dab - dba) < 1e-8
    assert dab > 0


def test_frechet_stats_too_few():
    emb = EmbeddingSet(np.ones((1, 3)), normalized=False)
    with pytest.raises(errors.InvalidData, match="need >= 2 samples for covariance"):
        frechet_stats(emb)


# --- protocol builder ---

def test_build_protocol_balanced_and_consistent():
    cfg = SynthConfig(num_ids=8, samples_per_id=6, dim=8, within_id_sigma=0.1, seed=10)
    _, labels = generate_identities(cfg)
    protocol = build_verification_protocol(labels, pairs_per_class=3, seed=0)
    same = [s for _, _, s in protocol.pairs]
    assert sum(same) == len(same) - sum(same)  # balanced
    for a, b, s in protocol.pairs:
        assert (labels.labels[a] == labels.labels[b]) == s


@pytest.mark.parametrize(
    "labels, cause",
    [(np.zeros(6), "two or more identities, got 1"),
     (np.arange(6), "an identity with two or more samples")],
    ids=["one-identity", "all-singletons"],
)
def test_build_protocol_rejects_labels_it_cannot_pair(labels, cause):
    # one identity once made the negative-pair redraw loop forever
    with pytest.raises(errors.InvalidData, match=cause):
        build_verification_protocol(LabelSet(labels), pairs_per_class=3, seed=0)
