import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforge import errors
from labelforge.cluster import clustering_from_labels
from labelforge.data import (
    UNASSIGNED,
    Clustering,
    EmbeddingSet,
    LabelSet,
    LinearHead,
    read_json,
    relabel,
    write_json,
)
from labelforge.evt import WeibullParams
from labelforge.noise import (
    CORRECT,
    OUTLIER,
    SPLIT_ID,
    average_precision,
    cross_entropy,
    fit_noise_model,
    label_cluster_errors,
    p_minus,
    train_linear_classifier,
    uncertainty_scores,
)
from labelforge.synth import SynthConfig, generate_identities, inject_label_noise


def _harness(num_ids=5, per_id=30, dim=8, sigma=0.1, seed=0):
    cfg = SynthConfig(num_ids=num_ids, samples_per_id=per_id, dim=dim,
                      within_id_sigma=sigma, seed=seed)
    return generate_identities(cfg)


# --- linear classifier ---

def test_classifier_fits_separable_data():
    emb, labels = _harness()
    c = clustering_from_labels(labels)
    head = train_linear_classifier(emb, c, seed=0)
    pred = head.logits(emb).argmax(axis=1)
    assert np.mean(pred == labels.labels) == 1.0


def test_classifier_trains_in_the_rows_dtype():
    # one epoch of one batch: the float64 draw rounded to float32 once, then
    # a float32 step; a float64 step rounded at the end differs in the last bits
    emb, labels = _harness()
    c = clustering_from_labels(labels)
    head = train_linear_classifier(emb, c, epochs=1, lr=0.5, seed=3, batch_size=emb.n)
    rng = np.random.default_rng(np.random.SeedSequence(3))
    W = (rng.standard_normal((labels.num_ids, emb.d)) * 0.01).astype(np.float32)
    order = np.arange(emb.n)
    rng.shuffle(order)
    X, y = emb.rows[order], labels.labels[order]
    z = X @ W.T
    probs = np.exp(z - z.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(emb.n), y] -= 1.0
    W -= 0.5 * (probs.T @ X / emb.n + 1e-4 * W)
    assert W.dtype == np.float32
    np.testing.assert_array_equal(head.weights, W)


def test_classifier_too_few_clusters():
    emb, _ = _harness()
    with pytest.raises(errors.TooFewClusters):
        train_linear_classifier(emb, Clustering(np.zeros(emb.n, dtype=np.int64)))


def test_classifier_divergence_raises_without_warnings():
    emb, labels = _harness()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would raise instead
        with pytest.raises(errors.TrainingDiverged, match="diverged"):
            train_linear_classifier(emb, clustering_from_labels(labels), lr=1e30)


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((12, 4))
    X /= np.linalg.norm(X, axis=1)[:, None]
    y = rng.integers(0, 3, size=12)
    W = rng.standard_normal((3, 4)) * 0.3
    l2 = 1e-3

    def loss(W):
        # float64 logits: float32 cannot resolve the 1e-6 steps
        ce = cross_entropy(X @ W.T, y)
        return float(np.mean(ce)) + 0.5 * l2 * float(np.sum(W * W))

    # analytic gradient: (softmax - onehot)^T X / n + l2 W
    z = X @ W.T
    z -= z.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    probs[np.arange(12), y] -= 1.0
    grad = probs.T @ X / 12 + l2 * W

    eps = 1e-6
    max_rel = 0.0
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            orig = W[i, j]
            W[i, j] = orig + eps
            up = loss(W)
            W[i, j] = orig - eps
            down = loss(W)
            W[i, j] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(grad[i, j]), 1e-8)
            max_rel = max(max_rel, abs(fd - grad[i, j]) / denom)
    assert max_rel < 1e-4


def test_mislabeled_samples_have_higher_loss():
    emb, labels = _harness(seed=3)
    c = clustering_from_labels(labels)
    head = train_linear_classifier(emb, c, seed=1)
    correct = cross_entropy(head.logits(emb), labels.labels)
    wrong = cross_entropy(head.logits(emb), (labels.labels + 1) % labels.num_ids)
    assert correct.mean() < wrong.mean()


# --- uncertainty metrics ---

def _fixed_head():
    # logits for the single probe row [1, 0, 0] are exactly (2, 1, 0)
    return LinearHead(np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def _probe():
    return EmbeddingSet(np.array([[1.0, 0.0, 0.0]]), normalized=True)


def test_class_margin_hand_value():
    s = uncertainty_scores(_fixed_head(), _probe(), "class_margin")
    assert s[0] == pytest.approx(1.0)


def test_max_logit_hand_value():
    s = uncertainty_scores(_fixed_head(), _probe(), "max_logit")
    assert s[0] == pytest.approx(2.0)


def test_entropy_hand_value():
    # softmax(2, 1, 0) entropy, computed independently
    e = np.exp([2.0, 1.0, 0.0])
    p = e / e.sum()
    expected = -np.sum(p * np.log(p))
    s = uncertainty_scores(_fixed_head(), _probe(), "entropy")
    # float32 logits: within a few units in the last place of the hand value
    assert s.dtype == np.float32
    assert s[0] == pytest.approx(expected, abs=8 * np.spacing(np.float32(expected)))
    assert s[0] == pytest.approx(0.8324, abs=1e-4)


def test_entropy_uniform_logits():
    head = LinearHead(np.zeros((7, 3)))
    s = uncertainty_scores(head, _probe(), "entropy")
    assert s.dtype == np.float32
    assert s[0] == pytest.approx(math.log(7), abs=8 * np.spacing(np.float32(math.log(7))))


def test_unknown_metric():
    with pytest.raises(ValueError):
        uncertainty_scores(_fixed_head(), _probe(), "margin")


# --- noise model / p_minus ---

def _bimodal_margins(seed=0, n=400):
    rng = np.random.default_rng(seed)
    low = WeibullParams(2.0, 0.4).quantile(rng.uniform(size=n))
    high = WeibullParams(3.0, 0.4).quantile(rng.uniform(size=n)) + 2.5
    return np.concatenate([low, high])


def test_noise_model_bimodal():
    x = _bimodal_margins()
    m = fit_noise_model(x, n_bins=256)
    assert x[:400].mean() < m.otsu_t < x[400:].mean()
    assert m.wb_low.shape_k > 0


def test_noise_model_one_sided():
    rng = np.random.default_rng(1)
    x = rng.normal(5, 0.001, 300)
    x[0] += 3.0
    with pytest.raises(errors.OneSidedData):
        fit_noise_model(x, n_bins=256)


def test_p_minus_limits():
    m = fit_noise_model(_bimodal_margins(seed=2), n_bins=256)
    wb = m.wb_low
    at_scale = p_minus(m, np.array([wb.shift + wb.scale_lambda]))
    assert at_scale[0] == pytest.approx(math.exp(-1), abs=1e-12)
    assert p_minus(m, np.array([wb.shift]))[0] == pytest.approx(1.0)
    assert p_minus(m, np.array([wb.shift - 10.0]))[0] == pytest.approx(1.0)


def test_p_minus_monotone_nonincreasing():
    m = fit_noise_model(_bimodal_margins(seed=3), n_bins=256)
    xs = np.linspace(-1.0, 6.0, 200)
    vals = p_minus(m, xs)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all((0.0 <= vals) & (vals <= 1.0))


def test_high_margin_samples_get_low_p_minus():
    emb, labels = _harness(seed=5)
    c = inject_label_noise(clustering_from_labels(labels), labels, 0.2, "outlier", seed=1)
    head = train_linear_classifier(emb, c, seed=2)
    margins = uncertainty_scores(head, emb, "class_margin")
    m = fit_noise_model(margins, n_bins=256)
    pm = p_minus(m, margins)
    tags = label_cluster_errors(c, labels)
    assert pm[tags == OUTLIER].mean() > pm[tags == CORRECT].mean()


def test_entropy_p_minus_rises_with_entropy():
    # higher entropy means less confident: the fit orients entropy first
    emb, labels = _harness(seed=5)
    c = inject_label_noise(clustering_from_labels(labels), labels, 0.2, "outlier", seed=1)
    head = train_linear_classifier(emb, c, seed=2)
    entropy = uncertainty_scores(head, emb, "entropy")
    m = fit_noise_model(entropy, metric="entropy", n_bins=256)
    vals = p_minus(m, np.sort(entropy))
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[-1] > vals[0]
    pm = p_minus(m, entropy)
    tags = label_cluster_errors(c, labels)
    assert pm[tags == OUTLIER].mean() > pm[tags == CORRECT].mean()


# --- ground-truth diagnostics ---

def test_label_cluster_errors_trace():
    labels = LabelSet(np.array([0, 0, 0, 1]))
    c = Clustering(np.array([0, 0, 1, 0]))
    tags = label_cluster_errors(c, labels)
    np.testing.assert_array_equal(tags, [CORRECT, CORRECT, SPLIT_ID, OUTLIER])


def test_label_cluster_errors_perfect():
    _, labels = _harness(num_ids=3, per_id=4)
    tags = label_cluster_errors(clustering_from_labels(labels), labels)
    assert np.all(tags == CORRECT)


def test_label_cluster_errors_unassigned_kept():
    labels = LabelSet(np.array([0, 0, 1, 1]))
    c = Clustering(np.array([0, 0, 1, -1]))
    tags = label_cluster_errors(c, labels)
    assert tags[3] == -1


def label_cluster_errors_reference(c, labels):
    """Per-cluster, per-identity and per-sample loops: the rule stated on
    label_cluster_errors, one item at a time."""
    n = c.n
    tags = np.full(n, -1, dtype=np.int64)
    assignment = c.assignment
    modal_label = np.full(c.num_clusters, -1, dtype=np.int64)
    for cid in range(c.num_clusters):
        members = np.flatnonzero(assignment == cid)
        counts = np.bincount(labels.labels[members], minlength=labels.num_ids)
        modal_label[cid] = int(np.argmax(counts))
    true_cluster = np.full(labels.num_ids, -1, dtype=np.int64)
    for ident in range(labels.num_ids):
        members = np.flatnonzero((labels.labels == ident) & (assignment != UNASSIGNED))
        if members.size == 0:
            continue
        counts = np.bincount(assignment[members], minlength=c.num_clusters)
        true_cluster[ident] = int(np.argmax(counts))
    for i in range(n):
        cid = assignment[i]
        if cid == UNASSIGNED:
            continue
        ident = labels.labels[i]
        if modal_label[cid] != ident:
            tags[i] = OUTLIER
        elif true_cluster[ident] != cid:
            tags[i] = SPLIT_ID
        else:
            tags[i] = CORRECT
    return tags


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(-1, 4)), min_size=1, max_size=40))
def test_label_cluster_errors_matches_reference(pairs):
    # few labels and clusters, so modal counts tie often
    labels = LabelSet(relabel(np.array([label for label, _ in pairs])))
    c = Clustering(relabel(np.array([cid for _, cid in pairs])))
    np.testing.assert_array_equal(
        label_cluster_errors(c, labels), label_cluster_errors_reference(c, labels)
    )


def test_injected_noise_is_recovered_by_tags():
    _, labels = _harness(num_ids=10, per_id=20)
    clean = clustering_from_labels(labels)
    noisy = inject_label_noise(clean, labels, 0.1, "outlier", seed=7)
    tags = label_cluster_errors(noisy, labels)
    moved = np.flatnonzero(noisy.assignment != clean.assignment)
    # every moved sample lands in a cluster dominated by another identity
    assert np.all(tags[moved] == OUTLIER)


# --- average precision ---

def test_average_precision_hand_value():
    ap = average_precision([0.9, 0.8, 0.7], [True, False, True])
    assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)


def test_average_precision_perfect_ranking():
    ap = average_precision([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
    assert ap == pytest.approx(1.0)


def test_average_precision_no_positives():
    with pytest.raises(errors.InvalidData, match="need at least one positive sample"):
        average_precision([0.5, 0.4], [False, False])


def test_average_precision_monotone_transform_invariant():
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = rng.standard_normal(50)
        pos = rng.uniform(size=50) < 0.3
        if not pos.any():
            pos[0] = True
        a = average_precision(s, pos)
        b = average_precision(np.exp(2.0 * s), pos)
        assert a == pytest.approx(b, abs=1e-12)


def test_noise_model_roundtrip(tmp_path):
    m = fit_noise_model(_bimodal_margins(seed=4), n_bins=256)
    path = tmp_path / "noise.json"
    write_json(dataclasses.asdict(m), path)
    assert read_json(path) == dataclasses.asdict(m)
