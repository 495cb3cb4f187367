import math

import numpy as np
import pytest

import head_reference as ref
from labelforge import errors
from labelforge.data import Clustering, EmbeddingSet, LabelSet, LinearHead
from labelforge.synth import SynthConfig, generate_identities
from labelforge.train import (
    EncoderParams,
    LossConfig,
    TrainedModel,
    _class_mean_init,
    _full_loss,
    _loss_and_grads,
    embed,
    load_trained_model,
    save_trained_model,
    train_head,
)


# --- per-sample references for the batched loss ---

def cosine_loss(feature: np.ndarray, weights: np.ndarray, label_j: int, cfg: LossConfig) -> float:
    """Additive cosine-margin loss for one sample under the head ``weights``
    (one row per class), computed in float64.

    Requires unit-norm feature and head rows; the margin is subtracted
    from the target-class cosine before scaling.
    """
    f = np.asarray(feature, dtype=np.float64)
    if abs(np.linalg.norm(f) - 1.0) > 1e-5:
        raise errors.InvalidData("feature must be unit-norm")
    norms = np.linalg.norm(weights, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-5):
        raise errors.InvalidData("head rows must be unit-norm")
    logits = cfg.alpha * (weights @ f)
    logits[label_j] -= cfg.alpha * cfg.margin_m
    shifted = logits - logits.max()
    log_z = np.log(np.exp(shifted).sum())
    return float(log_z - shifted[label_j])


def weighted_loss(loss: float, p_minus_value: float, gamma: float) -> float:
    """Uncertainty modulation: (1 - p_minus)^gamma * loss."""
    return (1.0 - p_minus_value) ** gamma * loss


def _unit_head():
    return np.array([[1.0, 0.0], [0.0, 1.0]])


# --- loss hand values ---

def test_cosine_loss_no_margin():
    cfg = LossConfig(alpha=1.0, margin_m=0.0)
    loss = cosine_loss(np.array([1.0, 0.0]), _unit_head(), 0, cfg)
    assert loss == pytest.approx(math.log(1 + math.exp(-1.0)), abs=1e-12)
    assert loss == pytest.approx(0.31326, abs=1e-5)


def test_cosine_loss_margin_penalizes_target():
    cfg = LossConfig(alpha=1.0, margin_m=0.35)
    loss = cosine_loss(np.array([1.0, 0.0]), _unit_head(), 0, cfg)
    # target cosine 1 becomes 0.65; competitor stays at 0
    assert loss == pytest.approx(math.log(1 + math.exp(-0.65)), abs=1e-12)
    assert loss > cosine_loss(np.array([1.0, 0.0]), _unit_head(), 0,
                              LossConfig(alpha=1.0, margin_m=0.0))


def test_cosine_loss_identical_rows():
    head = np.array([[1.0, 0.0], [1.0, 0.0]])
    cfg = LossConfig(alpha=16.0, margin_m=0.0)
    loss = cosine_loss(np.array([0.6, 0.8]), head, 0, cfg)
    assert loss == pytest.approx(math.log(2), abs=1e-12)


def test_cosine_loss_alpha_scales_confidence():
    cfg_lo = LossConfig(alpha=1.0, margin_m=0.0)
    cfg_hi = LossConfig(alpha=16.0, margin_m=0.0)
    f = np.array([1.0, 0.0])
    assert cosine_loss(f, _unit_head(), 0, cfg_hi) < cosine_loss(f, _unit_head(), 0, cfg_lo)


def test_cosine_loss_requires_unit_feature():
    with pytest.raises(errors.InvalidData, match="feature must be unit-norm"):
        cosine_loss(np.array([2.0, 0.0]), _unit_head(), 0, LossConfig())


def test_cosine_loss_requires_unit_head_rows():
    head = np.array([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(errors.InvalidData, match="head rows must be unit-norm"):
        cosine_loss(np.array([1.0, 0.0]), head, 0, LossConfig())


def test_weighted_loss_arithmetic():
    assert weighted_loss(4.0, 0.5, 2.0) == pytest.approx(1.0)
    assert weighted_loss(3.0, 0.0, 1.0) == pytest.approx(3.0)
    assert weighted_loss(3.0, 1.0, 1.0) == pytest.approx(0.0)


def test_batched_loss_is_the_weighted_mean_of_per_sample_losses():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 4))
    X /= np.linalg.norm(X, axis=1)[:, None]
    W = rng.standard_normal((3, 4))
    W /= np.linalg.norm(W, axis=1)[:, None]
    y = rng.integers(0, 3, size=12)
    p_minus = rng.uniform(0.0, 0.9, size=12)
    cfg = LossConfig(alpha=8.0, margin_m=0.2, gamma=2.0)
    weights = (1.0 - p_minus) ** cfg.gamma
    # the encoder at init maps unit rows to themselves
    enc = _astype(EncoderParams.identity(4, seed=3), np.float64)
    loss, _, _ = _loss_and_grads(W, enc, X, y, weights, cfg)
    per_sample = [
        weighted_loss(cosine_loss(x, W, int(j), cfg), p, cfg.gamma)
        for x, j, p in zip(X, y, p_minus)
    ]
    assert loss == pytest.approx(sum(per_sample) / weights.sum(), rel=1e-12)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(alpha=0.0)
    with pytest.raises(ValueError):
        LossConfig(margin_m=1.5)
    with pytest.raises(ValueError):
        LossConfig(gamma=-1.0)


# --- gradients ---

def _fd_check(params, grads, loss_fn, eps=1e-6):
    max_rel = 0.0
    for array, grad in zip(params, grads):
        flat = array.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn()
            flat[i] = orig - eps
            down = loss_fn()
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            max_rel = max(max_rel, abs(fd - gflat[i]) / denom)
    return max_rel


def test_head_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10, 4))
    X /= np.linalg.norm(X, axis=1)[:, None]
    y = rng.integers(0, 3, size=10)
    w = rng.uniform(0.2, 1.0, size=10)
    W = rng.standard_normal((3, 4))
    # the encoder at init maps unit rows to themselves: the head alone moves
    enc = _astype(EncoderParams.identity(4, seed=0), np.float64)
    cfg = LossConfig(alpha=8.0, margin_m=0.2)
    _, dW, _ = _loss_and_grads(W, enc, X, y, w, cfg)
    max_rel = _fd_check([W], [dW], lambda: _loss_and_grads(W, enc, X, y, w, cfg)[0])
    assert max_rel < 1e-4


def test_encoder_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((8, 3))
    X /= np.linalg.norm(X, axis=1)[:, None]
    y = rng.integers(0, 2, size=8)
    w = rng.uniform(0.2, 1.0, size=8)
    W = rng.standard_normal((2, 3))
    # the kernel runs in float64 here: float32 cannot resolve the 1e-6 steps
    enc = _astype(EncoderParams.identity(3, seed=2), np.float64)
    enc.W += rng.standard_normal((3, 3)) * 0.1
    enc.V += rng.standard_normal((3, 3)) * 0.1
    cfg = LossConfig(alpha=4.0, margin_m=0.1)
    _, dW, d_enc = _loss_and_grads(W, enc, X, y, w, cfg)
    loss_fn = lambda: _loss_and_grads(W, enc, X, y, w, cfg)[0]
    max_rel = _fd_check(
        [W, enc.W, enc.U, enc.V],
        [dW, d_enc.W, d_enc.U, d_enc.V],
        loss_fn,
    )
    assert max_rel < 1e-4


def _astype(enc, dtype):
    return EncoderParams(*(a.astype(dtype) for a in (enc.W, enc.U, enc.V)))


def _batch(moved, dtype=np.float64, seed=15):
    """A batch, a head and an encoder: the identity every training starts
    from (V = 0, so U gets a zero gradient), or one ``moved`` off it."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((40, 6))
    X /= np.linalg.norm(X, axis=1)[:, None]
    y = rng.integers(0, 4, size=40)
    w = rng.uniform(0.2, 1.0, size=40)
    W = rng.standard_normal((4, 6))
    enc = _astype(EncoderParams.identity(6, seed=seed), np.float64)
    if moved:
        enc.V += rng.standard_normal((6, 6)) * 0.1
    return X.astype(dtype), y, w.astype(dtype), W.astype(dtype), _astype(enc, dtype)


@pytest.mark.parametrize("moved", [False, True])
def test_float64_loss_and_grads_match_the_reference(moved):
    X, y, w, W, enc = _batch(moved)
    cfg = LossConfig(alpha=16.0, margin_m=0.35)
    loss, dW, d_enc = _loss_and_grads(W, enc, X, y, w, cfg)
    ref_loss, ref_dW, ref_enc = ref.loss_and_grads(W, enc, X, y, w, cfg)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    np.testing.assert_allclose(dW, ref_dW, rtol=1e-12, atol=1e-15)
    for name in "WUV":
        np.testing.assert_allclose(
            getattr(d_enc, name), getattr(ref_enc, name), rtol=1e-12, atol=1e-15
        )


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("moved", [False, True])
def test_gradients_follow_the_input_dtype(dtype, moved):
    X, y, w, W, enc = _batch(moved, dtype)
    _, dW, d_enc = _loss_and_grads(W, enc, X, y, w, LossConfig())
    assert {dW.dtype, d_enc.W.dtype, d_enc.U.dtype, d_enc.V.dtype} == {np.dtype(dtype)}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("moved", [False, True])
def test_loss_without_grads_is_the_same_loss(dtype, moved):
    X, y, w, W, enc = _batch(moved, dtype)
    cfg = LossConfig()
    loss, _, _ = _loss_and_grads(W, enc, X, y, w, cfg)
    for chunk in (7, 40, 256):
        assert _full_loss(W, enc, X, y, w, cfg, chunk) == loss


@pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
def test_chunked_full_set_loss_is_the_one_pass_loss(n):
    # the training set's dtype and width; the one-pass loss is the reference
    rng = np.random.default_rng(n)
    d, k = 128, 12
    X = rng.standard_normal((n, d)).astype(np.float32)
    X /= np.linalg.norm(X, axis=1)[:, None]
    y = rng.integers(0, k, size=n)
    w = rng.uniform(0.2, 1.0, size=n).astype(np.float32)
    W = rng.standard_normal((k, d)).astype(np.float32)
    enc = EncoderParams.identity(d, seed=n)
    enc.V += (rng.standard_normal((d, d)) * 0.1).astype(np.float32)
    loss, _, _ = _loss_and_grads(W, enc, X, y, w, LossConfig())
    assert _full_loss(W, enc, X, y, w, LossConfig(), 256) == loss


# --- training ---

def _harness(num_ids=6, per_id=20, dim=8, sigma=0.1, seed=0):
    cfg = SynthConfig(num_ids=num_ids, samples_per_id=per_id, dim=dim,
                      within_id_sigma=sigma, seed=seed)
    return generate_identities(cfg)


def test_train_head_reduces_loss():
    emb, labels = _harness()
    model = train_head((emb, labels), None, LossConfig(), epochs=20, seed=0)
    assert model.final_loss < model.initial_loss


def test_trained_head_rows_unit_norm():
    emb, labels = _harness(seed=1)
    model = train_head((emb, labels), None, LossConfig(), epochs=5, seed=0)
    norms = np.linalg.norm(model.head.weights, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)


def test_trained_head_classifies_training_ids():
    emb, labels = _harness(seed=2)
    model = train_head((emb, labels), None, LossConfig(), epochs=200, seed=0)
    pred = model.head.logits(emb).argmax(axis=1)
    assert np.mean(pred == labels.labels) > 0.95


def test_pseudo_classes_offset_past_labeled():
    emb, labels = _harness(num_ids=3, per_id=10, seed=3)
    # every other sample goes to the labeled side so all 3 ids appear there
    labeled = (EmbeddingSet(emb.rows[::2], normalized=True),
               LabelSet(labels.labels[::2]))
    pseudo_emb = EmbeddingSet(emb.rows[1::2], normalized=True)
    pseudo = Clustering(np.repeat([0, 1, 2], emb.n // 2 // 3))
    model = train_head(labeled, (pseudo_emb, pseudo), LossConfig(), epochs=2, seed=0)
    assert model.head.weights.shape[0] == 3 + 3


def test_pseudo_length_mismatch():
    emb, labels = _harness(num_ids=2, per_id=5, seed=4)
    pseudo = Clustering(np.zeros(3, dtype=np.int64))
    with pytest.raises(errors.InvalidData, match="disagree in length"):
        train_head((emb, labels), (emb, pseudo), LossConfig(), epochs=1)


def test_single_class_rejected():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((10, 4))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    emb = EmbeddingSet(rows, normalized=True)
    labels = LabelSet(np.zeros(10, dtype=np.int64))
    with pytest.raises(errors.InvalidData, match="need at least 2 classes"):
        train_head((emb, labels), None, LossConfig(), epochs=1)


def test_zero_weight_pseudo_samples_are_ignored():
    """p_minus = 1 makes a sample's weight vanish: corrupted pseudo samples
    with certain-noise flags must not hurt the head."""
    emb, labels = _harness(num_ids=4, per_id=20, seed=6)
    rng = np.random.default_rng(7)
    junk = rng.standard_normal((30, emb.d))
    junk /= np.linalg.norm(junk, axis=1)[:, None]
    pseudo_emb = EmbeddingSet(junk, normalized=True)
    pseudo = Clustering(
        np.zeros(30, dtype=np.int64), p_minus=np.ones(30)
    )
    clean = train_head((emb, labels), None, LossConfig(), epochs=30, seed=1)
    soft = train_head((emb, labels), (pseudo_emb, pseudo), LossConfig(),
                      epochs=30, seed=1, use_weights=True)
    # compare over the labeled classes only; the junk class row exists in
    # the soft head but its samples carried zero weight
    pred = soft.head.logits(emb)[:, :4].argmax(axis=1)
    clean_pred = clean.head.logits(emb).argmax(axis=1)
    assert np.mean(pred == labels.labels) >= np.mean(clean_pred == labels.labels) - 0.02


def _labeled_and_pseudo(seed):
    """Labeled ids 0-3 and a weighted pseudo clustering of ids 4-7."""
    emb, labels = _harness(num_ids=8, per_id=20, dim=16, sigma=0.3, seed=seed)
    lab = labels.labels < 4
    labeled = (EmbeddingSet(emb.rows[lab], normalized=True), LabelSet(labels.labels[lab]))
    p_minus = np.random.default_rng(seed).uniform(0.0, 0.8, size=int((~lab).sum()))
    pseudo = Clustering(labels.labels[~lab] - 4, p_minus=p_minus)
    return labeled, (EmbeddingSet(emb.rows[~lab], normalized=True), pseudo)


@pytest.mark.parametrize("with_pseudo", [False, True])
def test_float32_training_tracks_the_float64_reference(with_pseudo):
    labeled, pseudo = _labeled_and_pseudo(seed=14)
    pseudo = pseudo if with_pseudo else None
    kwargs = dict(epochs=30, seed=3, use_weights=True, batch_size=32)
    model = train_head(labeled, pseudo, LossConfig(), **kwargs)
    W, enc, initial_loss, final_loss = ref.train_head(labeled, pseudo, LossConfig(), **kwargs)
    assert abs(model.initial_loss - initial_loss) < 1e-4
    assert abs(model.final_loss - final_loss) < 1e-4
    np.testing.assert_allclose(model.head.weights, W, rtol=0, atol=1e-4)
    for name in "WUV":
        np.testing.assert_allclose(
            getattr(model.encoder, name), getattr(enc, name), rtol=0, atol=1e-4
        )


@pytest.mark.parametrize("n, k, d", [(200, 7, 16), (300, 40, 5), (57, 9, 128)])
def test_class_mean_init_equals_per_class_masks(n, k, d):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, d))
    # classes 0 and k - 1 left empty: their rows stay random
    y = rng.integers(1, k - 1, size=n)
    got = _class_mean_init(X, y, k, np.random.default_rng(5))
    want = ref.class_mean_init(X, y, k, np.random.default_rng(5))
    np.testing.assert_array_equal(got, want)


def test_head_divergence_is_a_typed_error():
    emb, labels = _harness(seed=16)
    with pytest.raises(errors.TrainingDiverged, match="diverged"):
        train_head((emb, labels), None, LossConfig(), epochs=5, lr=1e30, seed=0)


# --- encoder ---

def test_encoder_identity_at_init():
    emb, _ = _harness(num_ids=2, per_id=5, seed=8)
    model = TrainedModel(head=LinearHead(np.eye(emb.d)),
                         encoder=EncoderParams.identity(emb.d, seed=0))
    out = embed(model, emb)
    # x I + relu(x U) 0 is x exactly in float32: what is left is the renormalization
    np.testing.assert_array_equal(out.rows, emb.rows / np.linalg.norm(emb.rows, axis=1)[:, None])


def test_encoder_training_tightens_identities():
    emb, labels = _harness(num_ids=6, per_id=20, dim=16, sigma=0.3, seed=10)
    model = train_head((emb, labels), None, LossConfig(), epochs=60, seed=0)
    new = embed(model, emb)

    def mean_within(e):
        total, count = 0.0, 0
        for ident in range(labels.num_ids):
            rows = e.rows[labels.labels == ident]
            sims = rows @ rows.T
            iu = np.triu_indices(rows.shape[0], 1)
            total += sims[iu].sum()
            count += iu[0].size
        return total / count

    assert mean_within(new) > mean_within(emb)


# --- persistence ---

def test_roundtrip_without_encoder(tmp_path):
    # an archive whose encoder was dropped is not a model: loading names it
    emb, labels = _harness(num_ids=2, per_id=10, seed=11)
    model = train_head((emb, labels), None, LossConfig(), epochs=2, seed=0)
    save_trained_model(model, tmp_path / "m.npz")
    with np.load(tmp_path / "m.npz") as archive:
        kept = {name: archive[name] for name in archive.files if name != "encoder"}
    np.savez(tmp_path / "m.npz", **kept)
    with pytest.raises(errors.CorruptArtifact, match="missing array 'encoder'"):
        load_trained_model(tmp_path / "m.npz")


def test_roundtrip_with_encoder(tmp_path):
    emb, labels = _harness(num_ids=2, per_id=10, seed=12)
    model = train_head((emb, labels), None, LossConfig(), epochs=2, seed=0)
    save_trained_model(model, tmp_path / "m.npz")
    back = load_trained_model(tmp_path / "m.npz")
    # training runs at the archive's float32: the model is its archive
    assert np.array_equal(back.head.weights, model.head.weights)
    for name in "WUV":
        assert np.array_equal(getattr(back.encoder, name), getattr(model.encoder, name))


def test_trained_and_loaded_models_hold_float32_weights(tmp_path):
    emb, labels = _harness(num_ids=2, per_id=10, seed=12)
    model = train_head((emb, labels), None, LossConfig(), epochs=2, seed=0)
    save_trained_model(model, tmp_path / "m.npz")
    back = load_trained_model(tmp_path / "m.npz")
    with np.load(tmp_path / "m.npz") as archive:
        stored = [archive["head"], *archive["encoder"]]
    for m in (model, back):
        weights = [m.head.weights, m.encoder.W, m.encoder.U, m.encoder.V]
        assert [w.dtype for w in weights] == [np.float32] * 4
        for got, want in zip(weights, stored):
            np.testing.assert_array_equal(got, want)


def test_roundtrip_keeps_losses_exact(tmp_path):
    emb, labels = _harness(num_ids=2, per_id=10, seed=13)
    model = train_head((emb, labels), None, LossConfig(), epochs=2, seed=0)
    save_trained_model(model, tmp_path / "m.npz")
    back = load_trained_model(tmp_path / "m.npz")
    assert (back.initial_loss, back.final_loss) == (model.initial_loss, model.final_loss)


@pytest.mark.parametrize(
    "arrays, message",
    [
        ({"head": np.ones((3, 4), np.float32), "encoder": np.ones((3, 5, 5), np.float32)}, "'encoder'"),
        ({"head": np.ones((1, 4), np.float32), "encoder": np.ones((3, 4, 4), np.float32)},
         "num_classes >= 2"),
    ],
)
def test_model_archive_that_does_not_fit_rejected(tmp_path, arrays, message):
    np.savez(tmp_path / "m.npz", initial_loss=1.0, final_loss=0.5, **arrays)
    with pytest.raises(errors.CorruptArtifact, match=message):
        load_trained_model(tmp_path / "m.npz")
