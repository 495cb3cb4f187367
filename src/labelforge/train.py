"""Retraining with the additive cosine-margin loss.

The head classifies over the union of labeled identities and pseudo-label
clusters; pseudo samples can be down-weighted by (1 - p_minus)^gamma. An
optional residual encoder (identity at init, trainable nonlinearity)
provides the new feature space for a second clustering iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    UNASSIGNED,
    Clustering,
    EmbeddingSet,
    LabelSet,
    LinearHead,
    groups,
    load_archive,
    save_archive,
)
from .errors import CorruptArtifact, InvalidData, TrainingDiverged


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 16.0
    margin_m: float = 0.35
    gamma: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 <= self.margin_m <= 1.0:
            raise ValueError("margin must lie in [0, 1]")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")


@dataclass
class EncoderParams:
    """Residual map x -> normalize(x W + relu(x U) V); identity at init
    (W = I, V = 0) so the untrained encoder is a no-op. :meth:`identity`
    returns float32 parameters, the precision of the embedding rows."""

    W: np.ndarray
    U: np.ndarray
    V: np.ndarray

    @classmethod
    def identity(cls, d: int, seed: int = 0) -> "EncoderParams":
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        U = rng.standard_normal((d, d)) * np.sqrt(1.0 / d)
        return cls(
            W=np.eye(d, dtype=np.float32),
            U=U.astype(np.float32),
            V=np.zeros((d, d), dtype=np.float32),
        )


@dataclass
class TrainedModel:
    head: LinearHead
    encoder: EncoderParams | None = None
    initial_loss: float = float("nan")
    final_loss: float = float("nan")


def _encode(enc: EncoderParams, X: np.ndarray):
    hidden = np.maximum(X @ enc.U, 0.0)
    pre = X @ enc.W + hidden @ enc.V
    norms = np.linalg.norm(pre, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    out = pre / safe[:, None]
    return out, (hidden, pre, safe)


def _loss_and_grads(
    W: np.ndarray,
    enc: EncoderParams | None,
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    cfg: LossConfig,
    grads: bool = True,
):
    """Weighted mean cosine-margin loss and gradients w.r.t. the raw head
    matrix (rows normalized inside) and, if present, the encoder params.

    Works in the dtype of its inputs. With ``grads=False`` only the loss is
    computed and both gradients are None.
    """
    b = X.shape[0]
    rows = np.arange(b)
    row_norms = np.linalg.norm(W, axis=1)
    W_hat = W / row_norms[:, None]

    if enc is not None:
        F, (hidden, pre, safe) = _encode(enc, X)
    else:
        F = X

    # one softmax pass, in place: scaled logits, shifted, exponentiated
    logits = F @ W_hat.T
    logits *= cfg.alpha
    logits[rows, y] -= cfg.alpha * cfg.margin_m
    logits -= logits.max(axis=1, keepdims=True)
    target = logits[rows, y]
    exp = np.exp(logits, out=logits)
    sums = exp.sum(axis=1)
    nll = np.log(sums) - target
    total_w = weights.sum()
    loss = float(np.sum(weights * nll) / total_w)
    if not grads:
        return loss, None, None

    # the probabilities, normalized in place, become the logit gradient
    dlogits = exp
    dlogits /= sums[:, None]
    dlogits[rows, y] -= 1.0
    dlogits *= (weights / total_w)[:, None]
    dW_hat = cfg.alpha * (dlogits.T @ F)
    # back through per-row normalization of the head
    dot = np.sum(dW_hat * W_hat, axis=1, keepdims=True)
    dW = (dW_hat - W_hat * dot) / row_norms[:, None]

    d_enc = None
    if enc is not None:
        dF = cfg.alpha * (dlogits @ W_hat)
        # back through per-sample normalization of encoded features
        dot_f = np.sum(dF * F, axis=1, keepdims=True)
        dpre = (dF - F * dot_f) / safe[:, None]
        dWenc = X.T @ dpre
        dV = hidden.T @ dpre
        dhidden = (dpre @ enc.V.T) * (hidden > 0)
        dU = X.T @ dhidden
        d_enc = EncoderParams(W=dWenc, U=dU, V=dV)
    return loss, dW, d_enc


def _assemble(
    labeled: tuple[EmbeddingSet, LabelSet],
    pseudo: tuple[EmbeddingSet, Clustering] | None,
    gamma: float,
    use_weights: bool,
):
    emb_l, labels_l = labeled
    X = [emb_l.rows]
    y = [labels_l.labels]
    w = [np.ones(emb_l.n)]
    num_labeled_ids = labels_l.num_ids
    if pseudo is not None:
        emb_u, c = pseudo
        if emb_u.n != c.n:
            raise InvalidData("pseudo embeddings and clustering disagree in length")
        mask = c.assignment != UNASSIGNED
        if mask.any():
            X.append(emb_u.rows[mask])
            y.append(c.assignment[mask] + num_labeled_ids)
            if use_weights and c.p_minus is not None:
                w.append((1.0 - c.p_minus[mask]) ** gamma)
            else:
                w.append(np.ones(int(mask.sum())))
    X = np.vstack(X)
    y = np.concatenate(y)
    w = np.concatenate(w, dtype=X.dtype)
    if X.shape[0] == 0:
        raise InvalidData("no training samples")
    num_classes = int(y.max()) + 1
    if num_classes < 2:
        raise InvalidData("need at least 2 classes to train the head")
    return X, y, w, num_classes


def _class_mean_init(X: np.ndarray, y: np.ndarray, num_classes: int, rng) -> np.ndarray:
    """Unit head rows: small random rows plus each class's mean sample,
    computed in float64 and returned in the dtype of ``X``.

    The class-mean init avoids the dead-class local optima of random rows.
    The samples are stably sorted by class once, so each class's rows form
    one contiguous slice in their original order and its mean is bit-equal
    to ``X[y == j].mean(axis=0, dtype=np.float64)``; a class without
    samples keeps its random row.
    """
    W = rng.standard_normal((num_classes, X.shape[1])) * 1e-3
    by_class, bounds = groups(y, num_classes)
    Xs = X[by_class]
    for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if hi > lo:
            W[j] += Xs[lo:hi].mean(axis=0, dtype=np.float64)
    W /= np.linalg.norm(W, axis=1)[:, None]
    return W.astype(X.dtype)


def train_head(
    labeled: tuple[EmbeddingSet, LabelSet],
    pseudo: tuple[EmbeddingSet, Clustering] | None,
    cfg: LossConfig,
    epochs: int = 40,
    lr: float = 0.1,
    seed: int = 0,
    use_weights: bool = False,
    with_encoder: bool = False,
    batch_size: int = 256,
) -> TrainedModel:
    """SGD from scratch on the union of labeled and pseudo-labeled samples.

    Pseudo cluster ids are offset past the labeled id range. Head rows are
    renormalized to the unit sphere after every step. Training runs in
    float32, the dtype of the embedding rows and of the initial head and
    encoder, so the model equals its saved archive.

    Raises :class:`TrainingDiverged` when a batch loss or the final weights
    are not finite (``lr`` too large for the data).
    """
    X, y, w, num_classes = _assemble(labeled, pseudo, cfg.gamma, use_weights)
    d = X.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    W = _class_mean_init(X, y, num_classes, rng)
    enc = EncoderParams.identity(d, seed=seed + 1) if with_encoder else None
    n = X.shape[0]
    order = np.arange(n)
    enc_lr = lr * 0.1  # encoder moves slower than the head
    # overflow surfaces as a non-finite loss, raised below as a typed error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        initial_loss, _, _ = _loss_and_grads(W, enc, X, y, w, cfg, grads=False)
        for epoch in range(epochs):
            rng.shuffle(order)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                loss, dW, d_enc = _loss_and_grads(W, enc, X[idx], y[idx], w[idx], cfg)
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"head training diverged: loss {loss} in epoch {epoch + 1} (lr={lr})"
                    )
                W -= lr * dW
                W /= np.linalg.norm(W, axis=1)[:, None]
                if enc is not None:
                    enc.W -= enc_lr * d_enc.W
                    enc.U -= enc_lr * d_enc.U
                    enc.V -= enc_lr * d_enc.V
        final_loss, _, _ = _loss_and_grads(W, enc, X, y, w, cfg, grads=False)
    params = [W] + ([enc.W, enc.U, enc.V] if enc is not None else [])
    if not all(np.isfinite(p).all() for p in params):
        raise TrainingDiverged(f"head training diverged: weights not finite (lr={lr})")
    return TrainedModel(
        head=LinearHead(W),
        encoder=enc,
        initial_loss=initial_loss,
        final_loss=final_loss,
    )


def embed(model: TrainedModel, emb: EmbeddingSet) -> EmbeddingSet:
    """Map embeddings through the trained encoder and renormalize."""
    if model.encoder is None:
        raise InvalidData("model was trained without an encoder")
    out, _ = _encode(model.encoder, emb.rows)
    return EmbeddingSet(out, normalized=True)


def save_trained_model(model: TrainedModel, path) -> None:
    """Weights as float32 (the encoder as stacked W, U, V); losses as float64."""
    arrays = {
        "head": model.head.weights,
        "initial_loss": np.float64(model.initial_loss),
        "final_loss": np.float64(model.final_loss),
    }
    if model.encoder is not None:
        enc = model.encoder
        arrays["encoder"] = np.stack([enc.W, enc.U, enc.V])
    save_archive(arrays, path)


def load_trained_model(path) -> TrainedModel:
    spec = {
        "head": ("f4", "k", "d"),
        "encoder": ("f4", 3, "d", "d"),
        "initial_loss": ("f8",),
        "final_loss": ("f8",),
    }
    a = load_archive(path, spec, optional=("encoder",))
    try:
        head = LinearHead(a["head"])
    except ValueError as exc:
        raise CorruptArtifact(f"{path}: {exc}") from exc
    enc = None
    if "encoder" in a:
        enc = EncoderParams(*a["encoder"])
    return TrainedModel(
        head=head,
        encoder=enc,
        initial_loss=float(a["initial_loss"]),
        final_loss=float(a["final_loss"]),
    )
