"""Retraining with the additive cosine-margin loss.

The model is a residual encoder (identity at init, trainable nonlinearity)
followed by a cosine head over the union of labeled identities and
pseudo-label clusters; pseudo samples can be down-weighted by
(1 - p_minus)^gamma. Both train together, so the encoder adapts the
feature space to the pseudo-labeled samples.
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
    encoder: EncoderParams
    initial_loss: float = float("nan")
    final_loss: float = float("nan")


def _encode(enc: EncoderParams, X: np.ndarray):
    hidden = np.maximum(X @ enc.U, 0.0)
    pre = X @ enc.W + hidden @ enc.V
    norms = np.linalg.norm(pre, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    out = pre / safe[:, None]
    return out, (hidden, pre, safe)


def _forward(W_hat: np.ndarray, enc: EncoderParams, X: np.ndarray, y: np.ndarray, cfg: LossConfig):
    """Per-sample cosine-margin NLL under the unit head rows ``W_hat``, with
    what the backward pass reuses: the exponentiated shifted logits, their
    row sums, the encoded features and the encoder's intermediates."""
    rows = np.arange(X.shape[0])
    F, cache = _encode(enc, X)

    # one softmax pass, in place: scaled logits, shifted, exponentiated
    logits = F @ W_hat.T
    logits *= cfg.alpha
    logits[rows, y] -= cfg.alpha * cfg.margin_m
    logits -= logits.max(axis=1, keepdims=True)
    target = logits[rows, y]
    exp = np.exp(logits, out=logits)
    sums = exp.sum(axis=1)
    return np.log(sums) - target, exp, sums, F, cache


def _loss_and_grads(
    W: np.ndarray,
    enc: EncoderParams,
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    cfg: LossConfig,
):
    """Weighted mean cosine-margin loss and gradients w.r.t. the raw head
    matrix (rows normalized inside) and the encoder params.

    Works in the dtype of its inputs.
    """
    rows = np.arange(X.shape[0])
    row_norms = np.linalg.norm(W, axis=1)
    W_hat = W / row_norms[:, None]
    nll, exp, sums, F, (hidden, pre, safe) = _forward(W_hat, enc, X, y, cfg)
    total_w = weights.sum()
    loss = float(np.sum(weights * nll) / total_w)

    # the probabilities, normalized in place, become the logit gradient
    dlogits = exp
    dlogits /= sums[:, None]
    dlogits[rows, y] -= 1.0
    dlogits *= (weights / total_w)[:, None]
    dW_hat = cfg.alpha * (dlogits.T @ F)
    # back through per-row normalization of the head
    dot = np.sum(dW_hat * W_hat, axis=1, keepdims=True)
    dW = (dW_hat - W_hat * dot) / row_norms[:, None]

    dF = cfg.alpha * (dlogits @ W_hat)
    # back through per-sample normalization of encoded features
    dot_f = np.sum(dF * F, axis=1, keepdims=True)
    dpre = (dF - F * dot_f) / safe[:, None]
    dWenc = X.T @ dpre
    dV = hidden.T @ dpre
    dhidden = (dpre @ enc.V.T) * (hidden > 0)
    dU = X.T @ dhidden
    return loss, dW, EncoderParams(W=dWenc, U=dU, V=dV)


def _full_loss(
    W: np.ndarray,
    enc: EncoderParams,
    X: np.ndarray,
    y: np.ndarray,
    weights: np.ndarray,
    cfg: LossConfig,
    chunk: int,
) -> float:
    """The loss of :func:`_loss_and_grads` over every row, bit for bit, with
    the forward pass taken ``chunk`` rows at a time: each row's NLL does not
    depend on the other rows, and the weighted sum runs once over all of
    them. The pass then holds one chunk's logits, not the whole set's."""
    W_hat = W / np.linalg.norm(W, axis=1)[:, None]
    nll = np.concatenate([
        _forward(W_hat, enc, X[start : start + chunk], y[start : start + chunk], cfg)[0]
        for start in range(0, X.shape[0], chunk)
    ])
    return float(np.sum(weights * nll) / weights.sum())


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
    batch_size: int = 256,
) -> TrainedModel:
    """SGD from scratch of the encoder and head on the union of labeled and
    pseudo-labeled samples.

    Pseudo cluster ids are offset past the labeled id range. Head rows are
    renormalized to the unit sphere after every step; the encoder starts at
    the identity and moves at a tenth of ``lr``. Training runs in
    float32, the dtype of the embedding rows and of the initial head and
    encoder, so the model equals its saved archive.

    Raises :class:`TrainingDiverged` when a batch loss or the final weights
    are not finite (``lr`` too large for the data).
    """
    X, y, w, num_classes = _assemble(labeled, pseudo, cfg.gamma, use_weights)
    d = X.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    W = _class_mean_init(X, y, num_classes, rng)
    enc = EncoderParams.identity(d, seed=seed + 1)
    n = X.shape[0]
    order = np.arange(n)
    enc_lr = lr * 0.1  # encoder moves slower than the head
    # overflow surfaces as a non-finite loss, raised below as a typed error
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        initial_loss = _full_loss(W, enc, X, y, w, cfg, batch_size)
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
                enc.W -= enc_lr * d_enc.W
                enc.U -= enc_lr * d_enc.U
                enc.V -= enc_lr * d_enc.V
        final_loss = _full_loss(W, enc, X, y, w, cfg, batch_size)
    if not all(np.isfinite(p).all() for p in (W, enc.W, enc.U, enc.V)):
        raise TrainingDiverged(f"head training diverged: weights not finite (lr={lr})")
    return TrainedModel(
        head=LinearHead(W),
        encoder=enc,
        initial_loss=initial_loss,
        final_loss=final_loss,
    )


def embed(model: TrainedModel, emb: EmbeddingSet) -> EmbeddingSet:
    """Map embeddings through the trained encoder and renormalize."""
    out, _ = _encode(model.encoder, emb.rows)
    return EmbeddingSet(out, normalized=True)


def save_trained_model(model: TrainedModel, path) -> None:
    """Weights as float32 (the encoder as stacked W, U, V); losses as float64."""
    enc = model.encoder
    arrays = {
        "head": model.head.weights,
        "initial_loss": np.float64(model.initial_loss),
        "final_loss": np.float64(model.final_loss),
        "encoder": np.stack([enc.W, enc.U, enc.V]),
    }
    save_archive(arrays, path)


def load_trained_model(path) -> TrainedModel:
    spec = {
        "head": ("f4", "k", "d"),
        "encoder": ("f4", 3, "d", "d"),
        "initial_loss": ("f8",),
        "final_loss": ("f8",),
    }
    a = load_archive(path, spec)
    try:
        head = LinearHead(a["head"])
    except ValueError as exc:
        raise CorruptArtifact(f"{path}: {exc}") from exc
    return TrainedModel(
        head=head,
        encoder=EncoderParams(*a["encoder"]),
        initial_loss=float(a["initial_loss"]),
        final_loss=float(a["final_loss"]),
    )
