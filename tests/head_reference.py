"""Float64 reference for the cosine-margin head training's tests.

This is the plain formulation ``labelforge.train`` replaced: the same SGD
loop (RNG stream, shuffle, batches, updates) run entirely in float64 (on
float64 copies of the float32 samples and initial encoder), with
a two-pass softmax whose probabilities are copied into the logit gradient,
and with the class-mean init taken one class mask at a time.
"""

import numpy as np

from labelforge.train import EncoderParams, _assemble


def encode(enc, X):
    hidden = np.maximum(X @ enc.U, 0.0)
    pre = X @ enc.W + hidden @ enc.V
    norms = np.linalg.norm(pre, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    return pre / safe[:, None], (hidden, safe)


def loss_and_grads(W, enc, X, y, weights, cfg):
    b = X.shape[0]
    row_norms = np.linalg.norm(W, axis=1)
    W_hat = W / row_norms[:, None]
    if enc is not None:
        F, (hidden, safe) = encode(enc, X)
    else:
        F = X

    logits = cfg.alpha * (F @ W_hat.T)
    logits[np.arange(b), y] -= cfg.alpha * cfg.margin_m
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    nll = np.log(exp.sum(axis=1)) - shifted[np.arange(b), y]
    total_w = weights.sum()
    loss = float(np.sum(weights * nll) / total_w)

    dlogits = probs.copy()
    dlogits[np.arange(b), y] -= 1.0
    dlogits *= (weights / total_w)[:, None]
    dW_hat = cfg.alpha * (dlogits.T @ F)
    dot = np.sum(dW_hat * W_hat, axis=1, keepdims=True)
    dW = (dW_hat - W_hat * dot) / row_norms[:, None]

    d_enc = None
    if enc is not None:
        dF = cfg.alpha * (dlogits @ W_hat)
        dot_f = np.sum(dF * F, axis=1, keepdims=True)
        dpre = (dF - F * dot_f) / safe[:, None]
        dhidden = (dpre @ enc.V.T) * (hidden > 0)
        d_enc = EncoderParams(W=X.T @ dpre, U=X.T @ dhidden, V=hidden.T @ dpre)
    return loss, dW, d_enc


def class_mean_init(X, y, num_classes, rng):
    """Small random rows plus each class's mean, one masked pass per class."""
    W = rng.standard_normal((num_classes, X.shape[1])) * 1e-3
    for j in range(num_classes):
        members = X[y == j]
        if members.shape[0]:
            W[j] += members.mean(axis=0)
    W /= np.linalg.norm(W, axis=1)[:, None]
    return W


def train_head(labeled, pseudo, cfg, epochs=40, lr=0.1, seed=0,
               use_weights=False, with_encoder=False, batch_size=256):
    """(W, encoder, initial_loss, final_loss) after float64 SGD."""
    X, y, w, num_classes = _assemble(labeled, pseudo, cfg.gamma, use_weights)
    X, w = X.astype(np.float64), w.astype(np.float64)
    d = X.shape[1]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    W = class_mean_init(X, y, num_classes, rng)
    enc = None
    if with_encoder:
        init = EncoderParams.identity(d, seed=seed + 1)
        enc = EncoderParams(*(a.astype(np.float64) for a in (init.W, init.U, init.V)))

    initial_loss = loss_and_grads(W, enc, X, y, w, cfg)[0]
    n = X.shape[0]
    order = np.arange(n)
    enc_lr = lr * 0.1
    for _ in range(epochs):
        rng.shuffle(order)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            _, dW, d_enc = loss_and_grads(W, enc, X[idx], y[idx], w[idx], cfg)
            W -= lr * dW
            W /= np.linalg.norm(W, axis=1)[:, None]
            if enc is not None:
                enc.W -= enc_lr * d_enc.W
                enc.U -= enc_lr * d_enc.U
                enc.V -= enc_lr * d_enc.V
    final_loss = loss_and_grads(W, enc, X, y, w, cfg)[0]
    return W, enc, initial_loss, final_loss
