"""Per-proposal GCN reference code for the batched implementation's tests.

This is the plain formulation the batched ``labelforge.cluster`` code
replaced: each proposal gets its own dense Dinv A, forward pass and
backward pass, and a batch's gradients are summed proposal by proposal.
``train`` is the float64 SGD loop that float32 ``gcn_train`` replaced:
the same initial weights, RNG stream, shuffle, batches and updates, on
float64 copies of the rows.
"""

import numpy as np

from labelforge.cluster import GcnModel
from labelforge.knn import symmetric_csr


def proposal_operator(p, g):
    """Degree-normalized weighted adjacency Dinv A restricted to members,
    gathered from the members' rows of the graph's CSR adjacency; computed
    in float64 and rounded to the graph's dtype. A row's degree adds its
    sims in the CSR's edge order."""
    members = np.asarray(p.members, dtype=np.int64)  # sorted
    m = len(members)
    indptr, nbr, sim = symmetric_csr(g)
    starts = indptr[members]
    counts = indptr[members + 1] - starts
    row = np.repeat(np.arange(m), counts)
    edge = np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    col = np.minimum(np.searchsorted(members, nbr[edge]), m - 1)
    inside = members[col] == nbr[edge]
    A = np.zeros((m, m))
    A[row[inside], col[inside]] = sim[edge[inside]]
    deg = np.bincount(row[inside], weights=sim[edge[inside]], minlength=m)
    ok = deg >= np.finfo(sim.dtype).tiny  # smaller degrees count as zero
    inv = np.where(ok, 1.0 / np.where(ok, deg, 1.0), 0.0)
    return (inv[:, None] * A).astype(sim.dtype)


def proposal_targets(p, labels):
    """IoU / IoP against the modal identity; argmax takes the smaller id on ties."""
    member_labels = labels.labels[np.asarray(p.members, dtype=np.int64)]
    counts = np.bincount(member_labels)
    modal = int(np.argmax(counts))
    inter = int(counts[modal])
    class_size = int(np.sum(labels.labels == modal))
    union = len(p.members) + class_size - inter
    return inter / union, inter / len(p.members)


def forward_cached(model, H, N):
    H = H - H.mean(axis=0)
    cache = []
    for w1, w2 in model.layer_weights:
        agg = N @ H
        z = H @ w1 + agg @ w2
        out = np.maximum(z, 0.0)
        cache.append((H, agg, z))
        H = out
    pooled = H.mean(axis=0)
    pred = pooled @ model.head_weights
    return pred, (cache, H, pooled)


def loss_and_grads(model, batch, rows):
    """Mean squared error over (iou, iop) targets plus full gradients;
    ``batch`` holds (proposal, target, operator) triples; ``rows`` are the
    embedding rows."""
    d_head = np.zeros_like(model.head_weights)
    d_layers = [
        (np.zeros_like(w1), np.zeros_like(w2)) for w1, w2 in model.layer_weights
    ]
    total = 0.0
    for p, target, N in batch:
        members = np.asarray(p.members, dtype=np.int64)
        H0 = rows[members]
        pred, pack = forward_cached(model, H0, N)
        err = pred - target
        total += float(err @ err) / 2.0
        dpred = err / len(batch)
        cache, H_last, pooled = pack
        d_head += np.outer(pooled, dpred)
        dpooled = model.head_weights @ dpred
        dH = np.broadcast_to(dpooled / H_last.shape[0], H_last.shape).copy()
        for li in range(len(model.layer_weights) - 1, -1, -1):
            w1, w2 = model.layer_weights[li]
            H, agg, z = cache[li]
            dz = dH * (z > 0)
            d_layers[li] = (d_layers[li][0] + H.T @ dz, d_layers[li][1] + agg.T @ dz)
            dH = dz @ w1.T + N.T @ (dz @ w2.T)
    return total / len(batch), d_head, d_layers


def score(model, p, rows, g):
    """Raw (iou, iop) prediction for one proposal of the embedding ``rows``."""
    members = np.asarray(p.members, dtype=np.int64)
    pred, _ = forward_cached(model, rows[members], proposal_operator(p, g))
    return pred


def train(proposals, emb, g, labels, epochs, lr, seed=0, batch_size=16, widths=None):
    """The float64 ``GcnModel`` after per-proposal mini-batch SGD."""
    model = GcnModel.init(emb.d, seed=seed, widths=widths)
    rows = emb.rows.astype(np.float64)
    rng = np.random.default_rng(np.random.SeedSequence(seed + 1))
    triples = [
        (p, np.array(proposal_targets(p, labels)), proposal_operator(p, g)) for p in proposals
    ]
    order = np.arange(len(proposals))
    for _ in range(epochs):
        rng.shuffle(order)
        for start in range(0, len(order), batch_size):
            batch = [triples[j] for j in order[start : start + batch_size]]
            _, d_head, d_layers = loss_and_grads(model, batch, rows)
            model.head_weights = model.head_weights - lr * d_head
            model.layer_weights = [
                (w1 - lr * g1, w2 - lr * g2)
                for (w1, w2), (g1, g2) in zip(model.layer_weights, d_layers)
            ]
    return model
