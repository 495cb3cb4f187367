"""Clustering engines.

Two classical baselines (spherical k-means and average-linkage HAC on
cosine distance), the graph-convolutional proposal-purity regressor, and
the greedy de-overlap partitioner that turns scored proposals into a
disjoint clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    UNASSIGNED,
    Clustering,
    EmbeddingSet,
    LabelSet,
    groups,
    load_archive,
    modal,
    relabel,
    save_archive,
)
from .errors import InvalidData, TrainingDiverged
from . import knn
from .knn import KnnGraph, Proposals, component_labels, offsets, ranges, symmetric_csr


# ---------------------------------------------------------------------------
# classical baselines
# ---------------------------------------------------------------------------

def kmeans(emb: EmbeddingSet, K: int, max_iters: int = 100, seed: int = 0) -> Clustering:
    """Spherical k-means: Lloyd iterations with unit-renormalized centroids
    and k-means++ seeding. Empty clusters are re-seeded from the point
    farthest from its centroid."""
    n = emb.n
    if not 1 <= K <= n:
        raise InvalidData(f"K={K} out of range for n={n}")
    rows = emb.rows / np.linalg.norm(emb.rows, axis=1)[:, None]
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    # k-means++ on cosine distance (1 - dot)
    centroids = np.empty((K, emb.d), dtype=rows.dtype)
    first = int(rng.integers(n))
    centroids[0] = rows[first]
    closest = 1.0 - rows @ centroids[0]
    for j in range(1, K):
        w = np.maximum(closest, 0.0)
        total = w.sum()
        if total <= 0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=w / total))
        centroids[j] = rows[pick]
        closest = np.minimum(closest, 1.0 - rows @ centroids[j])

    assignment = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iters):
        sims = rows @ centroids.T
        new_assignment = np.argmax(sims, axis=1)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        order, bounds = groups(assignment, K)
        for j in range(K):
            members = rows[order[bounds[j] : bounds[j + 1]]]
            if members.shape[0] == 0:
                # re-seed from the globally farthest point
                own = sims[np.arange(n), assignment]
                centroids[j] = rows[int(np.argmin(own))]
                continue
            c = members.mean(axis=0)
            norm = np.linalg.norm(c)
            centroids[j] = c / norm if norm > 0 else members[0]
    return Clustering(relabel(assignment))


def hac(emb: EmbeddingSet, dist_threshold: float) -> Clustering:
    """Agglomerative clustering, average linkage, cosine distance.

    Merging proceeds while the closest pair of clusters is within the
    threshold; Lance-Williams update keeps the n x n matrix consistent.
    A merge keeps the smaller index of the pair and sets the other's row
    and column to inf. The clusters are the connected components of the
    merged pairs, numbered by their smallest member.
    """
    n = emb.n
    rows = emb.rows / np.linalg.norm(emb.rows, axis=1)[:, None]
    dist = 1.0 - rows @ rows.T
    np.fill_diagonal(dist, np.inf)
    sizes = np.ones(n)
    merges = []
    for _ in range(n - 1):
        a, b = divmod(int(np.argmin(dist)), n)
        if dist[a, b] > dist_threshold:
            break
        if b < a:
            a, b = b, a
        na, nb = sizes[a], sizes[b]
        merged = (na * dist[a] + nb * dist[b]) / (na + nb)
        dist[a] = merged
        dist[:, a] = merged
        dist[a, a] = np.inf
        dist[b] = np.inf
        dist[:, b] = np.inf
        sizes[a] = na + nb
        merges.append((a, b))
    lo, hi = np.array(merges, dtype=np.int64).reshape(-1, 2).T
    return Clustering(relabel(component_labels(np.arange(n), lo, hi)))


# ---------------------------------------------------------------------------
# GCN proposal scorer
# ---------------------------------------------------------------------------

@dataclass
class GcnModel:
    """Two graph-conv layers (widths d -> h1 -> h2) and a linear head that
    maps the mean-pooled features to (iou_pred, iop_pred).

    Each layer computes relu(H @ W1 + (Dinv A H) @ W2). Forward and
    backward passes run in the dtype of their inputs: float32 for a trained
    or loaded model, float64 for :meth:`init` and :meth:`zeros`, whose
    weights a finite-difference check can perturb by 1e-6.
    """

    layer_weights: list[tuple[np.ndarray, np.ndarray]]
    head_weights: np.ndarray

    @staticmethod
    def hidden_widths(d: int) -> tuple[int, int]:
        # keep the first layer at full width: purity lives in pairwise
        # relations between member directions, which narrow first layers
        # project away at small d
        return max(2, d), max(2, d // 2)

    @classmethod
    def init(cls, d: int, seed: int = 0, widths: tuple[int, int] | None = None) -> "GcnModel":
        h1, h2 = widths if widths is not None else cls.hidden_widths(d)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        layers = []
        fan_in = d
        for width in (h1, h2):
            scale = np.sqrt(2.0 / fan_in)
            w1 = rng.standard_normal((fan_in, width)) * scale
            w2 = rng.standard_normal((fan_in, width)) * scale
            layers.append((w1, w2))
            fan_in = width
        head = rng.standard_normal((h2, 2)) * np.sqrt(1.0 / h2)
        return cls(layer_weights=layers, head_weights=head)

    @classmethod
    def zeros(cls, d: int, widths: tuple[int, int] | None = None) -> "GcnModel":
        h1, h2 = widths if widths is not None else cls.hidden_widths(d)
        layers = []
        fan_in = d
        for width in (h1, h2):
            layers.append((np.zeros((fan_in, width)), np.zeros((fan_in, width))))
            fan_in = width
        return cls(layer_weights=layers, head_weights=np.zeros((h2, 2)))


# member rows of the consecutive proposals that score_proposals evaluates
# together. Smaller blocks pay NumPy's per-call overhead more often; larger
# ones spend more time on the zeros of the dense (rows x rows) block
# operator. 128 was the fastest of 32..512 on n=5k, d=32 and n=2k, d=128.
# Re-measured with the float32 model on a 2-core Xeon, one BLAS thread,
# best of 15 scorings of the seed-0 cluster-stage proposals: 128 is still
# fastest, 21.0 ms against 21.9-27.3 ms on tail-d128 and 24.4 ms against
# 29.9-58.0 ms on scale-n5k.
_SCORE_BLOCK_ROWS = 128


@dataclass(frozen=True)
class _ProposalSet(Proposals):
    """A :class:`Proposals` set with every proposal's operator: proposal ``j``
    owns entries ``edge_starts[j]:edge_starts[j + 1]`` of ``edge_row``/``edge_col``/
    ``edge_val``, the nonzeros of its Dinv A at int32 positions in the proposal."""

    edge_starts: np.ndarray
    edge_row: np.ndarray
    edge_col: np.ndarray
    edge_val: np.ndarray


@dataclass(frozen=True)
class _Batch:
    """Member rows of several proposals stacked in one matrix.

    Proposal ``j`` of the batch owns rows ``seg[j]:seg[j] + sizes[j]`` of
    ``H0`` (raw embeddings), and ``N`` is the block-diagonal matrix of
    their Dinv A operators over all rows.
    """

    H0: np.ndarray
    N: np.ndarray
    sizes: np.ndarray
    seg: np.ndarray


def _prepare(proposals: Proposals, g: KnnGraph) -> _ProposalSet:
    """Build every Dinv A of the proposals.

    The operators are gathered a run of consecutive proposals at a time
    (:func:`_operators`) and the runs are concatenated in order. A run's
    CSR edges plus squared sizes stay within a quarter of
    :data:`knn.BLOCK_ELEMENTS`; a proposal larger than that is a run of
    its own. The peak is one run's scratch on top of the outputs of the
    runs before it, 12 bytes per operator entry (int32 row and column,
    float32 value). The scratch is about 17 bytes per gathered CSR edge
    and 56 per kept entry (six int64 and two float32 arrays); the squared
    sizes bound the kept entries, as a proposal of s members keeps fewer
    than s**2. A tracemalloc snapshot at the peak on the scale-n5k GCN
    training set (231 274 entries) shows 4.2 MB: 2.5 MB of earlier
    outputs, 1.3 MB of one run's scratch and the 0.3 MB CSR adjacency
    built on first use. Weighted by edges alone, a run of large proposals
    keeps 45 796 entries, its scratch reaches 3.6 MB and the peak 6.7 MB.
    """
    members, starts = proposals.members, proposals.starts
    sizes = np.diff(starts)
    indptr = symmetric_csr(g)[0]
    edges = offsets(indptr[members + 1] - indptr[members])[starts]
    runs = [
        _operators(members[starts[lo] : starts[hi]], starts[lo : hi + 1] - starts[lo], g)
        for lo, hi in _runs(np.diff(edges) + sizes * sizes, knn.BLOCK_ELEMENTS // 4)
    ]
    # concatenate one output at a time and drop its parts: the runs are
    # never held twice over
    columns = [list(parts) for parts in zip(*runs)]
    del runs
    counts, row, col, val = [np.concatenate(columns.pop(0)) for _ in range(4)]
    return _ProposalSet(members, starts, proposals.thresholds, offsets(counts), row, col, val)


def _operators(members: np.ndarray, starts: np.ndarray, g: KnnGraph) -> tuple[np.ndarray, ...]:
    """Every Dinv A of consecutive proposals, in one gather.

    Proposal ``j`` owns the member slots ``starts[j]:starts[j + 1]``.
    Each member slot is keyed ``proposal * n + node``; the keys ascend
    because proposals come in order and members are sorted. An edge of
    the graph's CSR adjacency stays in a proposal's operator when the key
    of its other end is one of that proposal's slots. The weights are the
    edge similarities, each row scaled by its inverse degree (rows whose
    degree is below the dtype's ``tiny`` stay zero). A row's degree is one
    float64 ``bincount`` of its kept sims, added in the order
    :func:`knn.symmetric_csr` lists them; the products are float64 too,
    the values rounded to the graph's dtype. Returns each proposal's entry
    count and the entries' rows, columns (int32 positions in the
    proposal) and values.
    """
    indptr, nbr, sim = symmetric_csr(g)
    sizes = np.diff(starts)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    keys = owner * g.n + members
    first = indptr[members]
    counts = indptr[members + 1] - first
    src = np.repeat(np.arange(len(members)), counts)
    edge = ranges(first, counts)
    other = owner[src] * g.n + nbr[edge]
    dst = np.minimum(np.searchsorted(keys, other), len(keys) - 1)
    inside = keys[dst] == other
    src, dst, w = src[inside], dst[inside], sim[edge[inside]]
    own = owner[src]
    base = starts[own]
    row, col = src - base, dst - base
    deg = np.bincount(src, weights=w, minlength=len(members))
    # a degree below the dtype's smallest normal counts as zero: no sim
    # exceeds 1, so no value exceeds 1 / tiny and the cast cannot overflow
    ok = deg >= np.finfo(w.dtype).tiny
    inv = np.where(ok, 1.0 / np.where(ok, deg, 1.0), 0.0)
    val = (inv[src] * w).astype(w.dtype)
    return np.bincount(own, minlength=len(sizes)), row.astype(np.int32), col.astype(np.int32), val


def _block_operator(ps: _ProposalSet, idx: np.ndarray) -> np.ndarray:
    """Dense block-diagonal matrix of the operators of proposals ``idx``,
    in that order, scattered from their stored entries."""
    seg = offsets(ps.sizes[idx])
    counts = ps.edge_starts[idx + 1] - ps.edge_starts[idx]
    edge = ranges(ps.edge_starts[idx], counts)
    shift = np.repeat(seg[:-1], counts)
    N = np.zeros((seg[-1], seg[-1]), dtype=ps.edge_val.dtype)
    N[ps.edge_row[edge] + shift, ps.edge_col[edge] + shift] = ps.edge_val[edge]
    return N


def _gather(ps: _ProposalSet, idx: np.ndarray, rows: np.ndarray) -> _Batch:
    """The batch of proposals ``idx`` over the embedding ``rows``, stacked
    in that order."""
    sizes = ps.sizes[idx]
    H0 = rows[ps.members[ranges(ps.starts[idx], sizes)]]
    return _Batch(H0=H0, N=_block_operator(ps, idx), sizes=sizes, seg=offsets(sizes)[:-1])


def _segment_means(X: np.ndarray, seg: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean of each run ``X[seg[j]:seg[j] + sizes[j]]`` of the consecutive
    runs that tile ``X``: one ``np.add.reduceat`` over the runs, divided by
    their sizes. A run's mean does not depend on the runs beside it."""
    return np.add.reduceat(X, seg, axis=0) / sizes[:, None].astype(X.dtype)


def _forward(model: GcnModel, batch: _Batch):
    """(proposals, 2) raw predictions of every proposal in the batch, and
    the activations the backward pass needs."""
    # center within each proposal: purity is a property of the relative
    # geometry, so absolute identity directions must not be learnable
    H = batch.H0 - np.repeat(_segment_means(batch.H0, batch.seg, batch.sizes), batch.sizes, axis=0)
    cache = []
    for w1, w2 in model.layer_weights:
        agg = batch.N @ H
        z = H @ w1 + agg @ w2
        cache.append((H, agg, z))
        H = np.maximum(z, 0.0)
    # mean pooling keeps the summary size-invariant, so predictions do not
    # extrapolate upward on proposals larger than anything seen in training
    pooled = _segment_means(H, batch.seg, batch.sizes)
    return pooled @ model.head_weights, (cache, pooled)


def _gcn_loss_and_grads(model: GcnModel, batch: _Batch, targets: np.ndarray):
    """Mean over the batch's proposals of the squared (iou, iop) error / 2,
    and its gradients with respect to the head and every layer."""
    pred, (cache, pooled) = _forward(model, batch)
    err = pred - targets
    count = len(batch.sizes)
    loss = float(np.sum(err * err)) / (2.0 * count)
    dpred = err / count
    d_head = pooled.T @ dpred
    # sizes are int64: cast them, or the division promotes float32 to float64
    dpooled = (dpred @ model.head_weights.T) / batch.sizes[:, None].astype(dpred.dtype)
    dH = np.repeat(dpooled, batch.sizes, axis=0)
    d_layers = []
    for li in range(len(model.layer_weights) - 1, -1, -1):
        w1, w2 = model.layer_weights[li]
        H, agg, z = cache[li]
        dz = dH * (z > 0)
        d_layers.append((H.T @ dz, agg.T @ dz))
        if li > 0:  # the first layer's input gradient is never used
            dH = dz @ w1.T + batch.N.T @ (dz @ w2.T)
    return loss, d_head, d_layers[::-1]


def _targets(proposals: Proposals, labels: LabelSet) -> np.ndarray:
    """(proposals, 2) IoU / IoP of each proposal against its modal identity.

    The modal identity is the most frequent label among the members; ties
    go to the smaller label.
    """
    sizes = proposals.sizes
    ident, inter = modal(np.repeat(np.arange(len(sizes)), sizes), labels.labels[proposals.members])
    union = sizes + np.bincount(labels.labels)[ident] - inter
    return np.stack([inter / union, inter / sizes], axis=1)


def union_augment(proposals: Proposals, count: int, seed: int = 0) -> Proposals:
    """Synthesize extra training proposals as unions of random pairs.

    Threshold-sweep proposals on labeled data are mostly pure, which
    starves the purity regressor of mixed examples; unions of two random
    proposals supply impure ones. Unions that duplicate an existing
    proposal (or an earlier union) are skipped. The union inherits the
    smaller threshold of the pair.

    Attempts run in rounds as long as the number of unions still missing,
    for at most ``20 * count`` attempts; a round draws its pairs with one
    ``rng.integers(0, P, size=(tries, 2))`` call and forms their unions at
    once. That call draws the same pairs as one ``size=2`` call per attempt.
    """
    if len(proposals) < 2:
        return Proposals.of([])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    seen = {p.members.tobytes() for p in proposals}
    pairs = []
    attempts = 0
    while len(pairs) < count and attempts < 20 * count:
        tries = min(count - len(pairs), 20 * count - attempts)
        draws = rng.integers(0, len(proposals), size=(tries, 2))
        attempts += tries
        for pair, union in zip(draws, _unions(proposals, draws)):
            key = union.members.tobytes()
            if key not in seen:
                seen.add(key)
                pairs.append(pair)
    return _unions(proposals, np.array(pairs, dtype=np.int64).reshape(-1, 2))


def _unions(proposals: Proposals, pairs: np.ndarray) -> Proposals:
    """The union of each (i, j) row of ``pairs``, at the smaller threshold."""
    sizes = proposals.sizes[pairs]
    owner = np.repeat(np.arange(len(pairs)), sizes.sum(axis=1))
    picked = proposals.members[ranges(proposals.starts[pairs.ravel()], sizes.ravel())]
    width = int(proposals.members.max()) + 1
    owner, members = np.divmod(np.unique(owner * width + picked), width)
    ts = proposals.thresholds[pairs].min(axis=1)
    return Proposals(members, offsets(np.bincount(owner, minlength=len(pairs))), ts)


def gcn_train(
    proposals: Proposals,
    emb: EmbeddingSet,
    g: KnnGraph,
    labels: LabelSet,
    epochs: int = 200,
    lr: float = 0.5,
    seed: int = 0,
    batch_size: int = 16,
    widths: tuple[int, int] | None = None,
) -> GcnModel:
    """Fit the purity regressor by mini-batch gradient descent on MSE.

    Every epoch shuffles the proposals and steps once per ``batch_size``
    consecutive proposals of that order (the last batch may be smaller).
    A step evaluates its whole batch at once, as one block-diagonal
    graph with its proposals in that order, and descends on the mean
    over the batch's proposals of the squared (iou, iop) error / 2. The
    operators and IoU/IoP targets are built once, before the first epoch.
    Each operator row is scaled by its degree, summed in the CSR's edge
    order; centering and pooling take each proposal's mean with one
    ``np.add.reduceat`` over the batch.

    Training runs in float32, the dtype of the embedding rows and the
    graph: the float64 initial weights and the IoU/IoP targets are rounded
    to it once, and the returned model is what :func:`save_gcn_model` stores.

    Raises :class:`TrainingDiverged` when a batch loss or the final
    weights are not finite (``lr`` too large for the data).
    """
    if not len(proposals):
        raise InvalidData("need at least one proposal to train on")
    dtype = emb.rows.dtype
    init = GcnModel.init(emb.d, seed=seed, widths=widths)
    model = GcnModel(
        [(w1.astype(dtype), w2.astype(dtype)) for w1, w2 in init.layer_weights],
        init.head_weights.astype(dtype),
    )
    rng = np.random.default_rng(np.random.SeedSequence(seed + 1))
    ps = _prepare(proposals, g)
    targets = _targets(proposals, labels).astype(dtype)
    order = np.arange(len(proposals))
    # overflow surfaces as a non-finite loss, raised below as a typed error
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            rng.shuffle(order)
            for start in range(0, len(order), batch_size):
                idx = order[start : start + batch_size]
                loss, d_head, d_layers = _gcn_loss_and_grads(
                    model, _gather(ps, idx, emb.rows), targets[idx]
                )
                if not np.isfinite(loss):
                    raise TrainingDiverged(
                        f"GCN training diverged: loss {loss} in epoch {epoch + 1} (lr={lr})"
                    )
                # in place: the float32 weights stay float32 whatever lr's type
                model.head_weights -= lr * d_head
                for (w1, w2), (g1, g2) in zip(model.layer_weights, d_layers):
                    w1 -= lr * g1
                    w2 -= lr * g2
    weights = [model.head_weights] + [w for pair in model.layer_weights for w in pair]
    if not all(np.isfinite(w).all() for w in weights):
        raise TrainingDiverged(f"GCN training diverged: weights not finite (lr={lr})")
    return model


def score_proposals(
    model: GcnModel, proposals: Proposals, emb: EmbeddingSet, g: KnnGraph
) -> np.ndarray:
    """(proposals, 2) raw (unclamped) iou and iop predictions, in input order.

    Consecutive proposals are evaluated together, in blocks of at most
    ``_SCORE_BLOCK_ROWS`` member rows; a proposal larger than that forms
    a block of its own. The blocks are fixed by the proposal order and
    ``_SCORE_BLOCK_ROWS``, so the scores are deterministic. A proposal's
    operator and the means it is centered and pooled by do not depend on
    its block, but its matrix products can: BLAS rounds a block-diagonal
    product according to the block's size, so the same proposal scored
    alone or in another block can differ in the last bits.
    """
    if not len(proposals):
        return np.zeros((0, 2), dtype=emb.rows.dtype)
    ps = _prepare(proposals, g)
    preds = [
        _forward(model, _gather(ps, np.arange(lo, hi), emb.rows))[0]
        for lo, hi in _runs(ps.sizes, _SCORE_BLOCK_ROWS)
    ]
    return np.concatenate(preds)


def _runs(weights: np.ndarray, limit: int) -> list[tuple[int, int]]:
    """Greedy ``[lo, hi)`` runs of consecutive items whose weights add up to
    at most ``limit``; an item heavier than that is a run of its own."""
    blocks = []
    lo, total = 0, 0
    for i, w in enumerate(weights.tolist()):
        if total and total + w > limit:
            blocks.append((lo, i))
            lo, total = i, 0
        total += w
    blocks.append((lo, len(weights)))
    return blocks


def deoverlap(proposals: Proposals, scores: np.ndarray, min_cluster_size: int = 2) -> Clustering:
    """Greedy partition of scored proposals into disjoint clusters.

    ``scores`` holds each proposal's (iou, iop) prediction, as
    :func:`score_proposals` returns them. Proposals are consumed by
    clamped iou prediction descending (ties: larger proposal first, then
    lower index); each emits its not-yet-assigned members, and emissions
    below ``min_cluster_size`` are skipped, leaving those members
    claimable by later proposals.
    """
    if len(proposals) != len(scores):
        raise InvalidData(f"{len(proposals)} proposals vs {len(scores)} scores")
    members, sizes, starts = proposals.members, proposals.sizes, proposals.starts.tolist()
    # lexsort is stable, so equal keys keep index order
    order = np.lexsort((-sizes, -np.clip(np.asarray(scores)[:, 0], 0.0, 1.0)))
    assignment = np.full(int(members.max()) + 1, UNASSIGNED, dtype=np.int64)
    cid = 0
    # a proposal smaller than min_cluster_size can never emit
    for i in order[sizes[order] >= min_cluster_size].tolist():
        own = members[starts[i] : starts[i + 1]]
        fresh = own[assignment[own] == UNASSIGNED]
        if len(fresh) >= min_cluster_size:
            assignment[fresh] = cid
            cid += 1
    return Clustering(relabel(assignment))


# ---------------------------------------------------------------------------
# persistence: one .npz archive, weights as float32
# ---------------------------------------------------------------------------

def save_gcn_model(model: GcnModel, path) -> None:
    """Each layer is stored as its stacked (W1, W2) pair, plus the head."""
    arrays = {f"layer{i}": np.stack(pair) for i, pair in enumerate(model.layer_weights)}
    arrays["head"] = model.head_weights
    save_archive({k: v.astype(np.float32) for k, v in arrays.items()}, path)


def load_gcn_model(path) -> GcnModel:
    """The float32 weights exactly as stored."""
    spec = {
        "layer0": ("f4", 2, "d", "h1"),
        "layer1": ("f4", 2, "h1", "h2"),
        "head": ("f4", "h2", 2),
    }
    a = load_archive(path, spec)
    pairs = [(a[f"layer{i}"][0], a[f"layer{i}"][1]) for i in range(2)]
    return GcnModel(layer_weights=pairs, head_weights=a["head"])
