"""Clustering engines.

Three classical baselines (spherical k-means, average-linkage HAC, DBSCAN
on cosine distance), the graph-convolutional proposal-purity regressor,
and the greedy de-overlap partitioner that turns scored proposals into a
disjoint clustering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import UNASSIGNED, Clustering, EmbeddingSet, LabelSet, relabel
from .errors import KOutOfRange, LengthMismatch, NoProposals
from .knn import ClusterProposal, KnnGraph, symmetric_csr


# ---------------------------------------------------------------------------
# classical baselines
# ---------------------------------------------------------------------------

def kmeans(emb: EmbeddingSet, K: int, max_iters: int = 100, seed: int = 0) -> Clustering:
    """Spherical k-means: Lloyd iterations with unit-renormalized centroids
    and k-means++ seeding. Empty clusters are re-seeded from the point
    farthest from its centroid."""
    n = emb.n
    if not 1 <= K <= n:
        raise KOutOfRange(f"K={K} out of range for n={n}")
    rows = emb.rows / np.linalg.norm(emb.rows, axis=1)[:, None]
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    # k-means++ on cosine distance (1 - dot)
    centroids = np.empty((K, emb.d))
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
        for j in range(K):
            members = rows[assignment == j]
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
    """
    n = emb.n
    rows = emb.rows / np.linalg.norm(emb.rows, axis=1)[:, None]
    dist = 1.0 - rows @ rows.T
    np.fill_diagonal(dist, np.inf)
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    members: list[list[int]] = [[i] for i in range(n)]

    while active.sum() > 1:
        masked = np.where(active[:, None] & active[None, :], dist, np.inf)
        flat = int(np.argmin(masked))
        a, b = divmod(flat, n)
        if masked[a, b] > dist_threshold:
            break
        if b < a:
            a, b = b, a
        na, nb = sizes[a], sizes[b]
        merged = (na * dist[a] + nb * dist[b]) / (na + nb)
        dist[a] = merged
        dist[:, a] = merged
        dist[a, a] = np.inf
        active[b] = False
        sizes[a] = na + nb
        members[a].extend(members[b])
        members[b] = []

    assignment = np.empty(n, dtype=np.int64)
    cid = 0
    for i in range(n):
        if active[i]:
            for m in members[i]:
                assignment[m] = cid
            cid += 1
    return Clustering(relabel(assignment))


def dbscan(emb: EmbeddingSet, eps: float, min_size: int) -> Clustering:
    """Density clustering on cosine distance; noise points UNASSIGNED.

    A point is core when at least ``min_size`` points (itself included)
    lie within ``eps``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_size < 1:
        raise ValueError("min_size must be >= 1")
    n = emb.n
    rows = emb.rows / np.linalg.norm(emb.rows, axis=1)[:, None]
    dist = 1.0 - rows @ rows.T
    within = dist <= eps
    core = within.sum(axis=1) >= min_size

    assignment = np.full(n, UNASSIGNED, dtype=np.int64)
    cid = 0
    for i in range(n):
        if assignment[i] != UNASSIGNED or not core[i]:
            continue
        # BFS over density-reachable points
        assignment[i] = cid
        frontier = [i]
        while frontier:
            p = frontier.pop()
            if not core[p]:
                continue
            for q in np.flatnonzero(within[p]):
                if assignment[q] == UNASSIGNED:
                    assignment[q] = cid
                    frontier.append(int(q))
        cid += 1
    return Clustering(relabel(assignment))


def clustering_from_labels(labels: LabelSet) -> Clustering:
    """Ground-truth clustering: one cluster per identity."""
    return Clustering(labels.labels.copy())


# ---------------------------------------------------------------------------
# GCN proposal scorer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProposalScore:
    iou_pred: float
    iop_pred: float


@dataclass
class GcnModel:
    """Two graph-conv layers (widths d -> h1 -> h2) and a linear head that
    maps the mean-pooled features to (iou_pred, iop_pred).

    Each layer computes relu(H @ W1 + (Dinv A H) @ W2).
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


def _proposal_operator(p: ClusterProposal, g: KnnGraph) -> np.ndarray:
    """Degree-normalized weighted adjacency Dinv A restricted to members.

    Gathers only the members' rows of the graph's cached CSR adjacency,
    so the cost is the members' total degree, not the edge count.
    """
    members = np.asarray(p.members, dtype=np.int64)  # sorted
    m = len(members)
    indptr, nbr, sim = symmetric_csr(g)
    starts = indptr[members]
    counts = indptr[members + 1] - starts
    # the members' CSR rows, concatenated: row position and edge slot
    row = np.repeat(np.arange(m), counts)
    edge = np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    # keep the edges whose other end is a member too
    col = np.minimum(np.searchsorted(members, nbr[edge]), m - 1)
    inside = members[col] == nbr[edge]
    A = np.zeros((m, m))
    A[row[inside], col[inside]] = sim[edge[inside]]
    deg = A.sum(axis=1)
    inv = np.where(deg > 0, 1.0 / np.where(deg > 0, deg, 1.0), 0.0)
    return inv[:, None] * A


def _gcn_forward_cached(model: GcnModel, H: np.ndarray, N: np.ndarray):
    # center within the proposal: purity is a property of the relative
    # geometry, so absolute identity directions must not be learnable
    H = H - H.mean(axis=0)
    cache = []
    for w1, w2 in model.layer_weights:
        agg = N @ H
        z = H @ w1 + agg @ w2
        out = np.maximum(z, 0.0)
        cache.append((H, agg, z))
        H = out
    # mean pooling keeps the summary size-invariant, so predictions do not
    # extrapolate upward on proposals larger than anything seen in training
    pooled = H.mean(axis=0)
    pred = pooled @ model.head_weights
    return pred, (cache, H, pooled)


def gcn_forward(model: GcnModel, p: ClusterProposal, emb: EmbeddingSet, g: KnnGraph) -> ProposalScore:
    """Score one proposal; raw (unclamped) regression outputs."""
    members = np.asarray(p.members, dtype=np.int64)
    H = emb.rows[members]
    N = _proposal_operator(p, g)
    pred, _ = _gcn_forward_cached(model, H, N)
    return ProposalScore(iou_pred=float(pred[0]), iop_pred=float(pred[1]))


def _gcn_loss_and_grads(model: GcnModel, batch, emb: EmbeddingSet):
    """Mean squared error over (iou, iop) targets plus full gradients."""
    d_head = np.zeros_like(model.head_weights)
    d_layers = [
        (np.zeros_like(w1), np.zeros_like(w2)) for w1, w2 in model.layer_weights
    ]
    total = 0.0
    for p, target, N in batch:
        members = np.asarray(p.members, dtype=np.int64)
        H0 = emb.rows[members]
        pred, pack = _gcn_forward_cached(model, H0, N)
        err = pred - target
        total += float(err @ err) / 2.0
        dpred = err / len(batch)
        cache, H_last, pooled = pack
        dh = np.outer(pooled, dpred)
        d_head += dh
        dpooled = model.head_weights @ dpred
        dH = np.broadcast_to(dpooled / H_last.shape[0], H_last.shape).copy()
        for li in range(len(model.layer_weights) - 1, -1, -1):
            w1, w2 = model.layer_weights[li]
            H, agg, z = cache[li]
            dz = dH * (z > 0)
            d_layers[li] = (d_layers[li][0] + H.T @ dz, d_layers[li][1] + agg.T @ dz)
            dH = dz @ w1.T + N.T @ (dz @ w2.T)
    return total / len(batch), d_head, d_layers


def proposal_targets(p: ClusterProposal, labels: LabelSet) -> tuple[float, float]:
    """IoU / IoP of a proposal against its modal ground-truth identity."""
    member_labels = labels.labels[np.asarray(p.members, dtype=np.int64)]
    counts = np.bincount(member_labels)
    modal = int(np.argmax(counts))  # argmax takes the smaller id on ties
    inter = int(counts[modal])
    class_size = int(np.sum(labels.labels == modal))
    union = len(p.members) + class_size - inter
    return inter / union, inter / len(p.members)


def union_augment(
    proposals: list[ClusterProposal], count: int, seed: int = 0
) -> list[ClusterProposal]:
    """Synthesize extra training proposals as unions of random pairs.

    Threshold-sweep proposals on labeled data are mostly pure, which
    starves the purity regressor of mixed examples; unions of two random
    proposals supply impure ones. Unions that duplicate an existing
    proposal (or an earlier union) are skipped. The union inherits the
    smaller threshold of the pair.
    """
    if count <= 0 or len(proposals) < 2:
        return []
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    seen = {tuple(sorted(p.members)) for p in proposals}
    out: list[ClusterProposal] = []
    attempts = 0
    while len(out) < count and attempts < 20 * count:
        attempts += 1
        i, j = rng.integers(0, len(proposals), size=2)
        members = tuple(sorted(set(proposals[i].members) | set(proposals[j].members)))
        if members in seen:
            continue
        seen.add(members)
        out.append(
            ClusterProposal(
                members, min(proposals[i].threshold, proposals[j].threshold)
            )
        )
    return out


def gcn_train(
    proposals: list[ClusterProposal],
    emb: EmbeddingSet,
    g: KnnGraph,
    labels: LabelSet,
    epochs: int = 200,
    lr: float = 0.5,
    seed: int = 0,
    batch_size: int = 16,
    widths: tuple[int, int] | None = None,
) -> GcnModel:
    """Fit the purity regressor by mini-batch gradient descent on MSE."""
    if not proposals:
        raise NoProposals("need at least one proposal to train on")
    model = GcnModel.init(emb.d, seed=seed, widths=widths)
    rng = np.random.default_rng(np.random.SeedSequence(seed + 1))
    prepared = []
    for p in proposals:
        iou, iop = proposal_targets(p, labels)
        prepared.append((p, np.array([iou, iop]), _proposal_operator(p, g)))
    order = np.arange(len(prepared))
    for _ in range(epochs):
        rng.shuffle(order)
        for start in range(0, len(order), batch_size):
            batch = [prepared[i] for i in order[start : start + batch_size]]
            _, d_head, d_layers = _gcn_loss_and_grads(model, batch, emb)
            model.head_weights = model.head_weights - lr * d_head
            model.layer_weights = [
                (w1 - lr * g1, w2 - lr * g2)
                for (w1, w2), (g1, g2) in zip(model.layer_weights, d_layers)
            ]
    return model


def score_proposals(
    model: GcnModel, proposals: list[ClusterProposal], emb: EmbeddingSet, g: KnnGraph
) -> list[ProposalScore]:
    return [gcn_forward(model, p, emb, g) for p in proposals]


def deoverlap(
    proposals: list[ClusterProposal],
    scores: list[ProposalScore],
    min_cluster_size: int = 2,
) -> Clustering:
    """Greedy partition of scored proposals into disjoint clusters.

    Proposals are consumed by clamped iou_pred descending (ties: larger
    proposal first, then lower index); each emits its not-yet-assigned
    members, and emissions below ``min_cluster_size`` are skipped, leaving
    those members claimable by later proposals.
    """
    if len(proposals) != len(scores):
        raise LengthMismatch(f"{len(proposals)} proposals vs {len(scores)} scores")
    n = 1 + max(max(p.members) for p in proposals)
    order = sorted(
        range(len(proposals)),
        key=lambda i: (
            -min(max(scores[i].iou_pred, 0.0), 1.0),
            -len(proposals[i].members),
            i,
        ),
    )
    assignment = np.full(n, UNASSIGNED, dtype=np.int64)
    cid = 0
    for i in order:
        fresh = [m for m in proposals[i].members if assignment[m] == UNASSIGNED]
        if len(fresh) >= min_cluster_size:
            assignment[np.array(fresh, dtype=np.int64)] = cid
            cid += 1
    return Clustering(relabel(assignment))


# ---------------------------------------------------------------------------
# persistence: flat float32 blob + JSON shape sidecar
# ---------------------------------------------------------------------------

def save_gcn_model(model: GcnModel, blob_path, sidecar_path) -> None:
    arrays = []
    shapes = []
    for w1, w2 in model.layer_weights:
        arrays.extend([w1, w2])
        shapes.extend([list(w1.shape), list(w2.shape)])
    arrays.append(model.head_weights)
    shapes.append(list(model.head_weights.shape))
    flat = np.concatenate([a.ravel() for a in arrays]).astype("<f4")
    with open(blob_path, "wb") as fh:
        fh.write(flat.tobytes())
    with open(sidecar_path, "w") as fh:
        json.dump({"kind": "gcn", "shapes": shapes}, fh, indent=2, sort_keys=True)


def load_gcn_model(blob_path, sidecar_path) -> GcnModel:
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    shapes = [tuple(s) for s in meta["shapes"]]
    flat = np.fromfile(blob_path, dtype="<f4").astype(np.float64)
    arrays = []
    offset = 0
    for shape in shapes:
        size = int(np.prod(shape))
        arrays.append(flat[offset : offset + size].reshape(shape))
        offset += size
    head = arrays[-1]
    pairs = [(arrays[i], arrays[i + 1]) for i in range(0, len(arrays) - 1, 2)]
    return GcnModel(layer_weights=pairs, head_weights=head)
