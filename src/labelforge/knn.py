"""Exact k-NN graph construction and threshold-based cluster proposals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import EmbeddingSet
from .errors import InvalidData


@dataclass(frozen=True)
class KnnGraph:
    """Per-row top-k neighbors by cosine similarity, self excluded.

    Row ``i`` holds the k largest ``rows[i] @ rows[j]`` (j != i) in
    (-sim, j) order: ``sims`` descending, equal sims ordered by ascending
    neighbor index. The same rule decides ties at the k-th value, so of
    several equally similar candidates the smaller indices are kept.

    The rule is applied to the sims as the matrix product of a row block
    computes them. The block height (:func:`block_rows`) can change the
    result, because BLAS rounds a product according to how it tiles it.
    The sims take the dtype of the rows (float32). Every sim is within
    the rounding of a d-term dot product of the exact
    ``rows[i] @ rows[j]``, so under two block heights the sims at each
    rank differ by at most ``d * 2**-23``, and the neighbors at a rank
    can differ only between candidates whose exact sims are within twice
    that: two different rows exactly as similar to row ``i`` may be
    rounded into either order.
    """

    neighbors: np.ndarray
    sims: np.ndarray

    @property
    def n(self) -> int:
        return self.neighbors.shape[0]

    @property
    def k(self) -> int:
        return self.neighbors.shape[1]


class ClusterProposal(NamedTuple):
    """One proposal of a :class:`Proposals` set, as iterating over the set yields it."""

    members: np.ndarray
    threshold: float


@dataclass(frozen=True)
class Proposals:
    """Candidate clusters laid end to end: proposal ``j`` owns
    ``members[starts[j]:starts[j + 1]]``, in ascending order, and was cut
    at ``thresholds[j]``."""

    members: np.ndarray
    starts: np.ndarray
    thresholds: np.ndarray

    @classmethod
    def of(cls, member_lists, thresholds=0.0) -> "Proposals":
        """One proposal per list of sample indices, sorted and deduplicated;
        ``thresholds`` holds one value per list or one for all."""
        arrays = [np.unique(np.asarray(m, dtype=np.int64)) for m in member_lists]
        members = np.concatenate([np.zeros(0, dtype=np.int64), *arrays])
        if any(a.size == 0 for a in arrays) or (members < 0).any():
            raise ValueError("a proposal needs one or more members, each an index >= 0")
        sizes = np.array([a.size for a in arrays], dtype=np.int64)
        ts = np.broadcast_to(np.asarray(thresholds, dtype=np.float64), sizes.shape).copy()
        return cls(members, offsets(sizes), ts)

    def __len__(self) -> int:
        return len(self.thresholds)

    def __iter__(self):
        # an empty set still splits into one (empty) part; zip-like map drops it
        parts = np.split(self.members, self.starts[1:-1])
        return map(ClusterProposal, parts, self.thresholds.tolist())

    def __add__(self, other: "Proposals") -> "Proposals":
        return Proposals(
            np.concatenate([self.members, other.members]),
            np.concatenate([self.starts[:-1], other.starts + self.starts[-1]]),
            np.concatenate([self.thresholds, other.thresholds]),
        )

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.starts)


def offsets(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: where each of consecutive runs starts."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def ranges(first: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``first[i], first[i] + 1, ..., first[i] + counts[i] - 1`` for every i, concatenated."""
    return np.arange(counts.sum()) + np.repeat(first - offsets(counts)[:-1], counts)


# elements of the largest scratch array a graph-layer pass may hold: the
# (rows x n) similarity block of the k-NN build (a float32 block and its
# int64 argpartition indices: 3 MiB) or, at a quarter of it, the edges of
# a run of a proposal gather (cluster._prepare). Scratch memory then stays
# flat in n instead of growing as a fixed row count times n. On a 2-core Xeon
# with one BLAS thread and float64 blocks, 2**18 built k=8 graphs in 59,
# 218 and 35 ms at n=2500 and n=5000 (d=32) and n=1600 (d=128), against
# 73, 275 and 43 ms with 1024-row blocks; 2**17 and 2**19 were within 11%
# of it either way, except 2**19 at d=128 (45 ms). In a whole scale-n5k
# pipeline 2**18 gave the lowest peak RSS (58 MB, against 61 and 64 MB)
# and the fewest page faults.
BLOCK_ELEMENTS = 2**18


def block_rows(width: int) -> int:
    """Rows of a (rows x width) block that fits :data:`BLOCK_ELEMENTS`, at least one."""
    return max(1, BLOCK_ELEMENTS // width)


def build_knn_graph(emb: EmbeddingSet, k: int = 8) -> KnnGraph:
    """Exact top-k cosine neighbors via blockwise dense products.

    Each block of :func:`block_rows` rows is scored against every row; the
    top k per row are selected with ``argpartition`` and then ordered by
    (-sim, index), the rule stated on :class:`KnnGraph`. Rows whose k-th
    value is tied with an unselected candidate are re-selected from all
    candidates at or above that value, so the smaller indices win the
    tie.
    """
    if not emb.normalized:
        raise InvalidData("build_knn_graph requires unit-norm embeddings")
    n = emb.n
    if not 1 <= k < n:
        raise InvalidData(f"k={k} out of range for n={n}")
    rows = emb.rows
    neighbors = np.empty((n, k), dtype=np.int64)
    sims = np.empty((n, k), dtype=rows.dtype)
    block = block_rows(n)
    # one block buffer, reused: a block allocated afresh for every step is
    # handed back to the OS when freed and faulted in again, which doubled
    # the build time at n=2500
    buf = np.empty((min(block, n), n), dtype=rows.dtype)
    for start in range(0, n, block):
        stop = min(start + block, n)
        local = np.arange(stop - start)
        s = np.matmul(rows[start:stop], rows.T, out=buf[: stop - start])
        s[local, local + start] = -np.inf  # exclude self
        top = np.argpartition(s, n - k, axis=1)[:, n - k :]
        kth = s[local, top[:, 0]]
        top.sort(axis=1)
        # a tie at the k-th value leaves argpartition free to pick any of
        # the tied candidates: take the smallest indices instead
        for r in np.flatnonzero((s >= kth[:, None]).sum(axis=1) > k):
            cand = np.flatnonzero(s[r] >= kth[r])
            top[r] = np.sort(cand[np.argsort(-s[r, cand], kind="stable")[:k]])
        # top is in index order, so a stable sort on -sim gives (-sim, index)
        top_sims = np.take_along_axis(s, top, axis=1)
        order = np.argsort(-top_sims, axis=1, kind="stable")
        neighbors[start:stop] = np.take_along_axis(top, order, axis=1)
        sims[start:stop] = np.take_along_axis(top_sims, order, axis=1)
    return KnnGraph(neighbors, sims)


def symmetric_edges(g: KnnGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union-symmetrized edge list (src < dst, max sim over directions).

    Cached on the graph instance; graphs are immutable after construction.
    """
    cached = getattr(g, "_sym_edges", None)
    if cached is not None:
        return cached
    n, k = g.n, g.k
    src = np.repeat(np.arange(n), k)
    dst = g.neighbors.ravel()
    sim = g.sims.ravel()
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    key, lo, hi, sim = key[order], lo[order], hi[order], sim[order]
    uniq, first = np.unique(key, return_index=True)
    # keep the max sim among duplicate directed edges
    best = np.maximum.reduceat(sim, first)
    result = (lo[first], hi[first], best)
    object.__setattr__(g, "_sym_edges", result)
    return result


def symmetric_csr(g: KnnGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency of :func:`symmetric_edges`: ``(indptr, nbr, sim)``.

    The edges of node ``v`` are ``nbr[indptr[v]:indptr[v + 1]]`` with
    weights ``sim[...]``; every undirected edge appears once from each
    end. Cached on the graph instance like :func:`symmetric_edges`.
    """
    cached = getattr(g, "_sym_csr", None)
    if cached is not None:
        return cached
    lo, hi, sim = symmetric_edges(g)
    src = np.concatenate([lo, hi])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=g.n), out=indptr[1:])
    result = (indptr, np.concatenate([hi, lo])[order], np.concatenate([sim, sim])[order])
    object.__setattr__(g, "_sym_csr", result)
    return result


def component_labels(label: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Smallest member of each node's connected component.

    ``label`` is a starting labelling in which every node points at a
    smaller-or-equal node of its own component, and every label is its
    own label (``label[label] == label``); ``np.arange(n)`` qualifies, as
    does the result for any subset of the edges. Each round hooks the
    larger of two edge-joined roots onto the smaller, then pointer-jumps
    every node to its root, until no edge joins two roots.
    """
    label = label.copy()
    while True:
        la, lb = label[lo], label[hi]
        split = la != lb
        if not split.any():
            return label
        la, lb = la[split], lb[split]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped


def proposals_from_thresholds(
    g: KnnGraph, thresholds: list[float], max_size: int = 100
) -> Proposals:
    """Connected-component proposals at each threshold, oversized ones re-cut.

    Components larger than ``max_size`` are recursively re-cut at the next
    higher threshold; if still oversized at the highest threshold they are
    emitted as-is. Duplicate member-sets across thresholds are deduplicated
    (first threshold wins).

    Guaranteed order: thresholds in the given (strictly descending) order;
    within one threshold, components by ascending smallest member; members
    sorted. Since components at a higher threshold nest inside those at a
    lower one, re-cutting a component only yields components already
    proposed at the higher thresholds. So the result is: every component at
    the highest threshold, then at each lower threshold the components of
    at most ``max_size`` members that grew since the threshold before.
    """
    if not thresholds:
        raise InvalidData("need at least one threshold")
    ts = list(thresholds)
    if any(ts[i] <= ts[i + 1] for i in range(len(ts) - 1)):
        raise ValueError("thresholds must be strictly descending")
    lo, hi, sim = symmetric_edges(g)
    nodes = np.arange(g.n)

    chunks, sizes, cuts = [], [], []
    label = nodes
    prev_size = np.ones(g.n, dtype=np.int64)
    for ti, t in enumerate(ts):
        keep = sim >= t
        # lower thresholds only merge components: start from the last labels
        label = component_labels(label, lo[keep], hi[keep])
        size = np.bincount(label, minlength=g.n)
        reps = np.flatnonzero(label == nodes)  # smallest members, ascending
        if ti > 0:
            # a component that did not grow was proposed at a higher threshold
            reps = reps[(size[reps] <= max_size) & (size[reps] > prev_size[reps])]
        members = np.argsort(label, kind="stable")  # grouped by label, sorted
        chunks.append(members[ranges(offsets(size)[reps], size[reps])])
        sizes.append(size[reps])
        cuts.append(np.full(len(reps), t, dtype=np.float64))
        prev_size = size
    return Proposals(np.concatenate(chunks), offsets(np.concatenate(sizes)), np.concatenate(cuts))


def default_thresholds(g: KnnGraph, count: int = 12) -> list[float]:
    """Evenly spaced quantiles of the symmetrized edge-sim distribution."""
    _, _, sim = symmetric_edges(g)
    qs = np.linspace(1.0 / (count + 1), count / (count + 1), count)
    vals = np.quantile(sim, qs)
    # descending, deduplicated
    ts = sorted(set(float(v) for v in vals), reverse=True)
    return ts
