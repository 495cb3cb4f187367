"""Tuple, set and list versions of the proposal layer, for the tests.

These are the per-proposal formulations that the columnar
``knn.Proposals`` path replaced: the threshold sweep emits one sorted
member tuple per component, ``union_augment`` unions two proposals as
Python sets, one drawn pair per iteration, and ``deoverlap`` sorts the
proposals with a Python key and collects each one's fresh members in a
list. A proposal here is a ``(members, threshold)`` pair whose members
are a sorted tuple of ints.
"""

import numpy as np

from labelforge.data import UNASSIGNED, Clustering, relabel
from labelforge.knn import component_labels, symmetric_edges


def pairs(proposals):
    """``(members, threshold)`` pairs of a ``knn.Proposals`` set."""
    return [(tuple(p.members.tolist()), p.threshold) for p in proposals]


def proposals_from_thresholds(g, thresholds, max_size=300):
    """Components per threshold; at lower thresholds only those that grew
    and hold at most ``max_size`` members."""
    lo, hi, sim = symmetric_edges(g)
    nodes = np.arange(g.n)
    out = []
    label = nodes
    prev_size = np.ones(g.n, dtype=np.int64)
    for ti, t in enumerate(thresholds):
        keep = sim >= t
        label = component_labels(label, lo[keep], hi[keep])
        size = np.bincount(label, minlength=g.n)
        reps = np.flatnonzero(label == nodes)
        if ti > 0:
            reps = reps[(size[reps] <= max_size) & (size[reps] > prev_size[reps])]
        members = np.argsort(label, kind="stable")
        offsets = np.concatenate([[0], np.cumsum(size)])
        for r in reps:
            out.append((tuple(members[offsets[r] : offsets[r + 1]].tolist()), t))
        prev_size = size
    return out


def union_augment(proposals, count, seed=0):
    """Unions of random pairs that are neither a proposal nor an earlier
    union, at the smaller threshold of the pair; at most ``20 * count``
    draws."""
    if count <= 0 or len(proposals) < 2:
        return []
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    seen = {members for members, _ in proposals}
    out = []
    attempts = 0
    while len(out) < count and attempts < 20 * count:
        attempts += 1
        i, j = rng.integers(0, len(proposals), size=2)
        members = tuple(sorted(set(proposals[i][0]) | set(proposals[j][0])))
        if members in seen:
            continue
        seen.add(members)
        out.append((members, min(proposals[i][1], proposals[j][1])))
    return out


def deoverlap(proposals, ious, min_cluster_size=2):
    """Greedy de-overlap by (-clamped iou, -size, index)."""
    n = 1 + max(max(members) for members, _ in proposals)
    order = sorted(
        range(len(proposals)),
        key=lambda i: (-min(max(ious[i], 0.0), 1.0), -len(proposals[i][0]), i),
    )
    assignment = np.full(n, UNASSIGNED, dtype=np.int64)
    cid = 0
    for i in order:
        fresh = [m for m in proposals[i][0] if assignment[m] == UNASSIGNED]
        if len(fresh) >= min_cluster_size:
            assignment[np.array(fresh, dtype=np.int64)] = cid
            cid += 1
    return Clustering(relabel(assignment))
