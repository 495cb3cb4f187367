import numpy as np
import pytest

from labelforge import errors
from labelforge.data import EmbeddingSet, l2_normalize
from labelforge.knn import (
    build_knn_graph,
    default_thresholds,
    proposals_from_thresholds,
    symmetric_edges,
)
from labelforge.synth import SynthConfig, generate_identities


def brute_force_knn(rows, k):
    """Oracle: full n x n similarity matrix, sort by (-sim, index)."""
    n = rows.shape[0]
    sims = rows @ rows.T
    neighbors = np.empty((n, k), dtype=np.int64)
    out_sims = np.empty((n, k))
    for i in range(n):
        cand = [(-sims[i, j], j) for j in range(n) if j != i]
        cand.sort()
        neighbors[i] = [j for _, j in cand[:k]]
        out_sims[i] = [sims[i, j] for _, j in cand[:k]]
    return neighbors, out_sims


def test_orthonormal_tie_break():
    emb = EmbeddingSet(np.eye(3), normalized=True)
    g = build_knn_graph(emb, k=1)
    np.testing.assert_array_equal(g.neighbors.ravel(), [1, 0, 0])
    np.testing.assert_allclose(g.sims, 0.0, atol=1e-12)


def test_duplicates_pick_each_other():
    p = np.array([1.0, 0.0])
    q = np.array([0.0, 1.0])
    emb = EmbeddingSet(np.vstack([p, p, q]), normalized=True)
    g = build_knn_graph(emb, k=1)
    assert g.neighbors[0, 0] == 1 and g.neighbors[1, 0] == 0
    np.testing.assert_allclose(g.sims[0, 0], 1.0)


def test_matches_brute_force():
    rng = np.random.default_rng(42)
    emb = l2_normalize(EmbeddingSet(rng.standard_normal((200, 8))))
    g = build_knn_graph(emb, k=5)
    ref_nbrs, ref_sims = brute_force_knn(emb.rows, 5)
    np.testing.assert_array_equal(g.neighbors, ref_nbrs)
    np.testing.assert_allclose(g.sims, ref_sims, atol=1e-12)


def test_exactness_invariant():
    rng = np.random.default_rng(7)
    emb = l2_normalize(EmbeddingSet(rng.standard_normal((120, 6))))
    g = build_knn_graph(emb, k=4)
    sims = emb.rows @ emb.rows.T
    np.fill_diagonal(sims, -np.inf)
    for i in range(emb.n):
        stored = set(g.neighbors[i].tolist())
        kth = g.sims[i, -1]
        others = [sims[i, j] for j in range(emb.n) if j != i and j not in stored]
        assert kth >= max(others) - 1e-12


def test_requires_normalized():
    emb = EmbeddingSet(np.random.default_rng(0).standard_normal((5, 3)))
    with pytest.raises(errors.InvalidData, match="requires unit-norm embeddings"):
        build_knn_graph(emb, k=2)


def test_k_out_of_range():
    emb = EmbeddingSet(np.eye(3), normalized=True)
    with pytest.raises(errors.InvalidData, match="k=3 out of range for n=3"):
        build_knn_graph(emb, k=3)


def test_sims_sorted_and_no_self():
    rng = np.random.default_rng(5)
    emb = l2_normalize(EmbeddingSet(rng.standard_normal((50, 4))))
    g = build_knn_graph(emb, k=7)
    assert np.all(np.diff(g.sims, axis=1) <= 1e-12)
    assert np.all(g.sims >= -1 - 1e-9) and np.all(g.sims <= 1 + 1e-9)
    for i in range(g.n):
        assert i not in g.neighbors[i]


# --- proposals ---

def union_find_components(n, edges):
    """Oracle: plain union-find over an explicit edge list."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(tuple(sorted(g)) for g in groups.values())


def test_threshold_above_all_sims_gives_singletons():
    rng = np.random.default_rng(1)
    emb = l2_normalize(EmbeddingSet(rng.standard_normal((20, 6))))
    g = build_knn_graph(emb, k=3)
    props = proposals_from_thresholds(g, [2.0], max_size=300)
    assert len(props) == 20
    assert all(len(p.members) == 1 for p in props)


def test_threshold_below_min_single_component():
    rng = np.random.default_rng(2)
    emb = l2_normalize(EmbeddingSet(rng.standard_normal((20, 3))))
    g = build_knn_graph(emb, k=19)  # fully connected
    props = proposals_from_thresholds(g, [-2.0], max_size=300)
    assert len(props) == 1
    assert props.sizes.tolist() == [20]


def test_two_blobs_recovered():
    cfg = SynthConfig(num_ids=2, samples_per_id=15, dim=8, within_id_sigma=0.05, seed=0)
    emb, labels = generate_identities(cfg)
    g = build_knn_graph(emb, k=5)
    props = proposals_from_thresholds(g, [0.9, 0.5], max_size=300)
    member_sets = {tuple(p.members.tolist()) for p in props}
    blob_a = tuple(np.flatnonzero(labels.labels == 0).tolist())
    blob_b = tuple(np.flatnonzero(labels.labels == 1).tolist())
    assert blob_a in member_sets and blob_b in member_sets
    # oracle: at 0.5 the union-find components equal the blobs
    lo, hi, sim = symmetric_edges(g)
    edges = [(int(a), int(b)) for a, b, s in zip(lo, hi, sim) if s >= 0.5]
    comps = union_find_components(emb.n, edges)
    assert comps == sorted([blob_a, blob_b])


def test_proposals_partition_at_each_threshold():
    rng = np.random.default_rng(9)
    emb = l2_normalize(EmbeddingSet(rng.standard_normal((60, 5))))
    g = build_knn_graph(emb, k=4)
    for t in default_thresholds(g, count=5):
        props = proposals_from_thresholds(g, [t], max_size=10**9)
        seen = sorted(props.members.tolist())
        assert seen == list(range(emb.n))


def test_nesting_across_thresholds():
    rng = np.random.default_rng(12)
    emb = l2_normalize(EmbeddingSet(rng.standard_normal((60, 5))))
    g = build_knn_graph(emb, k=4)
    ts = default_thresholds(g, count=4)
    hi_t, lo_t = ts[0], ts[-1]
    fine = proposals_from_thresholds(g, [hi_t], max_size=10**9)
    coarse = proposals_from_thresholds(g, [lo_t], max_size=10**9)
    for p in fine:
        assert any(set(p.members) <= set(q.members) for q in coarse)


def test_max_size_recut():
    cfg = SynthConfig(num_ids=2, samples_per_id=20, dim=8, within_id_sigma=0.05, seed=1)
    emb, _ = generate_identities(cfg)
    g = build_knn_graph(emb, k=6)
    props = proposals_from_thresholds(g, [0.9, -2.0], max_size=25)
    # the single full component (40 members) must be re-cut at 0.9
    assert all(len(p.members) <= 25 or p.threshold == 0.9 for p in props)


def test_empty_thresholds():
    emb = EmbeddingSet(np.eye(3), normalized=True)
    g = build_knn_graph(emb, k=1)
    with pytest.raises(errors.InvalidData, match="need at least one threshold"):
        proposals_from_thresholds(g, [], max_size=10)


def test_dedup_across_thresholds():
    emb = EmbeddingSet(np.eye(3), normalized=True)
    g = build_knn_graph(emb, k=1)
    props = proposals_from_thresholds(g, [2.0, 1.5], max_size=10)
    assert len(props) == 3  # singletons deduplicated across the two thresholds
