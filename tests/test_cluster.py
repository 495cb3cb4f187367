import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from labelforge import cluster, errors
from labelforge.cluster import (
    GcnModel,
    _forward,
    _gather,
    _gcn_loss_and_grads,
    _SCORE_BLOCK_ROWS,
    _prepare,
    _runs,
    _targets,
    deoverlap,
    gcn_train,
    hac,
    kmeans,
    score_proposals,
    union_augment,
)
from labelforge.data import UNASSIGNED, EmbeddingSet, LabelSet, l2_normalize
from labelforge.knn import Proposals, build_knn_graph, proposals_from_thresholds
from labelforge.metrics import pairwise_prf
from labelforge.synth import SynthConfig, generate_identities
import gcn_reference
import proposal_reference
from gcn_reference import proposal_operator


def two_blobs(per_id=15, sigma=0.05, seed=0, dim=8):
    cfg = SynthConfig(num_ids=2, samples_per_id=per_id, dim=dim,
                      within_id_sigma=sigma, seed=seed)
    return generate_identities(cfg)


# --- k-means ---

def test_kmeans_k_equals_n():
    emb, _ = two_blobs(per_id=5)
    c = kmeans(emb, K=emb.n, max_iters=50, seed=0)
    assert c.num_clusters == emb.n
    assert len(set(c.assignment.tolist())) == emb.n


def test_kmeans_two_blobs_perfect():
    emb, labels = two_blobs()
    c = kmeans(emb, K=2, seed=1)
    _, _, f1 = pairwise_prf(c, labels)
    assert f1 == pytest.approx(1.0)


def test_kmeans_k_out_of_range():
    emb, _ = two_blobs(per_id=3)
    with pytest.raises(errors.InvalidData, match="K=0 out of range"):
        kmeans(emb, K=0)
    with pytest.raises(errors.InvalidData, match=f"K={emb.n + 1} out of range for n={emb.n}"):
        kmeans(emb, K=emb.n + 1)


# --- HAC ---

def hac_oracle(rows, threshold):
    """Brute-force average-linkage dendrogram from raw pairwise distances.

    Returns the clusters, sorted, and whether the dendrogram hinged on a
    near-tie: at some step the closest pair lay within 1e-9 of the
    threshold, or, at a positive distance, of another pair that shares a
    cluster with it. Average linkage does not decide such a tie, and the
    same means summed in another order can decide it the other way. (Tied
    pairs without a common cluster are merged in either order alike.)
    """
    rows = rows / np.linalg.norm(rows, axis=1)[:, None]
    dist = 1.0 - rows @ rows.T
    clusters = [[i] for i in range(rows.shape[0])]
    tol, tied = 1e-9, False
    while len(clusters) > 1:
        pairs = sorted(
            (np.mean([dist[a, b] for a in clusters[i] for b in clusters[j]]), i, j)
            for i in range(len(clusters))
            for j in range(i + 1, len(clusters))
        )
        d, i, j = pairs[0]
        tied |= abs(d - threshold) <= tol
        rivals = [(a, b) for e, a, b in pairs[1:] if e - d <= tol]
        tied |= d > tol and any({a, b} & {i, j} for a, b in rivals)
        if d > threshold:
            break
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]
    return sorted(tuple(sorted(c)) for c in clusters), tied


def test_hac_zero_threshold_singletons():
    emb, _ = two_blobs(per_id=4)
    c = hac(emb, dist_threshold=0.0)
    assert c.num_clusters == emb.n


def test_hac_threshold_two_everything_merges():
    emb, _ = two_blobs(per_id=4)
    c = hac(emb, dist_threshold=2.0)
    assert c.num_clusters == 1


def test_hac_two_tight_pairs_matches_oracle():
    rows = np.array([
        [1.0, 0.01], [1.0, -0.01],
        [0.01, 1.0], [-0.01, 1.0],
    ])
    emb = l2_normalize(EmbeddingSet(rows))
    c = hac(emb, dist_threshold=0.5)
    got = sorted(
        tuple(np.flatnonzero(c.assignment == cid).tolist())
        for cid in range(c.num_clusters)
    )
    assert got == hac_oracle(rows, 0.5)[0] == [(0, 1), (2, 3)]


def test_hac_matches_oracle_randomized():
    rng = np.random.default_rng(11)
    for trial in range(10):
        rows = rng.standard_normal((8, 3))
        threshold = rng.uniform(0.1, 1.5)
        emb = l2_normalize(EmbeddingSet(rows))
        c = hac(emb, dist_threshold=threshold)
        got = sorted(
            tuple(np.flatnonzero(c.assignment == cid).tolist())
            for cid in range(c.num_clusters)
        )
        assert got == hac_oracle(rows, threshold)[0]


def _clusters_in_id_order(assignment):
    return [tuple(np.flatnonzero(assignment == cid).tolist()) for cid in range(assignment.max() + 1)]


@st.composite
def duplicated_rows(draw, max_n=30):
    """Gaussian rows, some copied onto others: the copies tie exactly in
    every distance, while the rest stay in general position. (The grid rows
    of ``test_graph_oracles.tied_embeddings`` put most dendrograms on an
    undecided tie.)"""
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(2, 4))
    rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, d))
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        rows[dst] = rows[src]
    return l2_normalize(EmbeddingSet(rows))


@settings(max_examples=150, deadline=None)
@given(emb=duplicated_rows(), threshold=st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 2.0))
def test_hac_matches_oracle_on_duplicated_rows(emb, threshold):
    clusters, tied = hac_oracle(emb.rows, threshold)
    assume(not tied)
    # the oracle's list is sorted, so equality also checks that cluster
    # ids ascend with their smallest member
    assert _clusters_in_id_order(hac(emb, dist_threshold=threshold).assignment) == clusters


# --- proposal targets ---

def single(members):
    """A set of one proposal."""
    return Proposals.of([members], 0.5)


def targets(members, labels):
    """(iou, iop) of one proposal."""
    iou, iop = _targets(single(members), labels)[0].tolist()
    return iou, iop


def test_targets_pure_complete_proposal():
    labels = LabelSet(np.array([0, 0, 0, 1, 1]))
    assert targets((0, 1, 2), labels) == (1.0, 1.0)


def test_targets_mixed_proposal():
    # members {0,1,2} labeled {A,A,B}; A has 4 samples total
    labels = LabelSet(np.array([0, 0, 1, 0, 0, 1, 1]))
    iou, iop = targets((0, 1, 2), labels)
    assert iou == pytest.approx(2 / 5)
    assert iop == pytest.approx(2 / 3)


def test_targets_singleton():
    labels = LabelSet(np.array([0, 0, 0, 0, 1]))
    iou, iop = targets((2,), labels)
    assert iou == pytest.approx(1 / 4)
    assert iop == pytest.approx(1.0)


def test_targets_iop_ge_iou_property():
    rng = np.random.default_rng(31)
    labels = LabelSet(rng.integers(0, 5, size=50))
    for _ in range(50):
        size = int(rng.integers(1, 20))
        members = tuple(rng.choice(50, size=size, replace=False).tolist())
        iou, iop = targets(members, labels)
        assert 0.0 <= iou <= iop <= 1.0


# --- GCN forward / train ---

def _tiny_graph():
    rows = np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 1.0], [-1.0, 0.0]])
    emb = l2_normalize(EmbeddingSet(rows))
    g = build_knn_graph(emb, k=2)
    return emb, g


def reference_forward(model, members, emb, g):
    """Independent re-evaluation of the layer composition with plain loops."""
    N = proposal_operator(next(iter(single(members))), g)
    H = emb.rows[np.array(members)]
    H = H - H.mean(axis=0)  # proposal-centered input
    for w1, w2 in model.layer_weights:
        agg = N @ H
        H = np.maximum(H @ w1 + agg @ w2, 0.0)
    pooled = H.mean(axis=0)
    return pooled @ model.head_weights


def test_gcn_singleton_finite():
    emb, g = _tiny_graph()
    model = GcnModel.init(2, seed=0)
    score = score_proposals(model, single((2,)), emb, g)
    assert score.shape == (1, 2) and np.isfinite(score).all()


def test_gcn_zero_model_outputs_zero():
    emb, g = _tiny_graph()
    model = GcnModel.zeros(2)
    assert score_proposals(model, single((0, 1, 2)), emb, g).tolist() == [[0.0, 0.0]]


def test_gcn_forward_matches_hand_computation():
    emb, g = _tiny_graph()
    model = GcnModel.init(2, seed=3, widths=(2, 2))
    members = (0, 1)
    got = score_proposals(model, single(members), emb, g)[0]
    # explicit two-layer evaluation: center, relu(H W1 + (Dinv A H) W2)
    # twice, mean-pool, linear head
    ref = reference_forward(model, members, emb, g)
    assert got[0] == pytest.approx(ref[0], abs=1e-12)
    assert got[1] == pytest.approx(ref[1], abs=1e-12)


def test_gcn_permutation_invariance():
    emb, g = _tiny_graph()
    model = GcnModel.init(2, seed=5)
    a = score_proposals(model, single((0, 1, 2)), emb, g)
    b = score_proposals(model, single((2, 0, 1)), emb, g)
    np.testing.assert_array_equal(a, b)


def test_gcn_gradients_match_finite_differences():
    cfg = SynthConfig(num_ids=2, samples_per_id=6, dim=4, within_id_sigma=0.2, seed=7)
    emb, labels = generate_identities(cfg)
    g = build_knn_graph(emb, k=3)
    props = Proposals.of([np.flatnonzero(labels.labels == 0), (0, 1, 6, 7)], [0.5, 0.3])
    # seed 9 left every ReLU dead (all gradients exactly 0); seed 4 does not
    model = GcnModel.init(4, seed=4, widths=(3, 2))
    batch = _gather(_prepare(props, g), np.arange(len(props)), emb.rows)
    want = _targets(props, labels)

    def loss_of(model):
        return _gcn_loss_and_grads(model, batch, want)[0]

    loss, d_head, d_layers = _gcn_loss_and_grads(model, batch, want)
    # a check on zero gradients cannot fail: the layers must carry signal
    assert all(np.linalg.norm(g) > 0 for pair in d_layers for g in pair)
    eps = 1e-6
    max_rel = 0.0

    def check(array, grad):
        nonlocal max_rel
        flat = array.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_of(model)
            flat[i] = orig - eps
            down = loss_of(model)
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            denom = max(abs(fd), abs(gflat[i]), 1e-8)
            max_rel = max(max_rel, abs(fd - gflat[i]) / denom)

    check(model.head_weights, d_head)
    for (w1, w2), (g1, g2) in zip(model.layer_weights, d_layers):
        check(w1, g1)
        check(w2, g2)
    assert max_rel < 1e-4


def test_gcn_train_memorizes_single_proposal():
    emb, g = _tiny_graph()
    p = single((0, 1))
    labels = LabelSet(np.array([0, 0, 1, 1]))
    model = gcn_train(p, emb, g, labels, epochs=500, lr=0.1, seed=0, widths=(4, 4))
    mse = np.mean((score_proposals(model, p, emb, g) - _targets(p, labels)) ** 2)
    assert mse < 1e-3


@pytest.mark.parametrize("epochs, lr, found", [(1, np.inf, "weights"), (20, 1e150, "loss")])
def test_gcn_train_divergence_raises(epochs, lr, found):
    # a single step leaves only the final weights to check; later steps
    # see the loss of the blown-up weights first
    emb, g = _tiny_graph()
    labels = LabelSet(np.array([0, 0, 1, 1]))
    props = Proposals.of([(0, 1), (0, 1, 2)], 0.5)
    with pytest.raises(errors.TrainingDiverged, match=found):
        gcn_train(props, emb, g, labels, epochs=epochs, lr=lr, seed=0)


def test_gcn_train_float32_overflow_raises_where_float64_does_not():
    # float32 tops out near 3.4e38: at lr = 1e20 the second step's loss
    # overflows it, while the float64 reference loop stays finite
    emb, g = _tiny_graph()
    labels = LabelSet(np.array([0, 0, 1, 1]))
    props = Proposals.of([(0, 1), (0, 1, 2)], 0.5)
    with pytest.raises(errors.TrainingDiverged, match="loss inf in epoch 2"):
        gcn_train(props, emb, g, labels, epochs=2, lr=1e20, seed=0)
    with np.errstate(over="raise", invalid="raise"):
        model = gcn_reference.train(props, emb, g, labels, epochs=2, lr=1e20, seed=0)
    assert all(np.isfinite(w).all() for w in _weights(model))


def _weights(model):
    return [model.head_weights] + [w for pair in model.layer_weights for w in pair]


def _float32_model(d, seed, widths):
    """``GcnModel.init`` rounded to float32, as gcn_train starts from it."""
    init = GcnModel.init(d, seed=seed, widths=widths)
    pairs = [(w1.astype(np.float32), w2.astype(np.float32)) for w1, w2 in init.layer_weights]
    return GcnModel(pairs, init.head_weights.astype(np.float32))


def _float32_batch():
    cfg = SynthConfig(num_ids=2, samples_per_id=6, dim=4, within_id_sigma=0.2, seed=7)
    emb, labels = generate_identities(cfg)
    g = build_knn_graph(emb, k=3)
    props = Proposals.of([np.flatnonzero(labels.labels == 0), (0, 1, 6, 7)], [0.5, 0.3])
    batch = _gather(_prepare(props, g), np.arange(len(props)), emb.rows)
    return batch, _targets(props, labels).astype(np.float32)


def test_float32_batch_gives_float32_loss_gradients():
    # any float64 operand (operator, sizes, targets) would promote silently
    batch, targets = _float32_batch()
    assert batch.N.dtype == batch.H0.dtype == np.float32
    model = _float32_model(4, seed=4, widths=(3, 2))
    loss, d_head, d_layers = _gcn_loss_and_grads(model, batch, targets)
    assert np.isfinite(loss)
    grads = [d_head] + [gw for pair in d_layers for gw in pair]
    assert [gw.dtype for gw in grads] == [np.float32] * 5
    assert all(np.linalg.norm(gw) > 0 for gw in grads)


def test_float32_model_scores_in_float32():
    # a float64 model scores float64 rows in float64: test_gcn_oracles pins
    # those scores to the per-proposal reference within 1e-12
    batch, _ = _float32_batch()
    model = _float32_model(4, seed=4, widths=(3, 2))
    pred, (cache, pooled) = _forward(model, batch)
    assert pred.dtype == pooled.dtype == np.float32
    assert all(a.dtype == np.float32 for layer in cache for a in layer)


def test_gcn_train_returns_float32_model_that_scores_in_float32():
    emb, labels = two_blobs(per_id=8, seed=1)
    g = build_knn_graph(emb, k=4)
    props = proposals_from_thresholds(g, [0.9, 0.7, 0.5], max_size=16)
    # a NumPy float64 lr must not promote the weights either
    model = gcn_train(props, emb, g, labels, epochs=3, lr=np.float64(0.5), seed=0)
    assert [w.dtype for w in _weights(model)] == [np.float32] * 5
    # the scores are those of its weights, computed in float32
    wide = GcnModel([(w1.astype(np.float64), w2.astype(np.float64))
                     for w1, w2 in model.layer_weights], model.head_weights.astype(np.float64))
    scores = score_proposals(model, props, emb, g)
    assert scores.dtype == np.float32
    np.testing.assert_allclose(scores, score_proposals(wide, props, emb, g), rtol=0, atol=1e-7)


def test_score_blocks_group_consecutive_proposals_up_to_128_rows():
    # 100 + 20 fit, + 10 would not; 200 exceeds the budget alone
    sizes = np.array([100, 20, 10, 200, 5, 5])
    assert _runs(sizes, _SCORE_BLOCK_ROWS) == [(0, 2), (2, 3), (3, 4), (4, 6)]


def test_gcn_train_no_proposals():
    emb, g = _tiny_graph()
    with pytest.raises(errors.InvalidData, match="need at least one proposal"):
        gcn_train(Proposals.of([]), emb, g, LabelSet(np.array([0, 0, 1, 1])))


def test_gcn_predictions_track_true_iou():
    cfg = SynthConfig(num_ids=8, samples_per_id=20, dim=16, within_id_sigma=0.15, seed=13)
    emb, labels = generate_identities(cfg)
    g = build_knn_graph(emb, k=8)
    props = proposals_from_thresholds(g, [0.95, 0.9, 0.8, 0.6, 0.3], max_size=100)
    model = gcn_train(props, emb, g, labels, epochs=500, seed=1)
    true_iou = _targets(props, labels)[:, 0]
    pred_iou = score_proposals(model, props, emb, g)[:, 0]
    rho = np.corrcoef(true_iou, pred_iou)[0, 1]
    assert rho > 0.8
    # full-identity proposals must score clearly above impure/partial ones
    assert pred_iou[true_iou >= 0.9].mean() > pred_iou[true_iou <= 0.3].mean() + 0.3


def test_union_augment_properties():
    props = Proposals.of([(0, 1), (2, 3), (4, 5, 6)], [0.9, 0.7, 0.5])
    aug = union_augment(props, count=10, seed=0)
    existing = set(proposal_reference.pairs(props))
    seen = set()
    for members, threshold in proposal_reference.pairs(aug):
        # each union is a sorted, deduplicated superset of two originals
        assert members == tuple(sorted(set(members)))
        assert members not in {m for m, _ in existing}
        assert members not in seen
        seen.add(members)
        parents = [(m, t) for m, t in existing if set(m) <= set(members)]
        assert len(parents) >= 2
        assert threshold == min(t for _, t in parents)


def test_union_augment_degenerate_inputs():
    assert len(union_augment(Proposals.of([]), count=5)) == 0
    assert len(union_augment(single((0, 1)), count=5)) == 0
    props = Proposals.of([(0,), (1,)], 0.5)
    assert len(union_augment(props, count=0)) == 0
    # only one distinct union exists; the helper must terminate anyway
    aug = union_augment(props, count=50, seed=1)
    assert proposal_reference.pairs(aug) == [((0, 1), 0.5)]


@st.composite
def proposal_lists(draw, max_n=12):
    """Member lists over a few samples, some of them repeated, and thresholds."""
    n = draw(st.integers(1, max_n))
    member_list = st.lists(st.integers(0, n - 1), min_size=1, max_size=n)
    distinct = draw(st.lists(member_list, min_size=1, max_size=6))
    lists = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=10))
    ts = draw(st.lists(st.sampled_from([0.25, 0.5, 0.75]), min_size=len(lists), max_size=len(lists)))
    return Proposals.of(lists, ts)


@settings(max_examples=300, deadline=None)
@given(props=proposal_lists(), count=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_union_augment_equals_set_reference(props, count, seed):
    # few samples and repeated proposals: draws with i == j, unions equal to
    # a proposal or an earlier union, and runs that end at 20 * count draws
    got = proposal_reference.pairs(union_augment(props, count, seed=seed))
    assert got == proposal_reference.union_augment(proposal_reference.pairs(props), count, seed=seed)


def test_union_augment_equals_set_reference_on_a_sweep():
    emb, _ = two_blobs(per_id=30, sigma=0.2, seed=4)
    g = build_knn_graph(emb, k=6)
    props = proposals_from_thresholds(g, [0.95, 0.9, 0.8, 0.6], max_size=20)
    count = 2 * len(props) // 3
    got = proposal_reference.pairs(union_augment(props, count, seed=3))
    assert len(got) == count
    assert got == proposal_reference.union_augment(proposal_reference.pairs(props), count, seed=3)


@pytest.mark.parametrize(
    "collide",
    [lambda values: np.zeros_like(values, dtype=np.uint64),
     lambda values: np.ones_like(values, dtype=np.uint64)],
    ids=["every-set", "equal-sizes"],
)
def test_union_augment_equals_set_reference_when_keys_collide(monkeypatch, collide):
    # under salt 0 every set, or every set of one size, shares a key: the
    # member comparison must catch it and group again under another salt
    mix = cluster._mix
    monkeypatch.setattr(cluster, "_mix", lambda v, salt: collide(v) if salt == 0 else mix(v, salt))
    emb, _ = two_blobs(per_id=30, sigma=0.2, seed=4)
    props = proposals_from_thresholds(build_knn_graph(emb, k=6), [0.95, 0.9, 0.8, 0.6], max_size=20)
    got = proposal_reference.pairs(union_augment(props, len(props), seed=3))
    assert got == proposal_reference.union_augment(proposal_reference.pairs(props), len(props), seed=3)


# --- de-overlap ---

def test_deoverlap_disjoint_kept():
    props = Proposals.of([(0, 1, 2), (3, 4)], 0.5)
    c = deoverlap(props, np.array([[0.9, 0.9], [0.8, 0.8]]), min_cluster_size=2)
    assert c.assignment[0] == c.assignment[1] == c.assignment[2]
    assert c.assignment[3] == c.assignment[4]
    assert c.num_clusters == 2


def test_deoverlap_greedy_rule():
    props = Proposals.of([(1, 2, 3), (3, 4, 5)], 0.5)
    c = deoverlap(props, np.array([[0.9, 0.9], [0.5, 0.5]]), min_cluster_size=2)
    assert c.assignment[1] == c.assignment[2] == c.assignment[3]
    assert c.assignment[4] == c.assignment[5]
    assert c.assignment[4] != c.assignment[3]


def test_deoverlap_small_cluster_dropped():
    c = deoverlap(single(range(9)), np.array([[0.9, 0.9]]), min_cluster_size=10)
    assert np.all(c.assignment == UNASSIGNED)


def test_deoverlap_length_mismatch():
    with pytest.raises(errors.InvalidData, match="1 proposals vs 0 scores"):
        deoverlap(single((0,)), np.zeros((0, 2)))


def test_deoverlap_partition_property_randomized():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(10, 60))
        num_props = int(rng.integers(1, 15))
        lists, scores = [], np.zeros((num_props, 2))
        for j in range(num_props):
            size = int(rng.integers(1, 12))
            lists.append(rng.choice(n, size=min(size, n), replace=False))
            scores[j, 0] = rng.uniform(-0.2, 1.2)
        min_size = int(rng.integers(1, 5))
        c = deoverlap(Proposals.of(lists), scores, min_cluster_size=min_size)
        for cid in range(c.num_clusters):
            assert int(np.sum(c.assignment == cid)) >= min_size


@settings(max_examples=300, deadline=None)
@given(props=proposal_lists(), data=st.data())
def test_deoverlap_equals_list_reference(props, data):
    # scores from a few values, some outside [0, 1]: clamped ties, broken
    # by size, then by index
    ious = data.draw(st.lists(st.sampled_from([-0.5, 0.0, 0.3, 1.0, 1.5]),
                              min_size=len(props), max_size=len(props)))
    min_size = data.draw(st.integers(1, 4))
    scores = np.stack([ious, np.zeros(len(props))], axis=1).astype(np.float32)
    got = deoverlap(props, scores, min_cluster_size=min_size)
    want = proposal_reference.deoverlap(proposal_reference.pairs(props), ious, min_size)
    np.testing.assert_array_equal(got.assignment, want.assignment)


def test_gcn_pipeline_recovers_identities():
    """End-to-end proposal -> score -> de-overlap recovers a moderately
    noisy harness and beats k-means run with a misspecified K."""
    cfg = SynthConfig(num_ids=20, samples_per_id=15, dim=16,
                      within_id_sigma=0.15, seed=23)
    emb, labels = generate_identities(cfg)
    g = build_knn_graph(emb, k=10)

    props = proposals_from_thresholds(g, [0.9, 0.8, 0.7, 0.6, 0.5], max_size=40)
    model = gcn_train(props, emb, g, labels, epochs=300, seed=3)
    scores = score_proposals(model, props, emb, g)
    gc = deoverlap(props, scores, min_cluster_size=2)

    f1_gcn = pairwise_prf(gc, labels)[2]
    assert f1_gcn > 0.9
    # k-means without the true cluster count is the realistic comparison
    km = kmeans(emb, K=10, seed=0)
    assert f1_gcn > pairwise_prf(km, labels)[2]
