"""Property tests of the batched GCN against the per-proposal reference.

The references in ``gcn_reference`` evaluate one proposal at a time with
its own dense operator. The batched code must build the same operators
bit for bit, the same IoU/IoP targets bit for bit (ties on the modal
identity included), and, for a float64 model on float64 copies of the
rows, the same loss, gradients and scores up to the reordering of
floating-point sums: within 1e-12 of each array's largest magnitude.
(In float32, BLAS rounds a block-diagonal product and the per-proposal
products it stacks differently.) Float32 training must stay within
float32 rounding of the float64 reference loop.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import gcn_reference as ref
from labelforge import cluster as cl
from labelforge.data import EmbeddingSet, LabelSet, relabel
from labelforge.knn import Proposals, build_knn_graph, offsets, proposals_from_thresholds
from labelforge.synth import SynthConfig, generate_identities
from test_graph_oracles import block_budget

RTOL = 1e-12


@st.composite
def scenes(draw):
    """A k-NN graph, proposals on it and labels. Proposals are balls
    around a node (so they contain edges) or random subsets, from one
    member to past the 128-row scoring block."""
    n = draw(st.integers(2, 180))
    d = draw(st.integers(2, 5))
    k = draw(st.integers(1, min(n - 1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((n, d))
    if draw(st.booleans()):
        rows = np.round(rows)  # duplicate rows: tied similarities
        rows[np.all(rows == 0, axis=1), 0] = 1.0
    emb = EmbeddingSet(rows / np.linalg.norm(rows, axis=1)[:, None], normalized=True)
    g = build_knn_graph(emb, k=k)
    labels = LabelSet(relabel(rng.integers(0, draw(st.integers(1, 4)), size=n)))
    member_lists = []
    for _ in range(draw(st.integers(1, 8))):
        size = int(rng.integers(1, n + 1)) if rng.random() < 0.3 else int(rng.integers(1, 10))
        if rng.random() < 0.5:
            members = rng.choice(n, size=min(size, n), replace=False)
        else:
            members = [int(rng.integers(n))]
            for v in members:
                if len(members) >= size:
                    break
                members.extend(int(u) for u in g.neighbors[v] if u not in members)
            members = members[:size]
        member_lists.append(members)
    return emb, g, labels, Proposals.of(member_lists), rng


def assert_close(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale)


@settings(max_examples=120, deadline=None)
@given(scene=scenes())
def test_block_operator_equals_per_proposal_reference(scene):
    emb, g, _, proposals, rng = scene
    idx = rng.permutation(len(proposals))[: int(rng.integers(1, len(proposals) + 1))]
    batch = cl._gather(cl._prepare(proposals, g), idx, emb.rows)
    views = list(proposals)
    sizes = [len(views[j].members) for j in idx]
    want = np.zeros((sum(sizes), sum(sizes)))
    rows = []
    at = 0
    for j, m in zip(idx, sizes):
        want[at : at + m, at : at + m] = ref.proposal_operator(views[j], g)
        rows.extend(views[j].members)
        at += m
    np.testing.assert_array_equal(batch.N, want)
    np.testing.assert_array_equal(batch.H0, emb.rows[rows])
    np.testing.assert_array_equal(batch.sizes, sizes)


@settings(max_examples=120, deadline=None)
@given(scene=scenes())
def test_vectorized_targets_are_bit_equal(scene):
    _, _, labels, proposals, _ = scene
    got = cl._targets(proposals, labels)
    want = np.array([ref.proposal_targets(p, labels) for p in proposals])
    np.testing.assert_array_equal(got, want)


def test_targets_tie_goes_to_the_smaller_identity():
    # members 0..3 are two of identity 0 (4 samples) and two of identity 1
    # (3 samples): the tie picks identity 0, so IoU is 2 / 6, not 2 / 5
    labels = LabelSet(np.array([1, 1, 0, 0, 0, 0, 1]))
    p = Proposals.of([(0, 1, 2, 3)])
    got = tuple(cl._targets(p, labels)[0].tolist())
    assert got == ref.proposal_targets(next(iter(p)), labels) == (1 / 3, 1 / 2)


@settings(max_examples=80, deadline=None)
@given(scene=scenes(), seed=st.integers(0, 1000))
def test_batched_loss_and_grads_match_reference(scene, seed):
    emb, g, labels, proposals, rng = scene
    model = cl.GcnModel.init(emb.d, seed=seed)
    rows = emb.rows.astype(np.float64)
    idx = rng.permutation(len(proposals))
    ps = cl._prepare(proposals, g)
    targets = cl._targets(proposals, labels)
    loss, d_head, d_layers = cl._gcn_loss_and_grads(model, cl._gather(ps, idx, rows), targets[idx])
    views = list(proposals)
    batch = [
        (views[j], np.array(ref.proposal_targets(views[j], labels)),
         ref.proposal_operator(views[j], g))
        for j in idx
    ]
    want_loss, want_head, want_layers = ref.loss_and_grads(model, batch, rows)
    assert_close(loss, want_loss)
    assert_close(d_head, want_head)
    for got_pair, want_pair in zip(d_layers, want_layers):
        for got, want in zip(got_pair, want_pair):
            assert_close(got, want)


@settings(max_examples=80, deadline=None)
@given(scene=scenes(), seed=st.integers(0, 1000))
def test_batched_scores_match_reference(scene, seed):
    emb, g, _, proposals, _ = scene
    model = cl.GcnModel.init(emb.d, seed=seed)
    ps = cl._prepare(proposals, g)

    def blocks(rows):
        """score_proposals' blocks, evaluated on ``rows``."""
        runs = cl._runs(ps.sizes, cl._SCORE_BLOCK_ROWS)
        batches = [cl._gather(ps, np.arange(lo, hi), rows) for lo, hi in runs]
        return np.concatenate([cl._forward(model, batch)[0] for batch in batches])

    scores = cl.score_proposals(model, proposals, emb, g)
    assert scores.tolist() == blocks(emb.rows).tolist()
    rows = emb.rows.astype(np.float64)
    assert_close(blocks(rows), np.array([ref.score(model, p, rows, g) for p in proposals]))


@settings(max_examples=200, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12),
    d=st.integers(1, 40),
    dtype=st.sampled_from([np.float32, np.float64]),
    by_size=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_segment_means_do_not_depend_on_batch_neighbors(sizes, d, dtype, by_size, seed):
    # every run's mean is bit-equal to the same reduction of that run
    # alone, whether the runs come sorted by size or not
    sizes = np.array(sorted(sizes) if by_size else sizes)
    seg = offsets(sizes)[:-1]
    X = np.random.default_rng(seed).standard_normal((int(sizes.sum()), d)).astype(dtype)
    got = cl._segment_means(X, seg, sizes)
    alone = np.concatenate(
        [cl._segment_means(X[s : s + m], np.array([0]), np.array([m])) for s, m in zip(seg, sizes)]
    )
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, alone)
    # and it is the mean, up to the rounding of a float sum of m rows
    want = np.stack([X[s : s + m].astype(np.float64).mean(axis=0) for s, m in zip(seg, sizes)])
    tol = np.finfo(dtype).eps * sizes[:, None] * np.abs(X).max()
    assert np.all(np.abs(got - want) <= tol)


def test_float32_training_stays_close_to_float64_reference():
    # a few epochs of the float32 SGD loop against the float64 one: the
    # weights and scores may differ only by float32 rounding, accumulated
    cfg = SynthConfig(num_ids=8, samples_per_id=20, dim=16, within_id_sigma=0.15, seed=13)
    emb, labels = generate_identities(cfg)
    g = build_knn_graph(emb, k=8)
    props = proposals_from_thresholds(g, [0.9, 0.8, 0.6, 0.3], max_size=100)
    props = props + cl.union_augment(props, len(props) // 2, seed=1)
    got = cl.gcn_train(props, emb, g, labels, epochs=3, lr=0.5, seed=2)
    want = ref.train(props, emb, g, labels, epochs=3, lr=0.5, seed=2)
    pairs = [(got.head_weights, want.head_weights)] + [
        (a, b) for ga, wa in zip(got.layer_weights, want.layer_weights) for a, b in zip(ga, wa)
    ]
    for a, b in pairs:
        assert a.dtype == np.float32 and b.dtype == np.float64
        assert np.max(np.abs(a - b)) <= 1e-4 * np.max(np.abs(b))
    scores = cl.score_proposals(got, props, emb, g)
    want_scores = np.array([ref.score(want, p, emb.rows.astype(np.float64), g) for p in props])
    assert np.max(np.abs(scores - want_scores)) <= 1e-4 * np.max(np.abs(want_scores))


@settings(max_examples=100, deadline=None)
@given(scene=scenes(), data=st.data())
def test_prepare_in_runs_equals_one_gather(scene, data):
    _, g, _, proposals, _ = scene
    with block_budget(2**60):
        whole = cl._prepare(proposals, g)
    # _prepare takes a quarter of the budget per run; a run limit of one
    # puts every proposal in a run of its own
    for limit in (1, data.draw(st.integers(2, 4000))):
        with block_budget(4 * limit):
            runs = cl._prepare(proposals, g)
        for field in ("members", "starts", "edge_starts", "edge_row", "edge_col", "edge_val"):
            got, want = getattr(runs, field), getattr(whole, field)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
