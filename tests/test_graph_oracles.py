"""Property tests of the graph layer against straightforward reference code.

The references are the plain formulations the vectorized code replaced:
a full stable ``argsort`` per row for top-k, a dict-based union-find per
(sub)graph for the threshold sweep, and a scan of every edge for each
proposal operator (built here by the batched code for a one-proposal
batch). Inputs are quantized and duplicated rows, so that
similarity ties land on the k-th boundary and on the thresholds.
"""

import warnings
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforge import cluster as cl
from labelforge import knn
from labelforge.data import EmbeddingSet, l2_normalize
from labelforge.knn import (
    KnnGraph,
    Proposals,
    build_knn_graph,
    proposals_from_thresholds,
    symmetric_edges,
)
import proposal_reference

# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


def reference_knn(rows, k):
    """Top-k by (-sim, index): stable argsort of every full row."""
    s = rows @ rows.T
    np.fill_diagonal(s, -np.inf)
    order = np.argsort(-s, axis=1, kind="stable")[:, :k]
    return order, np.take_along_axis(s, order, axis=1)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def reference_components(nodes, lo, hi, sim, t):
    """Components of the subgraph on ``nodes`` with sim >= t, in order of
    first appearance in ``nodes``, members sorted."""
    pos = {int(v): i for i, v in enumerate(nodes)}
    uf = _UnionFind(len(nodes))
    keep = sim >= t
    for a, b in zip(lo[keep], hi[keep]):
        ia, ib = pos.get(int(a)), pos.get(int(b))
        if ia is not None and ib is not None:
            uf.union(ia, ib)
    groups = {}
    for i, v in enumerate(nodes):
        groups.setdefault(uf.find(i), []).append(int(v))
    return [np.array(sorted(g), dtype=np.int64) for g in groups.values()]


def reference_proposals(g, ts, max_size):
    """Recursive re-cut of every oversized component on its own subgraph."""
    lo, hi, sim = symmetric_edges(g)
    out, seen = [], set()

    def cut(nodes, ti):
        for comp in reference_components(nodes, lo, hi, sim, ts[ti]):
            if comp.size > max_size and ti > 0:
                cut(comp, ti - 1)
            else:
                key = tuple(int(m) for m in comp)
                if key not in seen:
                    seen.add(key)
                    out.append((key, ts[ti]))

    for ti in range(len(ts)):
        cut(np.arange(g.n, dtype=np.int64), ti)
    return out


def reference_operator(members, g):
    """Dinv A from the dense n x n adjacency of every symmetric edge,
    computed in float64 and rounded to the graph's dtype. A row's degree
    adds its sims one at a time in the CSR's edge order: the larger
    neighbors ascending, then the smaller ones ascending."""
    lo, hi, sim = symmetric_edges(g)
    full = np.zeros((g.n, g.n))
    full[lo, hi] = sim
    full[hi, lo] = sim
    A = full[np.ix_(members, members)]
    # row i read from column i + 1 on, wrapping round: its zero diagonal
    # comes last, and the zeros of non-edges leave a running sum unchanged
    m = len(members)
    turned = (np.arange(m)[:, None] + 1 + np.arange(m)) % m
    deg = np.cumsum(np.take_along_axis(A, turned, axis=1), axis=1)[:, -1]
    ok = deg >= np.finfo(sim.dtype).tiny  # smaller degrees count as zero
    inv = np.where(ok, 1.0 / np.where(ok, deg, 1.0), 0.0)
    return (inv[:, None] * A).astype(sim.dtype)


# ---------------------------------------------------------------------------
# inputs: quantized rows with duplicates, so that sims tie exactly
# ---------------------------------------------------------------------------


@st.composite
def tied_embeddings(draw, max_n=40):
    n = draw(st.integers(3, max_n))
    d = draw(st.integers(2, 4))
    levels = draw(st.integers(1, 2))
    cells = st.integers(-levels, levels)
    rows = np.array(draw(st.lists(cells, min_size=n * d, max_size=n * d)), dtype=float)
    rows = rows.reshape(n, d)
    # duplicate some rows onto others
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        rows[dst] = rows[src]
    rows[np.all(rows == 0, axis=1), 0] = 1.0
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    return EmbeddingSet(rows, normalized=True)


@st.composite
def tiny_component_graphs(draw, max_n=10):
    """k-NN graphs of unit rows (+-1, t) and (t, +-1) whose off-axis entry t
    is tiny: +-1e-20, +-1e-10 or 0. A row's sims are +-1 to the rows on its
    axis, which cancel exactly, and tiny to the rows across it, which a
    running sum of +-1 absorbs; so its degree depends on the order its sims
    are added in. k is at least half of n, so that the -1 sims, the
    smallest, make edges too."""
    n = draw(st.integers(3, max_n))
    sign = st.sampled_from([1.0, -1.0])
    tiny = st.sampled_from([1e-20, -1e-20, 1e-10, -1e-10, 0.0])
    rows = np.zeros((n, 2))
    for r in rows:
        axis = draw(st.integers(0, 1))
        r[axis], r[1 - axis] = draw(sign), draw(tiny)
    k = draw(st.integers(n // 2, n - 1))
    return build_knn_graph(EmbeddingSet(rows, normalized=True), k=k)


@st.composite
def graphs(draw):
    emb = draw(tied_embeddings())
    k = draw(st.integers(1, emb.n - 1))
    return build_knn_graph(emb, k=k)


@settings(max_examples=150, deadline=None)
@given(emb=tied_embeddings(), data=st.data())
def test_knn_matches_full_argsort(emb, data):
    k = data.draw(st.integers(1, emb.n - 1))
    g = build_knn_graph(emb, k=k)
    neighbors, sims = reference_knn(emb.rows, k)
    np.testing.assert_array_equal(g.neighbors, neighbors)
    np.testing.assert_array_equal(g.sims, sims)


@contextmanager
def block_budget(elements):
    """Run the graph layer with ``knn.BLOCK_ELEMENTS`` set to ``elements``."""
    saved = knn.BLOCK_ELEMENTS
    knn.BLOCK_ELEMENTS = elements
    try:
        yield
    finally:
        knn.BLOCK_ELEMENTS = saved


@settings(max_examples=150, deadline=None)
@given(emb=tied_embeddings(), data=st.data())
def test_knn_guarantee_holds_under_any_block_height(emb, data):
    n, k = emb.n, data.draw(st.integers(1, emb.n - 1))
    graphs = []
    for rows in (1, data.draw(st.integers(2, n - 1)), n):
        with block_budget(rows * n):
            graphs.append(build_knn_graph(emb, k=k))
    product = emb.rows @ emb.rows.T
    np.fill_diagonal(product, -np.inf)
    # two roundings of one float32 d-term dot product of unit vectors differ by at most this
    tol = emb.d * 2.0**-23
    i = np.arange(n)[:, None]
    for g in graphs:
        # the (-sim, index) order of its own sims, self excluded
        assert np.all(g.neighbors != i)
        step = np.diff(g.sims, axis=1)
        assert np.all(step <= 0)
        assert np.all(np.diff(g.neighbors, axis=1)[step == 0] > 0)
        # each sim is the dot product up to rounding; no candidate left out is more similar
        np.testing.assert_allclose(g.sims, product[i, g.neighbors], rtol=0, atol=tol)
        left_out = product.copy()
        left_out[i, g.neighbors] = -np.inf
        assert np.all(left_out.max(axis=1) <= g.sims[:, -1] + tol)
    for g in graphs[1:]:
        np.testing.assert_allclose(g.sims, graphs[0].sims, rtol=0, atol=tol)
        # a rank may change hands only between candidates that close in exact
        # arithmetic, which is 2 * tol; ``product`` adds one rounding more
        moved = g.neighbors != graphs[0].neighbors
        gap = np.abs(product[i, g.neighbors] - product[i, graphs[0].neighbors])
        assert np.all(gap[moved] <= 3 * tol)


def test_knn_tie_at_kth_value_keeps_smaller_indices():
    # rows 1..5 are identical, so row 0 sees five equal candidates for
    # its last two slots after the exact duplicate 6
    base = np.array([1.0, 0.0, 0.0])
    other = np.array([0.6, 0.8, 0.0])
    rows = np.vstack([base, other, other, other, other, other, base, [0.0, 0.0, 1.0]])
    g = build_knn_graph(EmbeddingSet(rows, normalized=True), k=3)
    np.testing.assert_array_equal(g.neighbors[0], [6, 1, 2])
    np.testing.assert_array_equal(g.neighbors[3], [1, 2, 4])


@settings(max_examples=150, deadline=None)
@given(g=graphs(), data=st.data())
def test_proposals_match_recursive_union_find(g, data):
    _, _, sim = symmetric_edges(g)
    # thresholds taken from the edge sims themselves sit exactly on ties
    picks = data.draw(st.lists(st.sampled_from(sorted(set(sim.tolist()))), min_size=1, max_size=6))
    extra = data.draw(st.lists(st.floats(-1.5, 1.5), max_size=2))
    ts = sorted(set(picks + extra), reverse=True)
    # small caps re-cut several levels deep
    max_size = data.draw(st.one_of(st.integers(1, 3), st.integers(1, g.n)))
    got = proposal_reference.pairs(proposals_from_thresholds(g, ts, max_size=max_size))
    assert got == reference_proposals(g, ts, max_size)
    assert got == proposal_reference.proposals_from_thresholds(g, ts, max_size)


def test_proposal_order_on_a_hand_built_graph():
    # singletons at 0.9; {0, 3} and {1, 2} at 0.7; one component at 0.4
    neighbors = np.array([[3, 1], [2, 0], [1, 0], [0, 1]])
    sims = np.array([[0.8, 0.5], [0.8, 0.5], [0.8, 0.1], [0.8, 0.1]])
    g = KnnGraph(neighbors, sims)
    ts = [0.9, 0.7, 0.4]
    singletons = [((0,), 0.9), ((1,), 0.9), ((2,), 0.9), ((3,), 0.9)]
    pairs = [((0, 3), 0.7), ((1, 2), 0.7)]
    cases = {1: singletons, 2: singletons + pairs, 4: singletons + pairs + [((0, 1, 2, 3), 0.4)]}
    for max_size, want in cases.items():
        got = proposal_reference.pairs(proposals_from_thresholds(g, ts, max_size))
        assert got == want == reference_proposals(g, ts, max_size)


@settings(max_examples=300, deadline=None)
@given(g=st.one_of(graphs(), tiny_component_graphs()), data=st.data())
def test_proposal_operator_matches_dense_reference(g, data):
    members = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True))
    p = Proposals.of([members])
    got = cl._block_operator(cl._prepare(p, g), np.array([0]))
    want = reference_operator(p.members, g)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_proposal_operator_sums_degrees_in_csr_order():
    # node 1's sims are 1e-20 (node 0), 0.6 (node 2) and -0.6 (node 3). The
    # CSR lists its larger neighbors first, so its degree is
    # 0.6 - 0.6 + 1e-20 = 1e-20 exactly; in column order 0.6 would absorb
    # 1e-20 and the degree would be 0
    rows = np.array([[1e-20, 1.0], [1.0, 0.0], [0.6, 0.8], [-0.6, 0.8]], dtype=np.float32)
    g = build_knn_graph(EmbeddingSet(rows, normalized=True), k=3)
    # every row's neighbors in CSR order, added left to right below
    csr_order = [(1, 2, 3), (2, 3, 0), (3, 0, 1), (0, 1, 2)]
    indptr, nbr, _ = knn.symmetric_csr(g)
    assert [tuple(nbr[indptr[v] : indptr[v + 1]].tolist()) for v in range(4)] == csr_order
    p = Proposals.of([range(4)])
    got = cl._block_operator(cl._prepare(p, g), np.array([0]))
    np.testing.assert_array_equal(got, reference_operator(p.members, g))
    sims = (rows @ rows.T).astype(np.float64)
    np.fill_diagonal(sims, 0.0)
    deg = np.array([sims[v, a] + sims[v, b] + sims[v, c] for v, (a, b, c) in enumerate(csr_order)])
    assert deg[1] == np.float32(1e-20)
    np.testing.assert_array_equal(got, ((1.0 / deg)[:, None] * sims).astype(np.float32))
    assert got[1, 0] == 1.0 and got[1, 1] == 0.0 and got[1, 2] == -got[1, 3] > 1e19


def test_proposal_operator_keeps_a_row_zero_when_float32_cannot_invert_its_degree():
    # node 0's sims are +0.196 (node 1) and -0.196 (node 2), which cancel,
    # and about 1e-40 (node 3), a float32 subnormal: scaled by 1 / deg,
    # the first two would overflow float32, so the row stays zero
    rows = np.array(
        [[1, 0, 0, 0], [0.2, 1, 0, 0], [-0.2, 1, 0, 0], [1e-40, 0, 0, 1]], dtype=np.float32
    )
    p = Proposals.of([range(4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_knn_graph(l2_normalize(EmbeddingSet(rows)), k=3)
        got = cl._block_operator(cl._prepare(p, g), np.array([0]))
        want = reference_operator(p.members, g)
    np.testing.assert_array_equal(got, want)
    assert np.isfinite(got).all() and not got[0].any() and got[1:].any()
