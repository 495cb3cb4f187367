"""Peak allocation bounds for the graph layer, measured with tracemalloc.

Each pass holds scratch arrays of at most ``knn.BLOCK_ELEMENTS``
elements, so its peak stays flat in n. The bounds leave room over the
measured peaks (about 5.6 and 4.2 MB) and sit far below what a pass
holding 1024 x n arrays, or int64 arrays over every gathered edge,
allocates (about 190 and 24 MB).
"""

import tracemalloc

import numpy as np

from labelforge import cluster as cl
from labelforge import knn
from labelforge.data import EmbeddingSet, l2_normalize
from labelforge.synth import SynthConfig, generate_identities


def peak_mb(fn):
    """``fn()`` and the peak of memory it allocated on top of what was live, in MiB."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, (tracemalloc.get_traced_memory()[1] - live) / 2**20
    finally:
        tracemalloc.stop()


def identities(num_ids):
    cfg = SynthConfig(num_ids=num_ids, samples_per_id=20, dim=32, within_id_sigma=0.15, seed=0)
    return generate_identities(cfg)[0]


def test_knn_build_at_n8000_stays_within_16_mb():
    emb = l2_normalize(EmbeddingSet(np.random.default_rng(0).standard_normal((8000, 32))))
    g, peak = peak_mb(lambda: knn.build_knn_graph(emb, k=8))
    assert g.neighbors.shape == (8000, 8)
    assert peak <= 16, f"build_knn_graph peak {peak:.1f} MB"


def test_prepare_of_a_scale_n5k_proposal_set_stays_within_10_mb():
    # the GCN training set of the scale-n5k benchmark: n=2500, k=8, twelve
    # thresholds, max_size 100, plus two thirds as many unions
    emb = identities(125)
    g = knn.build_knn_graph(emb, k=8)
    props = knn.proposals_from_thresholds(g, knn.default_thresholds(g, count=12), max_size=100)
    props += cl.union_augment(props, 2 * len(props) // 3, seed=1)
    ps, peak = peak_mb(lambda: cl._prepare(props, g))
    assert len(ps.members) > 25000 and len(ps.edge_row) > 150000
    assert peak <= 10, f"_prepare peak {peak:.1f} MB"

