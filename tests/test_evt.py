import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforge import errors
from labelforge.data import EmbeddingSet, LinearHead, read_json, write_json
from labelforge.evt import (
    DISJOINT,
    OVERLAP,
    REJECTED,
    MixtureSeparation,
    WeibullParams,
    fit_sse,
    fit_two_weibull_mixture,
    gaussian_pdf,
    max_logits,
    otsu_split,
    otsu_threshold,
    separate_overlap,
    weibull_fit_mle,
)


def otsu_oracle(scores, n_bins):
    """Exhaustive between-class-variance maximization over all bin edges.
    An edge above an empty bin splits the scores as the edge below it does,
    so only the lowest edge of such a run is scored."""
    x = np.asarray(scores, dtype=np.float64)
    counts, edges = np.histogram(x, bins=n_bins, range=(x.min(), x.max()))
    centers = 0.5 * (edges[:-1] + edges[1:])
    best_t, best_v = None, -1.0
    for cut in range(1, n_bins):
        if counts[cut - 1] == 0:
            continue
        w0 = counts[:cut].sum()
        w1 = counts[cut:].sum()
        if w0 == 0 or w1 == 0:
            v = 0.0
        else:
            m0 = (counts[:cut] * centers[:cut]).sum() / w0
            m1 = (counts[cut:] * centers[cut:]).sum() / w1
            v = w0 * w1 * (m0 - m1) ** 2
        if v > best_v:
            best_v, best_t = v, edges[cut]
    return float(best_t)


def test_otsu_symmetric_bimodal():
    t = otsu_threshold([0, 0, 0, 1, 1, 1], n_bins=2)
    assert t == pytest.approx(0.5)


def test_otsu_two_groups():
    t = otsu_threshold([1, 2, 3, 10, 11, 12], n_bins=256)
    assert 3 < t < 10
    assert t == pytest.approx(otsu_oracle([1, 2, 3, 10, 11, 12], 256))


def test_otsu_matches_oracle_randomized():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n_bins = int(rng.integers(2, 65))
        x = np.concatenate([
            rng.normal(0, 1, 100),
            rng.normal(rng.uniform(2, 6), 1, 100),
        ])
        assert otsu_threshold(x, n_bins=n_bins) == otsu_oracle(x, n_bins)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_bins=st.integers(2, 64),
    sizes=st.tuples(st.integers(1, 150), st.integers(1, 150)),
    gap=st.floats(0.0, 8.0),
)
def test_otsu_edge_sits_above_a_nonempty_bin(seed, n_bins, sizes, gap):
    # an edge above an empty bin splits the scores as the edge below it
    # does: the two tie, and the tie goes to the lower edge
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(0, 1, sizes[0]), rng.normal(gap, 1, sizes[1])])
    t = otsu_threshold(x, n_bins=n_bins)
    counts, edges = np.histogram(x, bins=n_bins, range=(x.min(), x.max()))
    cut = int(np.flatnonzero(edges == t)[0])
    assert counts[cut - 1] > 0


def test_otsu_degenerate():
    with pytest.raises(errors.InvalidData, match="need >= 2 distinct score values"):
        otsu_threshold([3.0, 3.0, 3.0])


def test_weibull_fit_exponential():
    rng = np.random.default_rng(1)
    x = rng.exponential(scale=2.0, size=10_000)  # Weibull(k=1, lambda=2)
    p = weibull_fit_mle(x)
    assert abs(p.shape_k - 1.0) / 1.0 < 0.05
    assert abs(p.scale_lambda - 2.0) / 2.0 < 0.05


def test_weibull_fit_recovery():
    rng = np.random.default_rng(2)
    gen = WeibullParams(shape_k=2.0, scale_lambda=1.5)
    x = gen.quantile(rng.uniform(size=10_000))
    p = weibull_fit_mle(x)
    assert abs(p.shape_k - 2.0) / 2.0 < 0.05
    assert abs(p.scale_lambda - 1.5) / 1.5 < 0.05


def test_weibull_fit_large_shape_without_overflow():
    # x**k of the raw samples overflows float64 long before k reaches 800
    x = 4.7 * np.random.default_rng(0).weibull(800, 1500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = weibull_fit_mle(x)
    assert abs(p.shape_k - 800) / 800 < 0.05
    assert abs(p.scale_lambda - 4.7) / 4.7 < 0.05


def test_weibull_fit_constant_samples():
    with pytest.raises(errors.InvalidData, match="samples are all equal"):
        weibull_fit_mle(np.ones(100))


def test_weibull_fit_too_few():
    with pytest.raises(errors.InvalidData, match="need >= 8 samples, got 3"):
        weibull_fit_mle([1.0, 2.0, 3.0])


def test_weibull_fit_negative_data_shifted():
    rng = np.random.default_rng(3)
    x = WeibullParams(2.0, 1.0).quantile(rng.uniform(size=5000)) - 5.0
    p = weibull_fit_mle(x)
    assert p.shift < x.min()
    assert p.shape_k > 0


def test_weibull_cdf_at_scale():
    p = WeibullParams(shape_k=2.5, scale_lambda=1.3, shift=0.2)
    assert p.cdf(0.2 + 1.3) == pytest.approx(1 - math.exp(-1), abs=1e-12)


def test_weibull_pdf_below_shift():
    p = WeibullParams(shape_k=2.0, scale_lambda=1.0, shift=1.0)
    assert p.pdf(0.5) == 0.0


def test_weibull_quantile_closed_form():
    p = WeibullParams(shape_k=2.0, scale_lambda=1.0)
    assert p.quantile(0.95) == pytest.approx(math.sqrt(-math.log(0.05)), abs=1e-9)
    assert p.quantile(0.95) == pytest.approx(1.7308, abs=1e-4)


def test_weibull_quantile_out_of_range():
    p = WeibullParams(1.0, 1.0)
    with pytest.raises(errors.InvalidData, match=r"quantile arg 1\.5 not in \(0, 1\)"):
        p.quantile(1.5)


def test_quantile_cdf_identity():
    p = WeibullParams(shape_k=1.7, scale_lambda=2.2, shift=-0.3)
    for x in np.linspace(p.shift + 1e-3, p.shift + 5 * p.scale_lambda, 50):
        q = p.quantile(p.cdf(float(x)))
        assert q == pytest.approx(float(x), abs=1e-9)


def test_evaluators_on_arrays_match_closed_form():
    k, lam, shift = 1.5, 0.8, 0.4
    p = WeibullParams(k, lam, shift)
    # below the shift, at it, near it, around the scale and in the tail
    x = np.array([shift - 1.0, shift - 1e-9, shift, shift + 1e-3, shift + 0.5 * lam,
                  shift + lam, shift + 2.5 * lam])
    zs = [(v - shift) / lam for v in x]
    above = x >= shift
    pdf = [(k / lam) * z ** (k - 1) * math.exp(-(z**k)) if a else 0.0 for z, a in zip(zs, above)]
    cdf = [-math.expm1(-(z**k)) if a else 0.0 for z, a in zip(zs, above)]
    sf = [math.exp(-(z**k)) if a else 1.0 for z, a in zip(zs, above)]
    q = np.array([1e-6, 0.01, 0.3, 0.5, 0.9, 0.999])
    quantile = [shift + lam * (-math.log1p(-u)) ** (1 / k) for u in q]
    for got, want in [(p.pdf(x), pdf), (p.cdf(x), cdf), (p.sf(x), sf),
                      (p.quantile(q), quantile)]:
        np.testing.assert_array_max_ulp(got, np.array(want), maxulp=4)
    np.testing.assert_allclose(p.cdf(x) + p.sf(x), 1.0, rtol=0, atol=1e-15)
    inside = x > shift
    np.testing.assert_allclose(p.quantile(p.cdf(x[inside])), x[inside], rtol=0, atol=1e-9)
    np.testing.assert_array_equal(p.pdf(x[~above]), 0.0)
    # also for k < 1, whose pdf has a pole at the shift
    np.testing.assert_array_equal(WeibullParams(0.8, lam, shift).pdf(x[~above]), 0.0)
    with pytest.raises(errors.InvalidData, match=r"quantile arg 1\.0 not in \(0, 1\)"):
        p.quantile(np.array([0.2, 0.5, 1.0, 0.7]))


def test_cdf_is_integral_of_pdf():
    p = WeibullParams(shape_k=2.3, scale_lambda=0.9, shift=0.5)
    for x in [0.7, 1.0, 1.8, 3.0]:
        grid = np.linspace(p.shift, x, 20_001)
        integral = np.trapezoid(p.pdf(grid), grid)
        assert integral == pytest.approx(p.cdf(x), abs=1e-6)


def test_mle_local_optimality():
    rng = np.random.default_rng(4)
    x = WeibullParams(1.8, 1.2).quantile(rng.uniform(size=2000))
    p = weibull_fit_mle(x)

    def loglik(k, lam):
        z = x / lam
        return np.sum(np.log(k / lam) + (k - 1) * np.log(z) - z**k)

    center = loglik(p.shape_k, p.scale_lambda)
    for k in np.linspace(p.shape_k * 0.9, p.shape_k * 1.1, 21):
        for lam in np.linspace(p.scale_lambda * 0.9, p.scale_lambda * 1.1, 21):
            assert loglik(k, lam) <= center + 1e-9


def test_max_logits():
    head = LinearHead(np.array([[1.0, 0.0], [0.0, 1.0]]))
    emb = EmbeddingSet(np.array([[1.0, 0.0], [0.6, 0.8]]), normalized=True)
    z = max_logits(head, emb)
    np.testing.assert_allclose(z, [1.0, 0.8])


def test_max_logits_dimension_mismatch():
    head = LinearHead(np.eye(3))
    emb = EmbeddingSet(np.array([[0.6, 0.8]]), normalized=True)
    with pytest.raises(errors.InvalidData, match="head expects d=3, got d=2"):
        max_logits(head, emb)


def _bimodal_scores(seed=0, n=500):
    rng = np.random.default_rng(seed)
    low = WeibullParams(2.0, 0.5).quantile(rng.uniform(size=n))
    high = WeibullParams(3.0, 0.5).quantile(rng.uniform(size=n)) + 3.0
    return np.concatenate([low, high])


def test_mixture_well_separated():
    x = _bimodal_scores()
    mix = fit_two_weibull_mixture(x, n_bins=256)
    assert mix.lower_cut < mix.upper_cut
    assert x[: len(x) // 2].mean() < mix.otsu_t < x[len(x) // 2 :].mean()


def test_mixture_unimodal_one_sided():
    rng = np.random.default_rng(5)
    x = rng.normal(10, 0.001, 300)
    x[0] += 5.0  # a single far value pulls Otsu past one side
    with pytest.raises(errors.OneSidedData):
        fit_two_weibull_mixture(x, n_bins=256)


def test_separation_decisions():
    x = _bimodal_scores(seed=1)
    mix = fit_two_weibull_mixture(x, n_bins=256)
    decisions = separate_overlap(np.array([-10.0, 10.0]), mix)
    assert decisions[0] == DISJOINT and decisions[1] == OVERLAP
    mid = 0.5 * (mix.lower_cut + mix.upper_cut)
    assert separate_overlap(np.array([mid]), mix)[0] == REJECTED


def test_separation_monotone():
    x = _bimodal_scores(seed=2)
    mix = fit_two_weibull_mixture(x, n_bins=256)
    zs = np.linspace(x.min() - 1, x.max() + 1, 500)
    decisions = separate_overlap(zs, mix)
    changes = np.sum(np.diff(decisions) != 0)
    assert changes <= 2


def test_sse_prefers_true_model():
    rng = np.random.default_rng(6)
    gen = WeibullParams(1.5, 1.0)
    x = gen.quantile(rng.uniform(size=20_000))
    fitted = weibull_fit_mle(x)
    wrong = WeibullParams(fitted.shape_k, fitted.scale_lambda * 2, fitted.shift)
    sse_good = fit_sse(fitted.pdf, x)
    sse_bad = fit_sse(wrong.pdf, x)
    assert sse_good < sse_bad


def test_sse_weibull_beats_gaussian_on_skewed_data():
    rng = np.random.default_rng(7)
    x = WeibullParams(1.2, 1.0).quantile(rng.uniform(size=20_000))
    wb = weibull_fit_mle(x)
    sse_wb = fit_sse(wb.pdf, x)
    sse_gauss = fit_sse(gaussian_pdf(float(x.mean()), float(x.std())), x)
    assert sse_wb < sse_gauss


def test_sse_two_bins_by_hand():
    # samples {0.5, 1.5}: bins [0.5,1.0), [1.0,1.5], width 0.5, one sample
    # each -> empirical density 1/(2*0.5) = 1.0 per bin
    samples = np.array([0.5, 1.5])
    model = lambda v: 0.25
    sse = fit_sse(model, samples, n_bins=2)
    assert sse == pytest.approx(2 * (1.0 - 0.25) ** 2, abs=1e-12)


def test_mixture_json_roundtrip(tmp_path):
    x = _bimodal_scores(seed=3)
    mix = fit_two_weibull_mixture(x, n_bins=256)
    path = tmp_path / "mix.json"
    write_json(dataclasses.asdict(mix), path)
    assert read_json(path) == dataclasses.asdict(mix)


@pytest.mark.parametrize("equal_side", ["low", "high"])
def test_otsu_split_rejects_a_side_of_equal_scores(equal_side):
    # enough scores for a fit, but one value only: no Weibull fits them
    spread = np.linspace(5.0, 6.0, 20)
    x = np.concatenate([np.zeros(10), spread] if equal_side == "low" else [-spread, np.zeros(10)])
    with pytest.raises(errors.OneSidedData, match="all one score: "):
        otsu_split(x)


@pytest.mark.parametrize("x", [np.full(10, 0.7), np.array([0.7])], ids=["ten-equal", "single"])
def test_otsu_split_rejects_fewer_than_two_distinct_scores(x):
    # no threshold splits them: the callers fall back as for a one-sided split
    with pytest.raises(errors.OneSidedData, match="fewer than 2 distinct scores"):
        otsu_split(x)


def test_otsu_split_partitions_at_threshold():
    x = _bimodal_scores(seed=1)
    t, low, high = otsu_split(x, n_bins=64)
    assert t == otsu_threshold(x, n_bins=64)
    np.testing.assert_array_equal(low, x[x < t])
    np.testing.assert_array_equal(high, x[x >= t])
