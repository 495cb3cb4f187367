"""Extreme-value statistics for overlap separation.

Otsu initialization of a score threshold, Weibull maximum-likelihood
fitting of each side, and 95%-confidence cuts that split unlabeled samples
into disjoint / overlap / rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import EmbeddingSet, LinearHead
from .errors import (
    DegenerateScores,
    NonConvergence,
    OneSidedData,
    QuantileOutOfRange,
    TooFewSamples,
)

MIN_SIDE_SAMPLES = 8

DISJOINT = 0
OVERLAP = 1
REJECTED = 2


@dataclass(frozen=True)
class WeibullParams:
    shape_k: float
    scale_lambda: float
    shift: float = 0.0

    def __post_init__(self):
        if not (self.shape_k > 0 and self.scale_lambda > 0):
            raise ValueError("shape and scale must be positive")


@dataclass(frozen=True)
class MixtureSeparation:
    otsu_t: float
    low: WeibullParams
    high: WeibullParams
    lower_cut: float
    upper_cut: float


def max_logits(head: LinearHead, emb: EmbeddingSet) -> np.ndarray:
    """Per-sample maximum pre-softmax score under the classifier head."""
    return head.logits(emb).max(axis=1)


def otsu_threshold(scores, n_bins: int = 256) -> float:
    """Histogram threshold maximizing between-class variance.

    Candidate thresholds are the interior bin edges of an equal-width
    histogram over [min, max]; ties resolve to the lowest edge, so the bin
    just below the returned edge is never empty.
    """
    x = np.asarray(scores, dtype=np.float64).ravel()
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    if x.size < 2 or np.ptp(x) == 0.0:
        raise DegenerateScores("need >= 2 distinct score values")
    counts, edges = np.histogram(x, bins=n_bins, range=(x.min(), x.max()))
    centers = 0.5 * (edges[:-1] + edges[1:])
    mass = counts * centers
    # running sums from either end: the cuts around an empty bin split alike
    # and tie exactly. The end bins hold the min and max: no class is empty.
    w0 = np.cumsum(counts)[:-1]
    w1 = np.cumsum(counts[::-1])[::-1][1:]
    m0 = np.cumsum(mass)[:-1] / w0
    m1 = np.cumsum(mass[::-1])[::-1][1:] / w1
    v = w0 * w1 * (m0 - m1) ** 2
    return float(edges[1 + int(np.argmax(v))])  # argmax: the first of equal maxima


def weibull_fit_mle(samples, max_iter: int = 100, tol: float = 1e-9) -> WeibullParams:
    """Two-parameter Weibull MLE via Newton iteration on the profile shape.

    Data with nonpositive minimum is shifted to positive support first
    (shift = min - 1e-6 * range), recorded in the returned parameters.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < MIN_SIDE_SAMPLES:
        raise TooFewSamples(f"need >= {MIN_SIDE_SAMPLES} samples, got {x.size}")
    rng_ = float(np.ptp(x))
    if rng_ == 0.0:
        raise TooFewSamples("samples are all equal")
    shift = 0.0
    if x.min() <= 0.0:
        shift = float(x.min()) - 1e-6 * rng_
    x = x - shift

    ln_x = np.log(x)
    # method-of-moments start: Var[ln X] = pi^2 / (6 k^2)
    std_ln = float(np.std(ln_x))
    k = math.pi / (std_ln * math.sqrt(6.0)) if std_ln > 0 else 1.0
    mean_ln = float(np.mean(ln_x))
    converged = False
    for _ in range(max_iter):
        xk = x**k
        xk_ln = xk * ln_x
        a = float(np.sum(xk_ln))
        b = float(np.sum(xk))
        f = a / b - mean_ln - 1.0 / k
        a_prime = float(np.sum(xk_ln * ln_x))
        f_prime = a_prime / b - (a / b) ** 2 + 1.0 / (k * k)
        step = f / f_prime
        k_new = k - step
        if not np.isfinite(k_new) or k_new <= 0:
            k_new = k / 2.0
        if abs(k_new - k) < tol:
            k = k_new
            converged = True
            break
        k = k_new
    if not converged:
        raise NonConvergence(f"shape iteration did not converge (last k={k})")
    lam = float(np.mean(x**k) ** (1.0 / k))
    return WeibullParams(shape_k=k, scale_lambda=lam, shift=shift)


def weibull_fit_shifted(samples) -> WeibullParams:
    """Three-parameter Weibull fit: location pinned just below the sample
    minimum, then shape/scale by MLE on the shifted data.

    Use this for density comparisons on data far from zero, where the
    two-parameter fit wastes its shape on bridging the gap to the origin.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < MIN_SIDE_SAMPLES:
        raise TooFewSamples(f"need >= {MIN_SIDE_SAMPLES} samples, got {x.size}")
    rng_ = float(np.ptp(x))
    if rng_ == 0.0:
        raise TooFewSamples("samples are all equal")
    shift = float(x.min()) - 1e-6 * rng_
    inner = weibull_fit_mle(x - shift)
    return WeibullParams(
        shape_k=inner.shape_k,
        scale_lambda=inner.scale_lambda,
        shift=shift + inner.shift,
    )


def weibull_eval(p: WeibullParams, x: float, which: str) -> float:
    """Evaluate pdf, cdf or quantile of a (shifted) Weibull."""
    k, lam, shift = p.shape_k, p.scale_lambda, p.shift
    if which == "quantile":
        if not 0.0 < x < 1.0:
            raise QuantileOutOfRange(f"quantile arg {x} not in (0, 1)")
        return shift + lam * (-math.log1p(-x)) ** (1.0 / k)
    z = (x - shift) / lam
    if which == "pdf":
        if z < 0.0:
            return 0.0
        return (k / lam) * z ** (k - 1.0) * math.exp(-(z**k))
    if which == "cdf":
        if z < 0.0:
            return 0.0
        return -math.expm1(-(z**k))
    raise ValueError(f"unknown evaluation kind {which!r}")


def weibull_survival(p: WeibullParams, x) -> np.ndarray:
    """Vectorized survival function exp(-((x - shift)/lambda)^k), 1 below shift."""
    z = (np.asarray(x, dtype=np.float64) - p.shift) / p.scale_lambda
    z = np.maximum(z, 0.0)
    return np.exp(-(z**p.shape_k))


def weibull_sample(p: WeibullParams, size: int, rng: np.random.Generator) -> np.ndarray:
    u = rng.uniform(size=size)
    return p.shift + p.scale_lambda * (-np.log1p(-u)) ** (1.0 / p.shape_k)


def otsu_split(scores, n_bins: int = 256) -> tuple[float, np.ndarray, np.ndarray]:
    """Otsu threshold t and the scores below it and at or above it.

    Raises OneSidedData when either side has fewer than MIN_SIDE_SAMPLES.
    """
    x = np.asarray(scores, dtype=np.float64).ravel()
    t = otsu_threshold(x, n_bins=n_bins)
    low, high = x[x < t], x[x >= t]
    if low.size < MIN_SIDE_SAMPLES or high.size < MIN_SIDE_SAMPLES:
        raise OneSidedData(f"sides of Otsu threshold too small: {low.size} / {high.size}")
    return t, low, high


def fit_two_weibull_mixture(
    scores, n_bins: int = 256, confidence: float = 0.95
) -> MixtureSeparation:
    """Otsu-initialized per-side Weibull fits and confidence cuts.

    lower_cut is the upper ``confidence`` quantile of the low (disjoint)
    component; upper_cut is the lower quantile of the high (overlap)
    component. Scores between the cuts fall in the rejection band.
    """
    t, low_side, high_side = otsu_split(scores, n_bins=n_bins)
    low = weibull_fit_mle(low_side)
    high = weibull_fit_mle(high_side)
    lower_cut = weibull_eval(low, confidence, "quantile")
    upper_cut = weibull_eval(high, 1.0 - confidence, "quantile")
    return MixtureSeparation(
        otsu_t=t,
        low=low,
        high=high,
        lower_cut=float(lower_cut),
        upper_cut=float(upper_cut),
    )


def separate_overlap(scores, mix: MixtureSeparation) -> np.ndarray:
    """Per-sample decision: DISJOINT below both cuts, OVERLAP above both,
    REJECTED in the ambiguous band between them."""
    x = np.asarray(scores, dtype=np.float64).ravel()
    lo = min(mix.lower_cut, mix.upper_cut)
    hi = max(mix.lower_cut, mix.upper_cut)
    out = np.full(x.shape, REJECTED, dtype=np.int64)
    out[x < lo] = DISJOINT
    out[x > hi] = OVERLAP
    return out


def fit_sse(pdf, samples, n_bins: int = 50) -> float:
    """Sum of squared errors between an empirical density histogram and a
    model pdf evaluated at the bin centers. ``pdf`` is a callable."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    density, edges = np.histogram(x, bins=n_bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    model = np.array([pdf(c) for c in centers], dtype=np.float64)
    return float(np.sum((density - model) ** 2))


def gaussian_pdf(mean: float, std: float):
    """Gaussian density as a callable, for SSE fit comparisons."""

    def pdf(x: float) -> float:
        z = (x - mean) / std
        return math.exp(-0.5 * z * z) / (std * math.sqrt(2.0 * math.pi))

    return pdf
