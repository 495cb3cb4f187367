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
from .errors import InvalidData, NonConvergence, OneSidedData

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

    # The evaluators take a scalar or an array and compute in float64.
    # Below the shift the pdf and cdf are 0 and sf is 1.

    def _z(self, x) -> np.ndarray:
        """Scaled distance above the shift, 0 below it."""
        return np.maximum((np.asarray(x, dtype=np.float64) - self.shift) / self.scale_lambda, 0.0)

    def pdf(self, x) -> np.ndarray:
        k, z = self.shape_k, self._z(x)
        with np.errstate(divide="ignore"):  # at the shift, k < 1 gives the pole, inf
            dens = (k / self.scale_lambda) * z ** (k - 1.0) * np.exp(-(z**k))
        return np.where(np.asarray(x) < self.shift, 0.0, dens)

    def cdf(self, x) -> np.ndarray:
        return -np.expm1(-(self._z(x) ** self.shape_k))

    def sf(self, x) -> np.ndarray:
        """Survival function, 1 - cdf."""
        return np.exp(-(self._z(x) ** self.shape_k))

    def quantile(self, q) -> np.ndarray:
        """Inverse of the cdf; every q must lie in (0, 1)."""
        q = np.asarray(q, dtype=np.float64)
        bad = q[~((q > 0.0) & (q < 1.0))]
        if bad.size:
            raise InvalidData(f"quantile arg {bad[0]} not in (0, 1)")
        return self.shift + self.scale_lambda * (-np.log1p(-q)) ** (1.0 / self.shape_k)


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


def otsu_threshold(scores, n_bins: int = 64) -> float:
    """Histogram threshold maximizing between-class variance.

    Candidate thresholds are the interior bin edges of an equal-width
    histogram over [min, max]; ties resolve to the lowest edge, so the bin
    just below the returned edge is never empty.
    """
    x = np.asarray(scores, dtype=np.float64).ravel()
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    if x.size < 2 or np.ptp(x) == 0.0:
        raise InvalidData("need >= 2 distinct score values")
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
    The iteration runs on ``x / max(x)``, to whose scale the shape equation
    is blind, so its powers stay in (0, 1] and cannot overflow.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size < MIN_SIDE_SAMPLES:
        raise InvalidData(f"need >= {MIN_SIDE_SAMPLES} samples, got {x.size}")
    rng_ = float(np.ptp(x))
    if rng_ == 0.0:
        raise InvalidData("samples are all equal")
    shift = 0.0
    if x.min() <= 0.0:
        shift = float(x.min()) - 1e-6 * rng_
    x = x - shift
    top = float(x.max())
    x = x / top

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
    lam = top * float(np.mean(x**k) ** (1.0 / k))
    return WeibullParams(shape_k=k, scale_lambda=lam, shift=shift)


def weibull_fit_shifted(samples) -> WeibullParams:
    """Three-parameter Weibull fit: location pinned just below the sample
    minimum, then shape/scale by MLE on the shifted data.

    Use this for density comparisons on data far from zero, where the
    two-parameter fit wastes its shape on bridging the gap to the origin.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    # the inner fit raises InvalidData on too few or all-equal samples
    shift = float(x.min()) - 1e-6 * float(np.ptp(x)) if x.size else 0.0
    inner = weibull_fit_mle(x - shift)
    return WeibullParams(
        shape_k=inner.shape_k,
        scale_lambda=inner.scale_lambda,
        shift=shift + inner.shift,
    )


def otsu_split(scores, n_bins: int = 64) -> tuple[float, np.ndarray, np.ndarray]:
    """Otsu threshold t and the scores below it and at or above it.

    Raises OneSidedData when the scores hold fewer than two distinct
    values (there is no split), or when either side has fewer than
    MIN_SIDE_SAMPLES or holds one value only: neither gives a Weibull fit.
    """
    x = np.asarray(scores, dtype=np.float64).ravel()
    if x.size < 2 or np.ptp(x) == 0.0:
        raise OneSidedData(f"fewer than 2 distinct scores among {x.size}")
    t = otsu_threshold(x, n_bins=n_bins)
    low, high = x[x < t], x[x >= t]
    if low.size < MIN_SIDE_SAMPLES or high.size < MIN_SIDE_SAMPLES:
        raise OneSidedData(f"sides of Otsu threshold too small: {low.size} / {high.size}")
    if np.ptp(low) == 0.0 or np.ptp(high) == 0.0:
        raise OneSidedData(f"a side of Otsu threshold is all one score: {low.size} / {high.size}")
    return t, low, high


def fit_two_weibull_mixture(
    scores, n_bins: int = 64, confidence: float = 0.95
) -> MixtureSeparation:
    """Otsu-initialized per-side Weibull fits and confidence cuts.

    lower_cut is the upper ``confidence`` quantile of the low (disjoint)
    component; upper_cut is the lower quantile of the high (overlap)
    component. Scores between the cuts fall in the rejection band.
    """
    t, low_side, high_side = otsu_split(scores, n_bins=n_bins)
    low = weibull_fit_mle(low_side)
    high = weibull_fit_mle(high_side)
    return MixtureSeparation(
        otsu_t=t,
        low=low,
        high=high,
        lower_cut=float(low.quantile(confidence)),
        upper_cut=float(high.quantile(1.0 - confidence)),
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
    model pdf evaluated at the bin centers. ``pdf`` maps an array of
    points to their densities."""
    x = np.asarray(samples, dtype=np.float64).ravel()
    density, edges = np.histogram(x, bins=n_bins, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum((density - pdf(centers)) ** 2))


def gaussian_pdf(mean: float, std: float):
    """Gaussian density as a function of arrays, for SSE fit comparisons."""

    def pdf(x) -> np.ndarray:
        z = (np.asarray(x, dtype=np.float64) - mean) / std
        return np.exp(-0.5 * z * z) / (std * math.sqrt(2.0 * math.pi))

    return pdf
