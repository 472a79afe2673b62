"""Small shared statistics helpers: empirical CDFs, Gaussian CDF, t quantiles
and aligned per-column histograms.

This is the only module that imports scipy, and it imports only
`scipy.special`.  The t quantile comes from `special.stdtrit`, so scipy's
statistics subpackage, most of a second of import time, stays off every
CLI start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, InsufficientDataError

__all__ = [
    "EmpiricalCdf", "empirical_cdf", "gaussian_cdf", "ks_gap", "sorted_ks_gap",
    "t_quantile", "aligned_histograms", "MAX_HISTOGRAM_BINS",
]

# Upper bound on the bins of one histogram: a tiny bin width over a wide dB
# range would otherwise ask for an (angles x bins) array of any size.
MAX_HISTOGRAM_BINS = 10_000


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Right-continuous empirical CDF: P(X <= values[i]) = probs[i]."""

    values: np.ndarray  # sorted ascending
    probs: np.ndarray   # k/n for k = 1..n

    @property
    def n(self) -> int:
        return len(self.values)

    def quantile(self, p: float) -> float:
        """Smallest sample value whose CDF reaches p (0 < p <= 1)."""
        if not 0.0 < p <= 1.0:
            raise DomainError(f"p must be in (0, 1], got {p}")
        idx = int(np.searchsorted(self.probs, p, side="left"))
        return float(self.values[min(idx, self.n - 1)])

    def median(self) -> float:
        return self.quantile(0.5)


def empirical_cdf(samples) -> EmpiricalCdf:
    """Build the empirical CDF of a 1-D sample."""
    values = np.sort(np.asarray(samples, dtype=float).ravel())
    if values.size == 0:
        raise InsufficientDataError("empirical CDF needs at least one sample")
    probs = np.arange(1, values.size + 1, dtype=float) / values.size
    return EmpiricalCdf(values=values, probs=probs)


def gaussian_cdf(x, mu: float, sigma: float):
    """Normal CDF; degenerates to a unit step at mu when sigma == 0."""
    x = np.asarray(x, dtype=float)
    if sigma == 0.0:
        return (x >= mu).astype(float)
    z = (x - mu) / (sigma * math.sqrt(2.0))
    return 0.5 * (1.0 + special.erf(z))


def t_quantile(p: float, df) -> float:
    """Quantile p of Student's t distribution with df degrees of freedom.

    Bit for bit scipy's `t.ppf(p, df)`, which evaluates the same
    `special.stdtrit` call.
    """
    return float(special.stdtrit(df, p))


def aligned_histograms(samples, bin_width: float):
    """Histogram of each column of a 2-D sample on one set of aligned edges.

    The edges run from the largest multiple of bin_width at or below the
    sample minimum to the smallest at or above its maximum (one bin if they
    coincide).

    Returns:
        (edges, counts) with counts shaped (n_columns, n_bins).

    Raises:
        DomainError: bin_width is not a finite number > 0, or the edges
            would need more than MAX_HISTOGRAM_BINS bins.
    """
    samples = np.asarray(samples, dtype=float)
    if not (math.isfinite(bin_width) and bin_width > 0.0):
        raise DomainError(f"bin width must be > 0, got {bin_width}")
    # A width tiny enough to overflow the span is caught by the bound below.
    with np.errstate(over="ignore", invalid="ignore"):
        lo = np.floor(samples.min() / bin_width) * bin_width
        hi = np.ceil(samples.max() / bin_width) * bin_width
        if hi <= lo:
            hi = lo + bin_width
        span = (hi - lo) / bin_width
    if not span < MAX_HISTOGRAM_BINS + 0.5:
        raise DomainError(
            f"bin width {bin_width} dB gives more than {MAX_HISTOGRAM_BINS} bins "
            f"over [{lo}, {hi}] dB"
        )
    n_bins = int(round(span))
    edges = lo + bin_width * np.arange(n_bins + 1)
    counts = np.empty((samples.shape[1], n_bins), dtype=int)
    for i in range(samples.shape[1]):
        counts[i], _ = np.histogram(samples[:, i], bins=edges)
    return edges, counts


def ks_gap(samples, mu: float, sigma: float) -> float:
    """Kolmogorov sup-gap between a sample's empirical CDF and N(mu, sigma^2).

    Evaluates both one-sided gaps at every sample point, which attains the
    supremum for a continuous reference CDF.
    """
    values = np.sort(np.asarray(samples, dtype=float).ravel())
    if values.size == 0:
        raise InsufficientDataError("KS gap needs at least one sample")
    return sorted_ks_gap(gaussian_cdf(values, mu, sigma))


def sorted_ks_gap(reference) -> float:
    """Kolmogorov sup-gap between the empirical CDF of n sorted samples and
    `reference`, a continuous CDF evaluated at them (so it need not re-sort)."""
    n = reference.size
    upper = np.arange(1, n + 1) / n - reference
    lower = reference - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))
