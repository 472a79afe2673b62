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
    "t_quantile", "check_bin_width", "aligned_histograms", "MAX_HISTOGRAM_BINS",
]

# Upper bound on the bins of one histogram: a tiny bin width over a wide dB
# range would otherwise ask for an (angles x bins) array of any size.
MAX_HISTOGRAM_BINS = 10_000
# Rows of a (scans x angles) matrix that a chunked pass takes at a time: 64
# rows of 360 angles make temporaries of 0.2 MB each, where the whole
# paper-scale campaign's are 6 MB.
CHUNK_ROWS = 64


@dataclass(frozen=True, eq=False)
class EmpiricalCdf:
    """Right-continuous empirical CDF: P(X <= values[i]) = probs[i].

    Only the sorted values are held; `probs`, the k/n column, is formed
    each time it is read, so a CDF table's second column exists only while
    the table is written (`columns`)."""

    values: np.ndarray  # sorted ascending

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def probs(self) -> np.ndarray:
        """k/n for k = 1..n."""
        return np.arange(1, self.n + 1, dtype=float) / self.n

    def columns(self) -> tuple:
        """(values, probs), one row per sample: the CDF's table."""
        return self.values, self.probs

    def quantile(self, p: float) -> float:
        """Smallest sample value whose CDF reaches p (0 < p <= 1)."""
        if not 0.0 < p <= 1.0:
            raise DomainError(f"p must be in (0, 1], got {p}")
        idx = int(np.searchsorted(self.probs, p, side="left"))
        return float(self.values[min(idx, self.n - 1)])

    def median(self) -> float:
        return self.quantile(0.5)

    @classmethod
    def of_sorted(cls, values) -> "EmpiricalCdf":
        """The CDF of samples already sorted ascending, held as given."""
        if values.size == 0:
            raise InsufficientDataError("empirical CDF needs at least one sample")
        return cls(values=values)


def empirical_cdf(samples) -> EmpiricalCdf:
    """Build the empirical CDF of a 1-D sample."""
    return EmpiricalCdf.of_sorted(np.sort(np.asarray(samples, dtype=float).ravel()))


def gaussian_cdf(x, mu: float, sigma: float):
    """Normal CDF; degenerates to a unit step at mu when sigma == 0."""
    x = np.asarray(x, dtype=float)
    if sigma == 0.0:
        return (x >= mu).astype(float)
    return 0.5 * (1.0 + special.erf((x - mu) / (sigma * math.sqrt(2.0))))


def t_quantile(p: float, df) -> float:
    """Quantile p of Student's t distribution with df degrees of freedom.

    Bit for bit scipy's `t.ppf(p, df)`, which evaluates the same
    `special.stdtrit` call.
    """
    return float(special.stdtrit(df, p))


def check_bin_width(bin_width: float) -> None:
    """Raise DomainError unless bin_width is a finite number > 0."""
    if not (math.isfinite(bin_width) and bin_width > 0.0):
        raise DomainError(f"bin width must be > 0, got {bin_width}")


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
    check_bin_width(bin_width)
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
    # np.histogram's bins: [edges[k], edges[k + 1]), the last one closed, and
    # nothing outside the edges; every column is counted at once, in one
    # flat count.  The rows go CHUNK_ROWS at a time, so the scratch is a few
    # chunk-sized arrays.
    n_columns = samples.shape[1]
    offsets = np.arange(n_columns) * n_bins
    counts = np.zeros(n_columns * n_bins, dtype=np.intp)
    for top in range(0, len(samples), CHUNK_ROWS):
        chunk = samples[top:top + CHUNK_ROWS]
        bins = np.searchsorted(edges[1:-1], chunk, side="right")
        bins += offsets
        np.add.at(counts, bins[(chunk >= edges[0]) & (chunk <= edges[-1])], 1)
    return edges, counts.reshape(n_columns, n_bins)


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
    steps = np.arange(reference.size + 1.0) / reference.size  # the empirical CDF's k/n
    return float(np.max([(steps[1:] - reference).max(), (reference - steps[:-1]).max()]))
