"""Statistics of the channel-gain change caused by a vehicle in the canyon.

Purely statistical: per-angle dB differences between each scan with the
vehicle present and the baseline scan of the same link (tx, RX position and
stacking), a Gaussian fit of the pooled differences, and an
empirical-vs-fitted CDF comparison.  No scattering model of the vehicle is
attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import ScanSet, Stacking, VehicleState
from .errors import DomainError, IngestError, InsufficientDataError
from .stats import CHUNK_ROWS, EmpiricalCdf, aligned_histograms, gaussian_cdf, sorted_ks_gap

__all__ = [
    "GaussianFitResult", "DeltaCdfReport", "vehicle_delta", "fit_gaussian",
    "delta_cdf_report", "delta_angle_stats",
]


@dataclass(frozen=True)
class GaussianFitResult:
    """Maximum-likelihood Gaussian parameters (population sigma, 1/N)."""

    mu_db: float
    sigma_db: float
    sample_count: int


@dataclass(frozen=True, eq=False)
class DeltaCdfReport:
    """Empirical and fitted-Gaussian CDFs of pooled gain differences.

    Only the sorted sample values and the fit are held; `columns` forms both
    CDFs on the values.  sup_gap is the Kolmogorov distance between them
    (vertical, in probability).
    """

    values_db: np.ndarray
    sup_gap: float
    fit: GaussianFitResult

    def columns(self) -> tuple:
        """(values_db, empirical CDF k/n, fitted Gaussian CDF), one row per value."""
        return (self.values_db, EmpiricalCdf.of_sorted(self.values_db).probs,
                gaussian_cdf(self.values_db, self.fit.mu_db, self.fit.sigma_db))


def vehicle_delta(scans: ScanSet, state) -> np.ndarray:
    """Per-angle difference of the set's dB gains, baseline minus vehicle, one
    row per scan with the vehicle at state (position1 or position2), in set order.
    Each is paired with the (last) vehicle-absent scan of its link (same tx,
    x, y and stacking) by link code, and read from the set's matrix by
    index, a chunk of rows at a time, without copying subsets; every scan is
    on the set's one grid.  No scan at state is a DomainError."""
    if state not in (VehicleState.POSITION1, VehicleState.POSITION2):
        raise DomainError(f"vehicle_delta needs a vehicle position, got state={state!r}")
    with_vehicle = np.flatnonzero(scans.state_code == VehicleState(state).code)
    if not with_vehicle.size:
        raise DomainError(f"no scan has the vehicle at {VehicleState(state).value}")
    link, _ = scans.groups(scans.tx_code, scans.x, scans.y, scans.stacking_code)
    baseline = np.flatnonzero(scans.state_code == VehicleState.ABSENT.code)
    base_of = np.full(link.max() + 1, -1)
    np.maximum.at(base_of, link[baseline], baseline)
    base = base_of[link[with_vehicle]]
    if (base < 0).any():
        tx_id, x, y, _, stacking = scans.key(with_vehicle[np.argmax(base < 0)])
        raise IngestError(f"no baseline scan for vehicle scan at "
                          f"{(tx_id, x, y, Stacking(stacking))}; cannot pair")
    # CHUNK_ROWS rows at a time: the baseline's straight into the result.
    delta = np.empty((with_vehicle.size, scans.grid.size))
    for top in range(0, len(delta), CHUNK_ROWS):
        rows = delta[top:top + CHUNK_ROWS]
        np.take(scans.gains, base[top:top + CHUNK_ROWS], axis=0, out=rows)
        rows -= scans.gains[with_vehicle[top:top + CHUNK_ROWS]]
    return delta


def fit_gaussian(samples) -> GaussianFitResult:
    """ML Gaussian fit of dB samples: mean and population (1/N) std deviation."""
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size < 2:
        raise InsufficientDataError(f"Gaussian fit needs at least 2 samples, got {arr.size}")
    return GaussianFitResult(
        mu_db=float(np.mean(arr)),
        sigma_db=float(np.std(arr)),
        sample_count=int(arr.size),
    )


def delta_angle_stats(delta_matrix, db_bin_width: float):
    """Per-angle mean and histogram of a (n_pairs, n_angles) delta matrix.

    Deltas are already in dB, so the mean is a plain arithmetic mean per
    angle; histogram edges are aligned to multiples of the bin width
    (`stats.aligned_histograms`, which bounds the bin count).

    Returns:
        (mean_db, bin_edges_db, counts) with counts shaped (n_angles, n_bins).
    """
    matrix = np.atleast_2d(np.asarray(delta_matrix, dtype=float))
    edges, counts = aligned_histograms(matrix, db_bin_width)
    mean_db = matrix.mean(axis=0)
    return mean_db, edges, counts


def delta_cdf_report(deltas) -> DeltaCdfReport:
    """Fit a Gaussian to pooled deltas and compare CDFs.

    Returns the sorted deltas, the fit and the sup (Kolmogorov) gap between
    the two CDFs; a small gap says the vehicle effect is well described as
    additive Gaussian dB noise.  A C-ordered float array of deltas, such as
    `vehicle_delta` returns, is sorted in place (anything else is copied
    first) and becomes the report's values: a caller that still needs the
    deltas in order passes a copy.
    """
    values = np.asarray(deltas, dtype=float).ravel()
    values.sort()
    fit = fit_gaussian(values)
    return DeltaCdfReport(values_db=values, fit=fit, sup_gap=sorted_ks_gap(
        gaussian_cdf(values, fit.mu_db, fit.sigma_db)))
