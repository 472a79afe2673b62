"""Statistics of the channel-gain change caused by a vehicle in the canyon.

Purely statistical: per-angle dB differences between a baseline scan and the
matching scan with the vehicle present, a Gaussian fit of the pooled
differences, and an empirical-vs-fitted CDF comparison.  No scattering model
of the vehicle is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import AngularScan, ScanSet, VehicleState, require_common_grid, to_db
from .errors import DomainError, GridError, InsufficientDataError, PairingError
from .stats import aligned_histograms, gaussian_cdf, sorted_ks_gap

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

    def __post_init__(self) -> None:
        if self.sigma_db < 0.0:
            raise DomainError(f"sigma must be >= 0, got {self.sigma_db}")


@dataclass(frozen=True, eq=False)
class DeltaCdfReport:
    """Empirical and fitted-Gaussian CDFs of pooled gain differences.

    Both CDFs are tabulated on the sorted sample values; sup_gap is the
    Kolmogorov distance between them (vertical, in probability).
    """

    values_db: np.ndarray
    empirical: np.ndarray
    gaussian: np.ndarray
    sup_gap: float
    fit: GaussianFitResult


def vehicle_delta(base, with_vehicle) -> np.ndarray:
    """Per-angle gain difference baseline minus vehicle, in dB.

    The two scans must describe the same link: same tx and RX position and
    the same angle grid; the baseline must have no vehicle and the other
    scan must have one.  Two ScanSets are paired row by row, their vehicle
    scans on one grid, and give one row of deltas per pair.
    """
    if single := isinstance(base, AngularScan):
        base, with_vehicle = [base], [with_vehicle]
    base, with_vehicle = ScanSet.of(base), ScanSet.of(with_vehicle)
    moved = base.vehicle_state != VehicleState.ABSENT.value
    if moved.any():
        raise PairingError(f"baseline scan has vehicle_state={base.vehicle_state[moved.argmax()]}")
    if (with_vehicle.vehicle_state == VehicleState.ABSENT.value).any():
        raise PairingError("second scan must have a vehicle present")
    apart = base.differs(with_vehicle, ("tx", "x", "y", "stacking"))
    if apart.any():
        i = int(apart.argmax())
        raise PairingError(
            f"scans describe different links: {base[i].key} vs {with_vehicle[i].key}")
    require_common_grid(with_vehicle)
    off_grid = base.grid_differs(with_vehicle.blocks[0].angles)
    if off_grid.any():
        raise GridError(f"scans must share one angle grid; scan "
                        f"{with_vehicle[int(off_grid.argmax())].key} differs")
    deltas = to_db(base.blocks[0].gains) - to_db(with_vehicle.blocks[0].gains)
    return deltas[0] if single else deltas


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


def delta_angle_stats(delta_matrix, db_bin_width: float = 1.0):
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

    Returns both CDFs on the sorted sample grid plus the sup (Kolmogorov)
    gap; a small gap says the vehicle effect is well described as additive
    Gaussian dB noise.
    """
    arr = np.sort(np.asarray(deltas, dtype=float).ravel())
    fit = fit_gaussian(arr)
    empirical = np.arange(1, arr.size + 1, dtype=float) / arr.size
    gaussian = gaussian_cdf(arr, fit.mu_db, fit.sigma_db)
    return DeltaCdfReport(
        values_db=arr,
        empirical=empirical,
        gaussian=np.asarray(gaussian, dtype=float),
        sup_gap=sorted_ks_gap(gaussian),
        fit=fit,
    )
