"""Azimuthal spectrum statistics of rotating-horn channel-gain scans.

A scan is one full antenna rotation at a fixed RX point: a uniform azimuth
grid and one linear power gain per grid angle (antenna gains included, i.e.
coupling gain).  Averages over angle are taken in the linear domain on the
uniform grid, which is the spectrally exact quadrature for a periodic
integrand; results are reported in dB.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError
from .stats import EmpiricalCdf, aligned_histograms, empirical_cdf

__all__ = [
    "VehicleState",
    "Stacking",
    "AngularScan",
    "AngularSpectrumStats",
    "to_db",
    "from_db",
    "circular_mean_gain",
    "normalized_spectrum",
    "require_common_grid",
    "ensemble_stats",
    "tx_bearing",
    "azimuth_gain",
    "gain_cdfs",
]

TWO_PI = 2.0 * math.pi

# Tolerances for grid validation / comparison (rad).
GRID_SPACING_TOL = 1e-9
GRID_MATCH_TOL = 1e-12


class VehicleState(str, enum.Enum):
    ABSENT = "absent"
    POSITION1 = "position1"
    POSITION2 = "position2"


class Stacking(str, enum.Enum):
    UNIFORM = "uniform"
    NONUNIFORM = "nonuniform"


@dataclass(frozen=True, eq=False)
class AngularScan:
    """One rotation measurement: linear channel gain vs azimuth at one RX point.

    Attributes:
        tx: transmitter identifier (e.g. "TX1_63", "TX2").
        x, y: RX position (m); x runs along the canyon, y across it.
        angles: strictly increasing uniform azimuth grid (rad) covering one
            full rotation, first angle in [0, spacing).
        gains: linear power channel gain per angle, all finite and > 0.
        vehicle_state: vehicle presence during the measurement.
        stacking: container stacking configuration.
    """

    tx: str
    x: float
    y: float
    angles: np.ndarray
    gains: np.ndarray
    vehicle_state: VehicleState = VehicleState.ABSENT
    stacking: Stacking = Stacking.UNIFORM

    def __post_init__(self) -> None:
        angles = np.asarray(self.angles, dtype=float)
        gains = np.asarray(self.gains, dtype=float)
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "gains", gains)
        object.__setattr__(self, "vehicle_state", VehicleState(self.vehicle_state))
        object.__setattr__(self, "stacking", Stacking(self.stacking))
        if angles.ndim != 1 or angles.shape != gains.shape:
            raise GridError(
                f"angles and gains must be 1-D and equal length, got "
                f"{angles.shape} vs {gains.shape}"
            )
        n = angles.size
        if n < 8:
            raise GridError(f"need at least 8 azimuth samples, got {n}")
        if not np.all((gains > 0.0) & (gains < np.inf)):
            raise DomainError("all linear gains must be finite and > 0")
        steps = np.diff(angles)
        if not np.all(steps > 0.0):
            raise GridError("angles must be strictly increasing")
        spacing = TWO_PI / n
        if np.max(np.abs(steps - spacing)) > GRID_SPACING_TOL:
            raise GridError(
                "angle grid must be uniform with spacing 2*pi/N "
                f"(max deviation {np.max(np.abs(steps - spacing)):.3e} rad)"
            )
        if not 0.0 <= angles[0] < spacing + GRID_SPACING_TOL:
            raise GridError(
                f"grid must start within the first spacing interval, got {angles[0]}"
            )

    @property
    def key(self) -> tuple:
        """Grouping key identifying the measurement this scan belongs to."""
        return (self.tx, self.x, self.y, self.vehicle_state, self.stacking)

    @property
    def spacing(self) -> float:
        return TWO_PI / self.angles.size


@dataclass(frozen=True, eq=False)
class AngularSpectrumStats:
    """Per-angle ensemble statistics over a set of scans.

    mean_db[i] is the linear-domain ensemble mean at angles[i], in dB.
    counts[i, j] is the number of scans whose dB gain at angles[i] fell in
    histogram bin j; each row sums to the number of contributing scans.
    """

    angles: np.ndarray
    mean_db: np.ndarray
    bin_edges_db: np.ndarray
    counts: np.ndarray
    n_scans: int


def to_db(gain):
    """Linear power ratio -> dB.  Rejects non-positive input."""
    arr = np.asarray(gain, dtype=float)
    if not np.all(arr > 0.0):
        raise DomainError("gain must be > 0 to convert to dB")
    out = 10.0 * np.log10(arr)
    return float(out) if np.isscalar(gain) or arr.ndim == 0 else out


def from_db(db):
    """dB -> linear power ratio."""
    arr = np.asarray(db, dtype=float)
    out = 10.0 ** (arr / 10.0)
    return float(out) if np.isscalar(db) or arr.ndim == 0 else out


def circular_mean_gain(scan: AngularScan) -> float:
    """Channel gain averaged over angle, in dB.

    Arithmetic mean of the linear gains on the uniform grid (rectangle rule
    on the periodic domain), then converted to dB.
    """
    return float(10.0 * np.log10(np.mean(scan.gains)))


def normalized_spectrum(scan: AngularScan) -> np.ndarray:
    """Per-angle dB gain relative to the scan's circular mean.

    The output's linear-domain circular mean is 1 (0 dB), so spectra from
    links with different absolute gains become comparable.
    """
    return to_db(scan.gains) - circular_mean_gain(scan)


def require_common_grid(scans) -> np.ndarray:
    """The angle grid every scan shares; a GridError names the first that
    differs in size or by more than GRID_MATCH_TOL at any angle."""
    grid = scans[0].angles
    for scan in scans[1:]:
        if scan.angles.size != grid.size or np.max(np.abs(scan.angles - grid)) > GRID_MATCH_TOL:
            raise GridError(
                f"scans must share one angle grid; scan {scan.key} differs"
            )
    return grid


def ensemble_stats(scans, db_bin_width: float = 1.0) -> AngularSpectrumStats:
    """Per-angle ensemble mean and dB-gain histogram over a set of scans.

    The mean is taken in the linear domain and reported in dB.  The
    histogram bins the raw per-scan dB gains at each angle with the given
    bin width; edges are aligned to multiples of the width
    (`stats.aligned_histograms`, which bounds the bin count).
    """
    scans = list(scans)
    if not scans:
        raise DomainError("ensemble_stats needs at least one scan")
    grid = require_common_grid(scans)

    gains = np.stack([s.gains for s in scans])          # (n_scans, n_angles)
    mean_db = 10.0 * np.log10(np.mean(gains, axis=0))
    edges, counts = aligned_histograms(10.0 * np.log10(gains), db_bin_width)

    return AngularSpectrumStats(
        angles=grid,
        mean_db=mean_db,
        bin_edges_db=edges,
        counts=counts,
        n_scans=len(scans),
    )


def tx_bearing(tx_pos, rx_pos) -> float:
    """Azimuth of the transmitter as seen from the RX, wrapped to [0, 2*pi).

    Uses the campaign's angle convention: atan2(y_rx - y_tx, x_tx - x_rx),
    i.e. the 0-degree direction runs along the canyon and positive angles
    follow the rotator's sense.
    """
    x_tx, y_tx = tx_pos
    x_rx, y_rx = rx_pos
    if x_tx == x_rx and y_tx == y_rx:
        raise DomainError("TX and RX positions coincide; bearing undefined")
    return math.atan2(y_rx - y_tx, x_tx - x_rx) % TWO_PI


def azimuth_gain(scan: AngularScan) -> float:
    """Best-direction gain over the mean (dB): max of the normalized spectrum.

    Always >= 0 dB, with equality only for a perfectly flat spectrum; this is
    the benefit an ideal azimuth-pointed beam would get over an average one.
    """
    return float(np.max(normalized_spectrum(scan)))


def _nearest_grid_index(scan: AngularScan, angle: float) -> int:
    return int(round((angle - scan.angles[0]) / scan.spacing)) % scan.angles.size


def gain_cdfs(scans, tx_positions) -> tuple[EmpiricalCdf, EmpiricalCdf]:
    """Normalized-gain CDFs over all directions vs the TX direction.

    The first CDF pools the normalized spectrum over every angle of every
    scan; the second takes, per scan, the normalized gain at the grid angle
    nearest the transmitter bearing.  If the two are close, pointing a beam
    at the TX buys nothing over pointing it anywhere.

    Args:
        scans: iterable of AngularScan.
        tx_positions: mapping tx id -> (x, y) position.

    Returns:
        (cdf_all_directions, cdf_tx_direction)
    """
    scans = list(scans)
    if not scans:
        raise DomainError("gain_cdfs needs at least one scan")
    pooled = []
    at_tx = []
    for scan in scans:
        if scan.tx not in tx_positions:
            raise KeyError(f"no position known for transmitter {scan.tx!r}")
        spectrum = normalized_spectrum(scan)
        pooled.append(spectrum)
        bearing = tx_bearing(tx_positions[scan.tx], (scan.x, scan.y))
        at_tx.append(spectrum[_nearest_grid_index(scan, bearing)])
    return empirical_cdf(np.concatenate(pooled)), empirical_cdf(np.array(at_tx))
