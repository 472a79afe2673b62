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
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, GridError
from .stats import EmpiricalCdf, aligned_histograms, empirical_cdf

__all__ = [
    "VehicleState", "Stacking", "AngularScan", "ScanBlock", "ScanSet", "first_invalid",
    "AngularSpectrumStats", "to_db", "from_db", "circular_mean_gain", "normalized_spectrum",
    "require_common_grid", "ensemble_stats", "tx_bearing", "azimuth_gain", "gain_cdfs",
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
            raise GridError(f"angles and gains must be 1-D and equal length, got "
                            f"{angles.shape} vs {gains.shape}")
        invalid = first_invalid(angles[None], gains[None])
        if invalid:
            raise invalid[1]

    @property
    def key(self) -> tuple:
        """Grouping key identifying the measurement this scan belongs to."""
        return (self.tx, self.x, self.y, self.vehicle_state, self.stacking)


def first_invalid(angles, gains):
    """(row, error) for the first row of (scans x angles) matrices that is not
    a valid scan, with the error `AngularScan` raises for it; None if all are."""
    n = angles.shape[1]
    if n < 8:
        return 0, GridError(f"need at least 8 azimuth samples, got {n}")
    spacing = TWO_PI / n
    steps = angles[:, 1:] - angles[:, :-1]
    deviation = np.abs(steps - spacing).max(axis=1)
    start = angles[:, 0]
    bad = (~((gains > 0.0) & (gains < np.inf)).all(axis=1), ~(steps > 0.0).all(axis=1),
           deviation > GRID_SPACING_TOL, ~((0.0 <= start) & (start < spacing + GRID_SPACING_TOL)))
    rows = np.flatnonzero(bad[0] | bad[1] | bad[2] | bad[3])
    if not rows.size:
        return None
    row = int(rows[0])
    return row, (
        DomainError("all linear gains must be finite and > 0"),
        GridError("angles must be strictly increasing"),
        GridError("angle grid must be uniform with spacing 2*pi/N "
                  f"(max deviation {deviation[row]:.3e} rad)"),
        GridError(f"grid must start within the first spacing interval, got {start[row]}"),
    )[[check[row] for check in bad].index(True)]


class ScanBlock(NamedTuple):
    """The scans of a ScanSet with one angle count: their positions in the set
    (ascending) and their (scans x angles) angles (rad) and linear gains."""

    index: np.ndarray
    angles: np.ndarray
    gains: np.ndarray


class ScanSet(Sequence):
    """Scans as columns, in order: what `dataio.ingest` returns.

    The key columns `tx`, `x`, `y`, `vehicle_state` and `stacking` (enum
    values) hold one entry per scan, `blocks` one ScanBlock per angle count,
    and `sha256` the hash of the file read, if any.  An item is an
    `AngularScan` view, built and checked on access; a slice, mask or index
    array selects a ScanSet.  The matrices are taken as already checked.
    """

    KEYS = ("tx", "x", "y", "vehicle_state", "stacking")

    def __init__(self, columns, blocks, sha256=None):
        self.tx, self.x, self.y, self.vehicle_state, self.stacking = columns
        self.blocks, self.sha256 = tuple(blocks), sha256
        self._block, self._row = np.zeros((2, len(self.tx)), dtype=int)
        for b, block in enumerate(self.blocks):
            self._block[block.index], self._row[block.index] = b, np.arange(block.index.size)

    @classmethod
    def from_keys(cls, keys, blocks, sha256=None) -> "ScanSet":
        """The ScanSet of one (tx, x, y, vehicle_state, stacking) key per scan."""
        tx, x, y, vehicle_state, stacking = zip(*keys) if keys else ((),) * 5
        return cls((np.array(tx, dtype=object), np.array(x, dtype=float),
                    np.array(y, dtype=float), np.array(vehicle_state, dtype=object),
                    np.array(stacking, dtype=object)), blocks, sha256)

    @classmethod
    def of(cls, scans) -> "ScanSet":
        """scans itself if it is a ScanSet, else the ScanSet of the AngularScans."""
        if isinstance(scans, ScanSet):
            return scans
        scans = list(scans)
        sizes = np.array([s.angles.size for s in scans], dtype=int)
        blocks = [ScanBlock(index, *(np.stack([getattr(scans[i], name) for i in index])
                                     for name in ("angles", "gains")))
                  for index in (np.flatnonzero(sizes == n) for n in dict.fromkeys(sizes.tolist()))]
        return cls.from_keys([(*s.key[:3], s.vehicle_state.value, s.stacking.value)
                              for s in scans], blocks)

    def __len__(self) -> int:
        return len(self.tx)

    def __getitem__(self, which):
        if not isinstance(which, (int, np.integer)):
            return self.select(which)
        block, row = self.blocks[self._block[which]], self._row[which]
        return AngularScan(self.tx[which], float(self.x[which]), float(self.y[which]),
                           block.angles[row], block.gains[row],
                           self.vehicle_state[which], self.stacking[which])

    def select(self, which) -> "ScanSet":
        """The scans a slice, boolean mask or index array picks, in its order."""
        index = np.arange(len(self))[which]
        blocks = []
        for b, block in enumerate(self.blocks):
            picked = np.flatnonzero(self._block[index] == b)
            if picked.size:
                rows = self._row[index[picked]]
                blocks.append(ScanBlock(picked, block.angles[rows], block.gains[rows]))
        return ScanSet([getattr(self, key)[index] for key in self.KEYS], blocks, self.sha256)

    def differs(self, other, keys) -> np.ndarray:
        """Per scan: does a named key column differ from other's row (or one scan)?"""
        return np.logical_or.reduce([getattr(self, key) != getattr(other, key) for key in keys])

    def grid_differs(self, reference) -> np.ndarray:
        """Per scan: does its grid differ, in size or by more than GRID_MATCH_TOL
        at any angle, from reference (one grid, or one grid per scan)?"""
        out = np.ones(len(self), dtype=bool)
        for block in self.blocks:
            if block.angles.shape[1] == reference.shape[-1]:
                ref = reference if reference.ndim == 1 else reference[block.index]
                out[block.index] = np.max(np.abs(block.angles - ref), axis=1) > GRID_MATCH_TOL
        return out

    def per_scan(self, statistic) -> np.ndarray:
        """statistic(gains matrix), one value per row, for every scan in order."""
        out = np.empty(len(self))
        for block in self.blocks:
            out[block.index] = statistic(block.gains)
        return out


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


def _mean_db(gains):
    """Linear mean over the last (angle) axis, in dB."""
    return 10.0 * np.log10(np.mean(gains, axis=-1))


def _normalized(gains):
    return to_db(gains) - _mean_db(gains)[..., None]


def circular_mean_gain(scan):
    """Channel gain averaged over angle, in dB; a ScanSet gives one per scan.

    Arithmetic mean of the linear gains on the uniform grid (rectangle rule
    on the periodic domain), then converted to dB.
    """
    if isinstance(scan, ScanSet):
        return scan.per_scan(_mean_db)
    return float(_mean_db(scan.gains))


def normalized_spectrum(scan: AngularScan) -> np.ndarray:
    """Per-angle dB gain relative to the scan's circular mean.

    The output's linear-domain circular mean is 1 (0 dB), so spectra from
    links with different absolute gains become comparable.
    """
    return _normalized(scan.gains)


def require_common_grid(scans) -> np.ndarray:
    """The angle grid every scan shares (so a ScanSet of one block); a
    GridError names the first scan that differs in size or by more than
    GRID_MATCH_TOL at any angle."""
    scans = ScanSet.of(scans)
    grid = scans.blocks[scans._block[0]].angles[scans._row[0]]
    differs = scans.grid_differs(grid)
    if differs.any():
        raise GridError(f"scans must share one angle grid; scan {scans[int(differs.argmax())].key}"
                        " differs")
    return grid


def ensemble_stats(scans, db_bin_width: float = 1.0) -> AngularSpectrumStats:
    """Per-angle ensemble mean and dB-gain histogram over a set of scans.

    The mean is taken in the linear domain and reported in dB.  The
    histogram bins the raw per-scan dB gains at each angle with the given
    bin width; edges are aligned to multiples of the width
    (`stats.aligned_histograms`, which bounds the bin count).
    """
    scans = ScanSet.of(scans)
    if not len(scans):
        raise DomainError("ensemble_stats needs at least one scan")
    grid = require_common_grid(scans)
    gains = scans.blocks[0].gains                        # (n_scans, n_angles), one grid
    mean_db = 10.0 * np.log10(np.mean(gains, axis=0))
    edges, counts = aligned_histograms(10.0 * np.log10(gains), db_bin_width)
    return AngularSpectrumStats(angles=grid, mean_db=mean_db, bin_edges_db=edges,
                                counts=counts, n_scans=len(scans))


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


def azimuth_gain(scan):
    """Best-direction gain over the mean (dB): max of the normalized spectrum;
    a ScanSet gives one per scan.

    Always >= 0 dB, with equality only for a perfectly flat spectrum; this is
    the benefit an ideal azimuth-pointed beam would get over an average one.
    """
    if isinstance(scan, ScanSet):
        return scan.per_scan(lambda gains: _normalized(gains).max(axis=1))
    return float(np.max(normalized_spectrum(scan)))


def gain_cdfs(scans, tx_positions) -> tuple[EmpiricalCdf, EmpiricalCdf]:
    """Normalized-gain CDFs over all directions vs the TX direction.

    The first CDF pools the normalized spectrum over every angle of every
    scan; the second takes, per scan, the normalized gain at the grid angle
    nearest the transmitter bearing.  If the two are close, pointing a beam
    at the TX buys nothing over pointing it anywhere.  scans is a ScanSet or
    AngularScans, tx_positions maps tx id -> (x, y); returns (cdf_all_directions,
    cdf_tx_direction).
    """
    scans = ScanSet.of(scans)
    if not len(scans):
        raise DomainError("gain_cdfs needs at least one scan")
    bearings = []
    for tx, x, y in zip(scans.tx.tolist(), scans.x.tolist(), scans.y.tolist()):
        if tx not in tx_positions:
            raise DomainError(f"no position known for transmitter {tx!r}")
        bearings.append(tx_bearing(tx_positions[tx], (x, y)))
    bearings = np.array(bearings)
    pooled = []
    at_tx = np.empty(len(scans))
    for block in scans.blocks:
        spectra = _normalized(block.gains)
        n = spectra.shape[1]
        # The grid angle nearest each bearing; np.rint rounds half to even, as round does.
        nearest = np.rint((bearings[block.index] - block.angles[:, 0]) / (TWO_PI / n))
        at_tx[block.index] = spectra[np.arange(len(spectra)), nearest.astype(int) % n]
        pooled.append(spectra.ravel())
    return empirical_cdf(np.concatenate(pooled)), empirical_cdf(at_tx)
