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
    "VehicleState", "Stacking", "ScanSet", "first_invalid",
    "AngularSpectrumStats", "to_db", "from_db", "circular_mean_gain", "normalized_spectrum",
    "require_common_grid", "ensemble_stats", "tx_bearing", "azimuth_gain", "gain_cdfs",
]

TWO_PI = 2.0 * math.pi

# Tolerances for grid validation / comparison (rad).
GRID_SPACING_TOL = 1e-9
GRID_MATCH_TOL = 1e-12
# Rows `first_invalid` checks at a time: 256 rows of 360 angles make
# temporaries of 0.7 MB each, where the whole paper-scale campaign's are 6 MB.
_CHECK_ROWS = 256


class VehicleState(str, enum.Enum):
    ABSENT = "absent"
    POSITION1 = "position1"
    POSITION2 = "position2"


class Stacking(str, enum.Enum):
    UNIFORM = "uniform"
    NONUNIFORM = "nonuniform"


def _held_grid(angles):
    """The one row a (scans x n) matrix holds if it is a broadcast view of
    that row (`ScanSet.one_grid`); else None."""
    return angles[0] if angles.ndim == 2 and len(angles) and angles.strides[0] == 0 else None


def _picked(n, which):
    """The indices which (a slice, boolean mask or index array) picks of n
    scans.  An integer array is returned as given: no arange of all n."""
    if isinstance(which, np.ndarray) and which.dtype.kind in "iu":
        return which
    return np.arange(n)[which]


def _grid_checks(angles, spacing):
    """Per row of an angle matrix: (not increasing, not uniform, bad start),
    the max spacing deviation and the start, as `first_invalid` reports them."""
    steps = angles[:, 1:] - angles[:, :-1]
    deviation = np.abs(steps - spacing).max(axis=1)
    start = angles[:, 0]
    return (~(steps > 0.0).all(axis=1), deviation > GRID_SPACING_TOL,
            ~((0.0 <= start) & (start < spacing + GRID_SPACING_TOL))), deviation, start


def first_invalid(angles, gains):
    """(row, error) for the first row of (scans x angles) matrices that is not
    a valid scan (8 or more angles, uniform over one rotation from [0, spacing),
    every gain finite and > 0) and the error saying why; None if all are.

    The rows are checked `_CHECK_ROWS` at a time, so the check's temporaries
    are a few chunks of rows, not copies of the matrices; each row's verdict
    is its own, so the earliest invalid row and its error are those of one
    check over the whole matrices.  Angles held as one broadcast row have
    that row's grid checked once."""
    n = angles.shape[1]
    if n < 8:
        return 0, GridError(f"need at least 8 azimuth samples, got {n}")
    spacing = TWO_PI / n
    grid = _held_grid(angles)
    held = None if grid is None else _grid_checks(grid[None], spacing)
    for top in range(0, len(gains), _CHECK_ROWS):
        chunk_gains = gains[top:top + _CHECK_ROWS]
        bad, deviation, start = held or _grid_checks(angles[top:top + _CHECK_ROWS], spacing)
        bad = (~((chunk_gains > 0.0) & (chunk_gains < np.inf)).all(axis=1), *bad)
        rows = np.flatnonzero(bad[0] | bad[1] | bad[2] | bad[3])
        if rows.size:
            row = int(rows[0])
            at = 0 if held else row  # a held grid's checks have one row
            return top + row, (
                DomainError("all linear gains must be finite and > 0"),
                GridError("angles must be strictly increasing"),
                GridError("angle grid must be uniform with spacing 2*pi/N "
                          f"(max deviation {deviation[at]:.3e} rad)"),
                GridError(f"grid must start within the first spacing interval, got {start[at]}"),
            )[[bad[0][row], *(check[at] for check in bad[1:])].index(True)]
    return None


class ScanSet:
    """Scans as columns, in order: what `dataio.ingest` returns.

    The key columns `tx`, `x`, `y`, `vehicle_state` and `stacking` (enum
    values) hold one entry per scan; `angles` (rad) and `gains` (linear) are
    (scans x angles) matrices, one angle count per set, as the sounder's
    fixed azimuth steps give it; `sha256` is the hash of the file read, if
    any.  When every scan's angles repeat scan 0's bit for bit, as a
    fixed-step rotator measures them and `synth` writes them, `angles` is a
    read-only `np.broadcast_to` view of that one row, and selections keep
    the view; otherwise it holds one row per scan.  A slice, mask or index
    array selects a ScanSet; `key(i)` names scan i.  `from_rows` builds and
    checks every set; selection alone calls the constructor, which checks
    nothing.
    """

    KEYS = ("tx", "x", "y", "vehicle_state", "stacking")

    def __init__(self, columns, angles, gains, sha256=None):
        self.tx, self.x, self.y, self.vehicle_state, self.stacking = columns
        self.angles, self.gains, self.sha256 = angles, gains, sha256

    @staticmethod
    def one_grid(angles):
        """The row that every row of a (scans x n) float matrix repeats bit for
        bit, or None if any row differs or there are none.  Bytes compare, not
        values: -0.0 and 0.0 differ, as their CSV texts do."""
        grid = _held_grid(angles)
        if grid is None and len(angles):
            bits = np.ascontiguousarray(angles).view(np.uint64)
            grid = angles[0] if (bits == bits[0]).all() else None
        return grid

    @classmethod
    def from_rows(cls, keys, sizes, angles_rad, gains, sha256=None) -> "ScanSet":
        """A checked ScanSet from scans stored back to back: scan i is keys[i]
        with the next sizes[i] angles (rad) and linear gains.  The arrays, or
        (scans x n) matrices of them, broadcast or not, become the set's
        matrices as views, without a copy, but for angles that repeat one
        row (`one_grid`): the set holds a copy of that row, broadcast.  The
        earliest scan that `first_invalid` rejects, or whose angle count
        differs from scan 0's, raises a GridError (a DomainError for its
        gains) prefixed with its key as given."""
        sizes = np.asarray(sizes, dtype=int)
        n = int(sizes[0]) if sizes.size else 0
        differ = np.flatnonzero(sizes != n)
        same = int(differ[0]) if differ.size else sizes.size  # scans 0..same-1 have n angles
        if differ.size:  # mixed counts come flat: the scans before the first that differs
            angles_rad, gains = angles_rad[:same * n], gains[:same * n]
        angles_rad, gains = np.reshape(angles_rad, (same, n)), np.reshape(gains, (same, n))
        grid = cls.one_grid(angles_rad)
        if grid is not None:  # a copy, so the caller's matrix can go
            angles_rad = np.broadcast_to(grid.copy(), angles_rad.shape)
        found = first_invalid(angles_rad, gains) if same else None
        if found is None and differ.size:
            found = same, GridError(f"{sizes[same]} angles where scan {keys[0]} has {n}; "
                                    "the scans of a set share one angle count")
        if found:
            scan, exc = found
            raise type(exc)(f"scan {keys[scan]}: {exc}") from exc
        tx, x, y, vehicle_state, stacking = zip(*keys) if keys else ((),) * 5
        return cls((np.array(tx, dtype=object), np.array(x, dtype=float),
                    np.array(y, dtype=float), np.array(vehicle_state, dtype=object),
                    np.array(stacking, dtype=object)), angles_rad, gains, sha256)

    def __len__(self) -> int:
        return len(self.tx)

    def __getitem__(self, which) -> "ScanSet":
        """The scans a slice, boolean mask or index array picks, in its order;
        a held grid stays one broadcast row.  One int is a TypeError, so
        iterating a ScanSet fails too."""
        if isinstance(which, (int, np.integer)):
            raise TypeError("a ScanSet takes a slice, mask or index array; key(i) names scan i")
        index = _picked(len(self), which)
        grid = _held_grid(self.angles)
        angles = self.angles[index] if grid is None else np.broadcast_to(
            grid, (index.size, grid.size))
        return ScanSet([getattr(self, key)[index] for key in self.KEYS],
                       angles, self.gains[index], self.sha256)

    def key(self, i) -> tuple:
        """Scan i's (tx, x, y, VehicleState, Stacking) key, as errors name it."""
        return (self.tx[i], float(self.x[i]), float(self.y[i]),
                VehicleState(self.vehicle_state[i]), Stacking(self.stacking[i]))

    def grid_differs(self, reference, which=slice(None)) -> np.ndarray:
        """Per scan which picks (a slice, mask or index array; default: all):
        does its grid differ by more than GRID_MATCH_TOL at any angle from
        reference (one grid of the set's angle count, or one per scan picked)?"""
        index = _picked(len(self), which)
        grid, reference = _held_grid(self.angles), np.asarray(reference)
        if grid is None:  # one scratch array: the picked rows' angles, less the reference
            gap = self.angles[index]
            gap -= reference
        else:  # the one row stands for every scan picked, and a held reference's for its own
            held = _held_grid(reference)
            gap = grid[None] - (reference if held is None else held)
        differs = np.abs(gap, out=gap).max(axis=1) > GRID_MATCH_TOL
        return np.broadcast_to(differs, index.shape).copy()


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
    out = np.log10(arr)
    out *= 10.0  # in out's array: the bits of 10.0 * np.log10(arr)
    return float(out) if np.isscalar(gain) or arr.ndim == 0 else out


def from_db(db):
    """dB -> linear power ratio."""
    arr = np.asarray(db, dtype=float)
    out = 10.0 ** (arr / 10.0)
    return float(out) if np.isscalar(db) or arr.ndim == 0 else out


def _mean_db(gains, axis=-1):
    """Linear mean over an axis (default: the angle axis), in dB.  Gains whose
    sum overflows, each one finite, are a DomainError."""
    with np.errstate(over="ignore"):
        mean = np.mean(gains, axis=axis)
    if not np.all(mean < np.inf):
        raise DomainError("the linear mean of the gains overflows")
    return 10.0 * np.log10(mean)


def _normalized(gains):
    out = to_db(gains)
    out -= _mean_db(gains)[..., None]
    return out


def circular_mean_gain(scans: ScanSet) -> np.ndarray:
    """Channel gain averaged over angle, in dB, one per scan.

    Arithmetic mean of the linear gains on the uniform grid (rectangle rule
    on the periodic domain), then converted to dB.
    """
    return _mean_db(scans.gains) if len(scans) else np.empty(0)


def normalized_spectrum(scans: ScanSet) -> np.ndarray:
    """Per-angle dB gain relative to each scan's circular mean, as a (scans x
    angles) matrix; the scans must share one grid (`require_common_grid`).

    Each row's linear-domain circular mean is 1 (0 dB), so spectra from links
    with different absolute gains become comparable.
    """
    require_common_grid(scans)
    return _normalized(scans.gains)


def require_common_grid(scans: ScanSet, which=slice(None)) -> np.ndarray:
    """The angle grid the scans which picks (default: all) share; a GridError
    names the first that differs by more than GRID_MATCH_TOL at any angle.
    No scans: a DomainError."""
    index = _picked(len(scans), which)
    if not index.size:
        raise DomainError("an empty scan set has no angle grid")
    grid = scans.angles[index[0]]
    differs = scans.grid_differs(grid, index)
    if differs.any():
        raise GridError(f"scans must share one angle grid; scan "
                        f"{scans.key(int(index[differs.argmax()]))} differs")
    return grid


def ensemble_stats(scans: ScanSet, db_bin_width: float) -> AngularSpectrumStats:
    """Per-angle ensemble mean and dB-gain histogram over a set of scans.

    The mean is taken in the linear domain and reported in dB.  The
    histogram bins the raw per-scan dB gains at each angle with the given
    bin width; edges are aligned to multiples of the width
    (`stats.aligned_histograms`, which bounds the bin count).
    """
    grid = require_common_grid(scans)
    gains = scans.gains                                  # (n_scans, n_angles), one grid
    mean_db = _mean_db(gains, axis=0)
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


def azimuth_gain(scans: ScanSet) -> np.ndarray:
    """Best-direction gain over the mean (dB), one per scan: the max of its
    normalized spectrum.

    Always >= 0 dB, with equality only for a perfectly flat spectrum; this is
    the benefit an ideal azimuth-pointed beam would get over an average one.
    """
    return _normalized(scans.gains).max(axis=1) if len(scans) else np.empty(0)


def gain_cdfs(scans: ScanSet, tx_positions) -> tuple[EmpiricalCdf, EmpiricalCdf]:
    """Normalized-gain CDFs over all directions vs the TX direction.

    The first CDF pools the normalized spectrum over every angle of every
    scan; the second takes, per scan, the normalized gain at the grid angle
    nearest the transmitter bearing.  If the two are close, pointing a beam
    at the TX buys nothing over pointing it anywhere.  tx_positions maps tx
    id -> (x, y); returns (cdf_all_directions, cdf_tx_direction).
    """
    if not len(scans):
        raise DomainError("gain_cdfs needs at least one scan")
    bearings = []
    for tx, x, y in zip(scans.tx.tolist(), scans.x.tolist(), scans.y.tolist()):
        if tx not in tx_positions:
            raise DomainError(f"no position known for transmitter {tx!r}")
        bearings.append(tx_bearing(tx_positions[tx], (x, y)))
    bearings = np.array(bearings)
    spectra = _normalized(scans.gains)
    n = spectra.shape[1]
    # The grid angle nearest each bearing; np.rint rounds half to even, as round does.
    nearest = np.rint((bearings - scans.angles[:, 0]) / (TWO_PI / n))
    at_tx = spectra[np.arange(len(spectra)), nearest.astype(int) % n]
    return empirical_cdf(spectra.ravel()), empirical_cdf(at_tx)
