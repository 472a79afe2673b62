"""Azimuthal spectrum statistics of rotating-horn channel-gain scans.

A scan is one full antenna rotation at a fixed RX point: a uniform azimuth
grid and one gain in dB per grid angle, as the sounder records it (antenna
gains included, i.e. coupling gain).  Averages over angle are taken in the
linear domain (`_mean_db`) on the uniform grid, which is the spectrally exact
quadrature for a periodic integrand; results are reported in dB.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DomainError, GridError
from .stats import CHUNK_ROWS, EmpiricalCdf, aligned_histograms, empirical_cdf

__all__ = [
    "VehicleState", "Stacking", "ScanSet", "first_invalid",
    "to_db", "from_db", "circular_mean_gain", "normalized_spectrum",
    "ensemble_stats", "tx_bearing", "gain_cdfs",
]

TWO_PI = 2.0 * math.pi

# Tolerances for grid validation / comparison (rad).
GRID_SPACING_TOL = 1e-9
GRID_MATCH_TOL = 1e-12


class _Label(str, enum.Enum):
    @property
    def code(self) -> int:  # the member's place in declaration order: its ScanSet code
        return tuple(type(self)).index(self)


class VehicleState(_Label):
    ABSENT = "absent"
    POSITION1 = "position1"
    POSITION2 = "position2"


class Stacking(_Label):
    UNIFORM = "uniform"
    NONUNIFORM = "nonuniform"


def _bad_gains(gains_db):
    """Per row of a dB gains matrix: is any gain's linear value not finite and
    > 0 (NaN, beyond about -3236 or 3082 dB)?  The values are tested, not dB
    bounds, whose exact place would depend on the host's `np.power`."""
    gains = from_db(gains_db)
    return ~((gains > 0.0) & (gains < np.inf)).all(axis=1)


def first_invalid(grid, gains, angles=None, first=0):
    """(row, error) for the first row of a (scans x n) gains matrix that is
    not a valid scan and the error saying why; None if all are.  A valid
    scan has no `_bad_gains` and its angles on grid, the set's one grid in
    degrees: 8 or more angles, uniform over one rotation from [0, spacing).
    angles, if given, holds each scan's angles in degrees, one row per scan,
    each within GRID_MATCH_TOL of grid at every angle, or the error names
    first as the scan grid came from.

    The tolerances are in rad, so the grid and each chunk of angles are
    converted to radians here, and only here.  grid is checked once, as row
    0's; the rows are checked `CHUNK_ROWS` at a time, so the check's
    temporaries are a few chunks of rows, not copies of the matrices: a cold
    ingest checks the scans while it holds the parse's columns, at its peak.
    A row's gains are named before its angles."""
    grid = np.radians(grid)
    n = grid.size
    if n < 8:
        return 0, GridError(f"need at least 8 azimuth samples, got {n}")
    spacing = TWO_PI / n
    steps = grid[1:] - grid[:-1]
    deviation = np.abs(steps - spacing).max()
    bad_gains = DomainError("all linear gains must be finite and > 0")
    for bad, why in (
            (not (steps > 0.0).all(), "angles must be strictly increasing"),
            (deviation > GRID_SPACING_TOL, "angle grid must be uniform with spacing 2*pi/N "
                                           f"(max deviation {deviation:.3e} rad)"),
            (not 0.0 <= grid[0] < spacing + GRID_SPACING_TOL,
             f"grid must start within the first spacing interval, got {grid[0]}")):
        if bad:
            return 0, bad_gains if _bad_gains(gains[:1]).any() else GridError(why)
    for top in range(0, len(gains), CHUNK_ROWS):
        bad = _bad_gains(gains[top:top + CHUNK_ROWS])
        gap = np.zeros(bad.size)
        if angles is not None:  # one scratch chunk: the rows' angles in rad, less the grid
            gap = np.radians(angles[top:top + CHUNK_ROWS])
            gap -= grid
            gap = np.abs(gap, out=gap).max(axis=1)
        rows = np.flatnonzero(bad | ~(gap <= GRID_MATCH_TOL))
        if rows.size:
            row = int(rows[0])
            return top + row, bad_gains if bad[row] else GridError(
                f"angles differ by up to {gap[row]:.3e} rad from those of scan {first}; "
                "the scans of a set share one angle grid")
    return None


class ScanSet:
    """Scans as columns, in order: what `dataio.ingest` returns.

    Scan i's key is entry i of each column of `KEYS`: `tx_code` indexes
    `tx_ids`, the ids in first-seen order, `state_code` and `stacking_code`
    are `VehicleState` and `Stacking` codes, and `x` and `y` floats;
    `key(i)` gives it as errors name it, and `key_columns` makes the columns
    of such keys.  `grid` is the set's one azimuth grid, the file's own n
    angles in degrees (read-only), as the sounder's fixed azimuth steps give
    it, and `gains` the (scans x n) matrix of the file's dB gains; `sha256`
    is the hash of the file read, if any.  `from_rows` builds and checks
    every set; a statistic picks scans by an index array into it, not by a
    copy.
    """

    KEYS = ("tx_code", "x", "y", "state_code", "stacking_code")

    def __init__(self, tx_ids, columns, grid, gains, sha256=None):
        self.tx_ids, self.grid, self.gains, self.sha256 = tx_ids, grid, gains, sha256
        self.tx_code, self.x, self.y, self.state_code, self.stacking_code = columns

    @classmethod
    def from_rows(cls, keys, sizes, angles_deg, gains, sha256=None) -> "ScanSet":
        """A checked ScanSet from scans stored back to back: scan i has the
        next sizes[i] gains in dB, and keys holds the tx ids and then the
        `KEYS` columns.  angles_deg holds the grid's sizes[0] values or each
        scan's angles, in degrees, stored alike.  The set keeps a copy of
        scan 0's angles as its grid; the gains, or a (scans x n) matrix of
        them, become its matrix as a view; no input is modified.  The
        earliest scan that `first_invalid` rejects (off scan 0's grid by
        more than GRID_MATCH_TOL too), or whose angle count differs from
        scan 0's, raises a GridError (a DomainError for its gains) prefixed
        with its `key`."""
        sizes = np.asarray(sizes, dtype=int)
        n = int(sizes[0]) if sizes.size else 0
        differ = np.flatnonzero(sizes != n)
        same = int(differ[0]) if differ.size else sizes.size  # scans 0..same-1 have n angles
        # Mixed counts come flat: the scans before the first that differs are formed.
        gains = np.reshape(gains[:same * n], (same, n))
        angles = np.reshape(angles_deg[:same * n], (same, n)) if np.size(angles_deg) != n else None
        grid = np.array(np.ravel(angles_deg)[:n], dtype=float)
        grid.flags.writeable = False
        tx_ids, *columns = keys
        scans = cls(tuple(tx_ids), [np.asarray(column, kind) for column, kind in zip(
            columns, (np.intp, float, float, np.intp, np.intp))], grid, gains, sha256)
        found = first_invalid(grid, gains, angles, scans.key(0)) if same else None
        if found is None and differ.size:
            found = same, GridError(f"{sizes[same]} angles where scan {scans.key(0)} has {n}; "
                                    "the scans of a set share one angle count")
        if found:
            scan, exc = found
            raise type(exc)(f"scan {scans.key(scan)}: {exc}") from exc
        return scans

    @staticmethod
    def key_columns(keys) -> tuple:
        """The keys `from_rows` takes, of (tx id, x, y, vehicle state token,
        stacking token) tuples: the ids in first-seen order, then the `KEYS`
        columns, as `key` reads them back."""
        tx, x, y, state, stacking = zip(*keys) if keys else ((),) * 5
        tx_ids = {tx_id: code for code, tx_id in enumerate(dict.fromkeys(tx))}
        states, stackings = ({m.value: m.code for m in kind} for kind in (VehicleState, Stacking))
        return (tuple(tx_ids), [tx_ids[t] for t in tx], x, y, [states[v] for v in state],
                [stackings[s] for s in stacking])

    def __len__(self) -> int:
        return len(self.tx_code)

    def key(self, i) -> tuple:
        """Scan i's (tx id, x, y, vehicle state, stacking), in str and float."""
        return (self.tx_ids[self.tx_code[i]], float(self.x[i]), float(self.y[i]),
                tuple(VehicleState)[self.state_code[i]].value,
                tuple(Stacking)[self.stacking_code[i]].value)

    @staticmethod
    def groups(*columns):
        """(codes, firsts) of key columns, by one `np.unique`: a code per
        entry, equal where every column is (-0.0 joining 0.0, as the readers
        group keys), and each code's first entry."""
        rows = np.column_stack([np.asarray(column) + 0.0 for column in columns])
        _, firsts, codes = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        return codes.reshape(-1), firsts


def to_db(gain, out=None):
    """Linear power ratio -> dB, into out if given; a gain <= 0 is a DomainError."""
    arr = np.asarray(gain, dtype=float)
    if not np.all(arr > 0.0):
        raise DomainError("gain must be > 0 to convert to dB")
    out = np.log10(arr, out=out)
    out *= 10.0
    return float(out) if np.isscalar(gain) or arr.ndim == 0 else out


def from_db(db, out=None):
    """dB -> linear power ratio, into out if given; beyond the float range, inf."""
    arr = np.asarray(db, dtype=float)
    with np.errstate(over="ignore"):
        out = np.divide(arr, 10.0, out=out)
        out = np.power(10.0, out, out=out) if out.ndim else 10.0 ** out  # a scalar: C pow()
    return float(out) if np.isscalar(db) or arr.ndim == 0 else out


def _mean_db(gains_db, axis=-1):
    """Linear mean of dB gains over an axis (default: the angle axis), in dB,
    converting the gains in place: they must be the caller's to give up.
    Gains whose sum overflows, each one finite, are a DomainError."""
    with np.errstate(over="ignore"):
        mean = np.mean(from_db(gains_db, out=gains_db), axis=axis)
    if not np.all(mean < np.inf):
        raise DomainError("the linear mean of the gains overflows")
    return to_db(mean)


def _index(index, statistic=None):
    """index as a 1-D integer array, else a TypeError (a slice picks a view that
    an in-place mean would overwrite); empty, a DomainError naming statistic, if given."""
    index = np.asarray(index)
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise TypeError(f"index must be a 1-D integer array, not {index.dtype} of {index.ndim}-D")
    if statistic and not index.size:
        raise DomainError(f"{statistic} needs at least one scan")
    return index


def circular_mean_gain(scans: ScanSet, index) -> np.ndarray:
    """Channel gain averaged over angle, in dB, for each scan index picks: the
    arithmetic mean of its gains in linear power on the uniform grid
    (rectangle rule on the periodic domain), converted to dB."""
    index = _index(index)
    mean_db = np.empty(index.size)
    for top in range(0, index.size, CHUNK_ROWS):
        mean_db[top:top + CHUNK_ROWS] = _mean_db(scans.gains[index[top:top + CHUNK_ROWS]])
    return mean_db


def normalized_spectrum(scans: ScanSet, index) -> np.ndarray:
    """Per-angle dB gain relative to its circular mean for each scan index
    picks, as a (scans x angles) matrix.  Each row's linear-domain circular
    mean is 1 (0 dB), so spectra of links of any gain are comparable."""
    index = _index(index, "normalized_spectrum")
    out = np.empty((index.size, scans.grid.size))
    for top in range(0, index.size, CHUNK_ROWS):
        rows = index[top:top + CHUNK_ROWS]
        out[top:top + CHUNK_ROWS] = scans.gains[rows] - _mean_db(scans.gains[rows])[:, None]
    return out


def ensemble_stats(scans: ScanSet, index, db_bin_width: float):
    """Per-angle ensemble mean and dB-gain histogram over the scans index
    picks, at the angles of the set's grid: the mean is taken in the linear
    domain and reported in dB; the histogram bins the raw per-scan dB gains
    at each angle on edges aligned to multiples of db_bin_width
    (`stats.aligned_histograms`, which bounds the bin count).  Returns
    (mean_db, bin_edges_db, counts), counts shaped (n_angles, n_bins), as
    `vehicle.delta_angle_stats` does."""
    gains = scans.gains[_index(index, "ensemble_stats")]  # a copy: binned, then made linear
    edges, counts = aligned_histograms(gains, db_bin_width)
    return _mean_db(gains, axis=0), edges, counts


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


def gain_cdfs(scans: ScanSet, index, tx_positions) -> tuple[EmpiricalCdf, ...]:
    """Normalized-gain CDFs over all directions and in the TX direction, and
    the azimuth-gain CDF, of the scans index picks.

    The first CDF pools the normalized spectrum over every angle of every
    scan; the second takes, per scan, the normalized gain at the grid angle
    nearest the transmitter bearing.  If the two are close, pointing a beam
    at the TX buys nothing over pointing it anywhere.  The third takes each
    scan's azimuth gain, the max of its normalized spectrum: always >= 0 dB,
    0 only for a flat spectrum, it is what an ideal azimuth-pointed beam
    gains over an average one.  tx_positions maps tx id -> (x, y); returns
    (cdf_all_directions, cdf_tx_direction, cdf_azimuth_gain).

    The scans are normalized once; the TX-direction gains and each scan's
    max are taken first, and then the normalized matrix is sorted in place
    to become the first CDF's values.
    """
    index = _index(index, "gain_cdfs")
    bearings = []
    for code, x, y in zip(*(getattr(scans, key)[index].tolist() for key in ("tx_code", "x", "y"))):
        tx = scans.tx_ids[code]
        if tx not in tx_positions:
            raise DomainError(f"no position known for transmitter {tx!r}")
        bearings.append(tx_bearing(tx_positions[tx], (x, y)))
    bearings = np.array(bearings)
    spectra = normalized_spectrum(scans, index)
    n = spectra.shape[1]
    # The grid angle nearest each bearing; np.rint rounds half to even, as round does.
    nearest = np.rint((bearings - np.radians(scans.grid[0])) / (TWO_PI / n))
    at_tx = spectra[np.arange(len(spectra)), nearest.astype(int) % n]
    peaks = spectra.max(axis=1)
    pooled = spectra.ravel()  # spectra is new and C-ordered: a view
    pooled.sort()
    return EmpiricalCdf.of_sorted(pooled), empirical_cdf(at_tx), empirical_cdf(peaks)
