"""Spatial autocorrelation of fixed-beam channel gain along a dense RX line.

Gains are correlated in the dB domain, since that is the scale link
adaptation and beam refinement react to.  Each line is a set of scans at
uniformly spaced positions along the canyon (nominally 15 points, 0.1 m
apart); the per-line, per-angle autocorrelation is the lagged autocovariance
of the zero-mean dB gain sequence, normalized by its lag-0 value so it
starts at 1 and stays within [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import GRID_MATCH_TOL, ScanSet, require_common_grid, to_db
from .errors import DomainError, GridError, PairingError

__all__ = [
    "DenseLine", "AutocorrResult", "line_mean", "zero_mean", "autocorrelation",
    "averaged_correlation",
]

POSITION_SPACING_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DenseLine:
    """Uniformly spaced X positions with one scan per position.

    All scans must share tx, y, vehicle state, stacking and angle grid;
    positions must be strictly increasing with uniform spacing.  `scans`
    may be any sequence of AngularScan; it is kept as a ScanSet.
    """

    positions: np.ndarray
    scans: ScanSet

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=float)
        scans = ScanSet.of(self.scans)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "scans", scans)
        if positions.ndim != 1 or positions.size < 2:
            raise DomainError("a dense line needs at least 2 positions")
        if len(scans) != positions.size:
            raise DomainError(f"{positions.size} positions but {len(scans)} scans")
        steps = np.diff(positions)
        if not np.all(steps > 0.0):
            raise DomainError("positions must be strictly increasing")
        if np.max(np.abs(steps - steps[0])) > POSITION_SPACING_TOL:
            raise DomainError("positions must be uniformly spaced")
        misplaced = np.abs(scans.x - positions) > POSITION_SPACING_TOL
        if misplaced.any():
            i = int(misplaced.argmax())
            raise DomainError(f"scan at x={float(scans.x[i])} assigned to line position "
                              f"{positions[i]}")
        apart = scans.differs(scans[:1], ("tx", "y", "vehicle_state", "stacking"))
        if apart.any():
            raise PairingError(f"scan {scans[int(apart.argmax())].key} does not belong to the "
                               f"line of {scans[0].key}")
        require_common_grid(scans)

    @property
    def spacing_m(self) -> float:
        return float(self.positions[1] - self.positions[0])

    @property
    def angles(self) -> np.ndarray:
        return self.scans.blocks[0].angles[0]

    def gains_db(self, phi: float) -> np.ndarray:
        """Per-position dB gain at grid angle phi (off-grid -> GridError)."""
        idx = _grid_index(self.angles, phi)
        return to_db(self.scans.blocks[0].gains[:, idx])


def _grid_index(angles: np.ndarray, phi: float) -> int:
    hits = np.nonzero(np.abs(angles - phi) <= GRID_MATCH_TOL)[0]
    if hits.size != 1:
        raise GridError(f"angle {phi} rad is not on the scan grid")
    return int(hits[0])


@dataclass(frozen=True, eq=False)
class AutocorrResult:
    """Normalized per-lag autocorrelation; degenerate marks a zero-variance line."""

    values: np.ndarray
    degenerate: bool = False


def line_mean(line: DenseLine, phi: float) -> float:
    """Mean dB gain over the line's positions at one grid angle."""
    return float(np.mean(line.gains_db(phi)))


def zero_mean(line: DenseLine, phi: float) -> np.ndarray:
    """Per-position dB gain minus the line mean; sums to 0."""
    db = line.gains_db(phi)
    return db - np.mean(db)


def autocorrelation(line: DenseLine, phi: float) -> AutocorrResult:
    """Normalized lagged autocovariance of the zero-mean dB gains.

    r[k] = sum_j z[j] * z[j+k] normalized by r[0], for lags k = 0..N-1, so
    r[0] = 1 and |r[k]| <= 1.  A constant line has zero variance; it is
    returned as r = [1, 0, ..., 0] with the degenerate flag set.
    """
    z = zero_mean(line, phi)
    raw = np.correlate(z, z, mode="full")[z.size - 1:]
    if raw[0] == 0.0:
        values = np.zeros(z.size)
        values[0] = 1.0
        return AutocorrResult(values=values, degenerate=True)
    return AutocorrResult(values=raw / raw[0], degenerate=False)


def averaged_correlation(lines) -> tuple[np.ndarray, np.ndarray]:
    """Autocorrelation averaged over all grid angles and all lines.

    Every line contributes the mean of its per-angle normalized curves
    (rectangle rule over the uniform angle grid); lines are then averaged
    with equal weight.  Both reductions are plain means, so the order does
    not matter.  On lines of 12 or more positions the result equals that mean
    of `autocorrelation` curves bit for bit; on shorter lines it agrees to
    within an ulp or so.

    Returns:
        (lag_m, correlation): lag axis in metres and the averaged curve.
    """
    lines = list(lines)
    if not lines:
        raise DomainError("averaged_correlation needs at least one line")
    n_pos = lines[0].positions.size
    spacing = lines[0].spacing_m
    for line in lines[1:]:
        if line.positions.size != n_pos or abs(line.spacing_m - spacing) > POSITION_SPACING_TOL:
            raise DomainError("all lines must share position count and spacing")

    # Each angle count is one (lines, angles, positions) array.  A 1xm @ mx1
    # matmul sums like np.correlate in `autocorrelation` once the line has 12
    # or more positions (the CLI's lines have 15), so there the curves match
    # it bit for bit; on shorter lines np.correlate sums in another order and
    # the curves differ by about an ulp.  einsum and sum(axis) differ in the
    # last bits.
    per_line = np.empty((len(lines), n_pos))
    for size in {line.angles.size for line in lines}:
        group = [i for i, line in enumerate(lines) if line.angles.size == size]
        # np.array lays this out in C order, so each mean runs along memory.
        db = 10.0 * np.log10(np.array([lines[i].scans.blocks[0].gains.T for i in group]))
        z = db - db.mean(axis=2, keepdims=True)
        raw = np.empty_like(z)
        for k in range(n_pos):
            raw[..., k] = np.matmul(z[..., None, :n_pos - k], z[..., k:, None])[..., 0, 0]
        lag0 = raw[..., :1]
        curves = np.where(lag0 == 0.0, np.eye(1, n_pos), raw / np.where(lag0 == 0.0, 1.0, lag0))
        per_line[group] = curves.mean(axis=1)
    return spacing * np.arange(n_pos), per_line.mean(axis=0)
