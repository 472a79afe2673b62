"""Spatial autocorrelation of fixed-beam channel gain along dense RX lines.

Gains are correlated in the dB domain, since that is the scale link
adaptation and beam refinement react to.  A `DenseLine` is a set of scans at
uniformly spaced positions along the canyon (nominally 15 points, 0.1 m
apart); `averaged_correlation` takes the normalized lagged autocovariance of
each line's zero-mean dB gains at each grid angle and averages it over
angles and lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import ScanSet, require_common_grid
from .errors import DomainError, PairingError

__all__ = ["DenseLine", "averaged_correlation"]

POSITION_SPACING_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DenseLine:
    """Uniformly spaced X positions with one scan of a ScanSet per position.

    All scans must share tx, y, vehicle state, stacking and angle grid;
    positions must be strictly increasing with uniform spacing.
    """

    positions: np.ndarray
    scans: ScanSet

    def __post_init__(self) -> None:
        positions, scans = np.asarray(self.positions, dtype=float), self.scans
        object.__setattr__(self, "positions", positions)
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
        apart = np.logical_or.reduce([getattr(scans, key) != getattr(scans, key)[0]
                                      for key in ("tx", "y", "vehicle_state", "stacking")])
        if apart.any():
            raise PairingError(f"scan {scans.key(int(apart.argmax()))} does not belong to the "
                               f"line of {scans.key(0)}")
        require_common_grid(scans)

    @property
    def spacing_m(self) -> float:
        return float(self.positions[1] - self.positions[0])

    @property
    def angles(self) -> np.ndarray:
        return self.scans.angles[0]


def averaged_correlation(lines) -> tuple[np.ndarray, np.ndarray]:
    """Autocorrelation averaged over all grid angles and all lines.

    The curve of one line at one angle is r[k] = sum_j z[j] * z[j+k] / r[0]
    for lags k = 0..N-1, z being the line's zero-mean dB gains there, so
    r[0] = 1 and |r[k]| <= 1.  A constant line has zero variance; its curve
    is [1, 0, ..., 0].  Every line contributes the mean of its per-angle
    curves (rectangle rule over the uniform angle grid); lines are then
    averaged with equal weight.  Both reductions are plain means, so the
    order does not matter.  On lines of 12 or more positions the result
    equals that mean of per-angle `np.correlate` curves (the tests'
    reference) bit for bit; on shorter lines it agrees to within an ulp or so.

    Returns:
        (lag_m, correlation): lag axis in metres and the averaged curve.
    """
    lines = list(lines)
    if not lines:
        raise DomainError("averaged_correlation needs at least one line")
    n_pos, spacing, n_angles = lines[0].positions.size, lines[0].spacing_m, lines[0].angles.size
    for line in lines[1:]:
        if (line.positions.size != n_pos or abs(line.spacing_m - spacing) > POSITION_SPACING_TOL
                or line.angles.size != n_angles):
            raise DomainError("all lines must share position count, spacing and angle count")

    # The lines are one (lines, angles, positions) array.  A 1xm @ mx1
    # matmul sums like the tests' np.correlate reference once the line has 12
    # or more positions (the CLI's lines have 15), so there the curves match
    # it bit for bit; on shorter lines np.correlate sums in another order and
    # the curves differ by about an ulp.  einsum and sum(axis) differ in the
    # last bits.
    # np.array lays this out in C order, so each mean runs along memory.
    db = 10.0 * np.log10(np.array([line.scans.gains.T for line in lines]))
    z = db - db.mean(axis=2, keepdims=True)
    raw = np.empty_like(z)
    for k in range(n_pos):
        raw[..., k] = np.matmul(z[..., None, :n_pos - k], z[..., k:, None])[..., 0, 0]
    lag0 = raw[..., :1]
    curves = np.where(lag0 == 0.0, np.eye(1, n_pos), raw / np.where(lag0 == 0.0, 1.0, lag0))
    return spacing * np.arange(n_pos), curves.mean(axis=1).mean(axis=0)
