"""Spatial autocorrelation of fixed-beam channel gain along dense RX lines.

Gains are correlated in the dB domain, since that is the scale link
adaptation and beam refinement react to.  A dense line is one baseline
(vehicle-absent) scan of a ScanSet at each of uniformly spaced positions
along the canyon (nominally 15 points, 0.1 m apart), as the paper measures
the empty canyon; `dense_lines` finds the complete lines of a whole set as
one (lines x positions) index matrix into it, and `averaged_correlation`
takes the normalized lagged autocovariance of each line's zero-mean dB gains
at each grid angle and averages it over angles and lines.
"""

from __future__ import annotations

import numpy as np

from .angular import ScanSet, Stacking, VehicleState
from .errors import DomainError

__all__ = ["dense_lines", "averaged_correlation"]

POSITION_SPACING_TOL = 1e-9


def dense_lines(scans: ScanSet, positions) -> np.ndarray:
    """The complete dense lines of the scans at the given X positions, as a
    (lines x positions) int matrix: row i holds the set index of line i's
    scan at each position.

    A line is the baseline (vehicle-absent) scans of one (tx, y, stacking),
    grouped by code (`ScanSet.groups`); scans with a vehicle take no
    position.  Each baseline scan takes the first position within
    POSITION_SPACING_TOL, if any, and a later one at a taken position
    replaces the earlier one (`np.maximum.at`: a fancy-index assignment
    does not say which wins).  Lines that miss a position are left out; the
    rest are ordered by the str of their first-seen (tx, y, Stacking) key.
    """
    positions = np.asarray(positions, dtype=float)
    base = scans.state_code == VehicleState.ABSENT.code
    slot = np.full(len(scans), -1)
    for k, x in enumerate(positions.tolist()):
        slot[base & (slot < 0) & (np.abs(scans.x - x) <= POSITION_SPACING_TOL)] = k
    taken = np.flatnonzero(slot >= 0)
    line, firsts = scans.groups(scans.tx_code[taken], scans.y[taken], scans.stacking_code[taken])
    matrix = np.full((firsts.size, positions.size), -1)
    np.maximum.at(matrix, (line, slot[taken]), taken)  # the last scan in a slot
    text = [str((tx, y, Stacking(stacking)))  # of each line's first-seen key
            for tx, _, y, _, stacking in map(scans.key, taken[firsts])]
    return matrix[[i for i in sorted(range(len(text)), key=text.__getitem__)
                   if (matrix[i] >= 0).all()]]


def averaged_correlation(scans: ScanSet, lines, positions) -> tuple[np.ndarray, np.ndarray]:
    """Autocorrelation averaged over all grid angles and all lines.

    lines is a (lines x positions) index matrix into scans, as `dense_lines`
    gives it for these positions, which must be uniformly spaced; every scan
    is on the set's one angle grid.

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
    lines, positions = np.asarray(lines), np.asarray(positions, dtype=float)
    if not len(lines):
        raise DomainError("averaged_correlation needs at least one line")
    steps = np.diff(positions)
    if np.max(np.abs(steps - steps[0])) > POSITION_SPACING_TOL:
        raise DomainError("positions must be uniformly spaced")

    # The lines are one (lines, angles, positions) array.  A 1xm @ mx1
    # matmul sums like the tests' np.correlate reference once the line has 12
    # or more positions (the CLI's lines have 15), so there the curves match
    # it bit for bit; on shorter lines np.correlate sums in another order and
    # the curves differ by about an ulp.  einsum and sum(axis) differ in the
    # last bits.
    # The array is laid out in C order, so each mean runs along memory.  It
    # is gathered a position at a time and centred in place, and the curves
    # are normalized in place, so it and raw are the only temporaries the
    # size of the lines: the caller's whole set is still held.
    n_pos = positions.size
    z = np.empty((len(lines), scans.grid.size, n_pos))
    for k in range(n_pos):
        z[..., k] = scans.gains[lines[:, k]]
    z -= z.mean(axis=2, keepdims=True)
    raw = np.empty_like(z)
    for k in range(n_pos):
        raw[..., k] = np.matmul(z[..., None, :n_pos - k], z[..., k:, None])[..., 0, 0]
    flat = raw[..., 0] == 0.0
    raw /= np.where(flat, 1.0, raw[..., 0])[..., None]
    raw[flat] = np.eye(1, n_pos)
    return float(steps[0]) * np.arange(n_pos), raw.mean(axis=1).mean(axis=0)
