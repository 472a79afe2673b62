"""ScanSets from per-scan arrays, the fits' sample arrays and planted
sidecars, for tests.

Every set goes through `ScanSet.from_rows`, the checked constructor an
ingested set goes through, so a test scan is checked as a scan read from a
file is.
"""

import os
from typing import NamedTuple

import numpy as np

from portcanyon import dataio
from portcanyon.angular import ScanSet, Stacking, VehicleState


def grid(n):
    """The n-angle uniform azimuth grid from 0, in degrees: the angles `synth`
    writes (`SynthConfig.angles_rad` in degrees)."""
    return np.degrees(np.radians(360.0 * np.arange(n) / n))


class Scan(NamedTuple):
    """One scan: its key fields and its angles in degrees and gains in dB."""

    tx: str
    x: float
    y: float
    angles: np.ndarray
    gains: np.ndarray
    vehicle_state: str = "absent"
    stacking: str = "uniform"

    @property
    def key(self) -> tuple:
        """The (tx, x, y, VehicleState, Stacking) key that names the scan."""
        return (self.tx, self.x, self.y, VehicleState(self.vehicle_state), Stacking(self.stacking))


def scan_set(scans, sha256=None) -> ScanSet:
    """The ScanSet of the scans, in order; tokens or enums name the states."""
    scans = list(scans)
    for s in scans:
        assert np.shape(s.angles) == np.shape(s.gains), "one gain per angle"
    keys = [(s.tx, float(s.x), float(s.y), VehicleState(s.vehicle_state).value,
             Stacking(s.stacking).value) for s in scans]
    angles, gains = (np.concatenate([np.ravel(getattr(s, name)) for s in scans] or [[]])
                     for name in ("angles", "gains"))
    return ScanSet.from_rows(keys, [np.size(s.gains) for s in scans], angles, gains, sha256)


def whole(scans: ScanSet) -> np.ndarray:
    """The index array of every scan of the set, in order: what a statistic
    takes to work on the whole set."""
    return np.arange(len(scans))


def records(scans: ScanSet) -> list:
    """The set's scans, in order, as Scan records with the set's one grid:
    x and y as floats and the states as enums, as a key names them."""
    return [Scan(tx, x, y, scans.grid, gains, VehicleState(state), Stacking(stacking))
            for tx, x, y, state, stacking, gains in zip(
                scans.tx.tolist(), scans.x.tolist(), scans.y.tolist(),
                scans.vehicle_state.tolist(), scans.stacking.tolist(), scans.gains)]


def gain_samples(distance_m, gain_db):
    """The structured array `pathloss`'s fits take: one (distance_m, gain_db)
    element per pair of the two sequences."""
    return np.rec.fromarrays((distance_m, gain_db), names="distance_m,gain_db")


def plant_sidecar(path, rows, sha256):
    """Write rows, as `dataio._ingest_columnar` returns them, into the sidecar
    of the CSV at path, keyed by sha256, as the members `dataio.save_sidecar`
    writes (scan 0's angles as the grid), whether or not the rows build a
    set: a sidecar `ingest` never saves itself."""
    keys, sizes, phi_deg, gain_db = rows
    members = {"version": np.array(dataio._SIDECAR_VERSION, dtype=np.int64),
               "sha256": np.array(sha256), "sizes": np.asarray(sizes, dtype=np.int64),
               "phi_deg": phi_deg[:sizes[0]], "gain_db": gain_db}
    members.update(zip(ScanSet.KEYS, map(np.array, zip(*keys))))
    np.savez(os.fspath(path) + dataio.SIDECAR_SUFFIX, allow_pickle=False, **members)
