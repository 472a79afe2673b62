"""ScanSets from per-scan arrays, the key columns `ScanSet.from_rows` takes
from key tuples and back, the fits' sample arrays and planted sidecars, for
tests.

Every set goes through `ScanSet.from_rows`, the checked constructor an
ingested set goes through, so a test scan is checked as a scan read from a
file is.
"""

import os
from typing import NamedTuple

import numpy as np

from portcanyon import dataio, sidecar
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
    keys = key_columns((s.tx, s.x, s.y, s.vehicle_state, s.stacking) for s in scans)
    angles, gains = (np.concatenate([np.ravel(getattr(s, name)) for s in scans] or [[]])
                     for name in ("angles", "gains"))
    return ScanSet.from_rows(keys, [np.size(s.gains) for s in scans], angles, gains, sha256)


def key_columns(keys) -> tuple:
    """The keys `ScanSet.from_rows` takes, of (tx, x, y, vehicle state,
    stacking) tuples, tokens or enums: the tx ids in first-seen order, then
    the `ScanSet.KEYS` columns."""
    keys = list(keys)
    tx_ids = tuple(dict.fromkeys(key[0] for key in keys))
    return (tx_ids, np.array([tx_ids.index(key[0]) for key in keys], dtype=np.intp),
            np.array([float(key[1]) for key in keys]), np.array([float(key[2]) for key in keys]),
            np.array([VehicleState(key[3]).code for key in keys], dtype=np.intp),
            np.array([Stacking(key[4]).code for key in keys], dtype=np.intp))


def key_tuples(keys) -> list:
    """The (tx, x, y, vehicle state, stacking) tuple of each scan of keys in
    the form `ScanSet.from_rows` takes, as the set's `key` gives it."""
    tx_ids, tx_code, x, y, state_code, stacking_code = keys
    return [(tx_ids[t], float(a), float(b), tuple(VehicleState)[v].value,
             tuple(Stacking)[s].value)
            for t, a, b, v, s in zip(tx_code, x, y, state_code, stacking_code)]


def column(scans: ScanSet, name) -> list:
    """The key field name ("tx", "x", "y", "vehicle_state" or "stacking") of
    each scan of the set, in order, as `ScanSet.key` gives it."""
    at = ("tx", "x", "y", "vehicle_state", "stacking").index(name)
    return [scans.key(i)[at] for i in range(len(scans))]


def whole(scans: ScanSet) -> np.ndarray:
    """The index array of every scan of the set, in order: what a statistic
    takes to work on the whole set."""
    return np.arange(len(scans))


def records(scans: ScanSet) -> list:
    """The set's scans, in order, as Scan records with the set's one grid:
    x and y as floats and the states as enums, as a key names them."""
    return [Scan(tx, x, y, scans.grid, gains, VehicleState(state), Stacking(stacking))
            for (tx, x, y, state, stacking), gains in zip(map(scans.key, range(len(scans))),
                                                          scans.gains)]


def gain_samples(distance_m, gain_db):
    """The structured array `pathloss`'s fits take: one (distance_m, gain_db)
    element per pair of the two sequences."""
    return np.rec.fromarrays((distance_m, gain_db), names="distance_m,gain_db")


def plant_sidecar(path, rows, sha256):
    """Write rows, as `dataio._ingest_columnar` returns them, into the sidecar
    of the CSV at path, keyed by sha256, as the members `sidecar.save`
    writes (scan 0's angles as the grid), whether or not the rows build a
    set: a sidecar `ingest` never saves itself."""
    (tx_ids, *columns), sizes, phi_deg, gain_db = rows
    members = {"version": np.array(sidecar._VERSION, dtype=np.int64),
               "sha256": np.array(sha256), "sizes": np.asarray(sizes, dtype=np.int64),
               "tx_ids": np.array(tx_ids), "phi_deg": phi_deg[:sizes[0]], "gain_db": gain_db}
    members.update(zip(ScanSet.KEYS, columns))
    np.savez(os.fspath(path) + dataio.SIDECAR_SUFFIX, allow_pickle=False, **members)
