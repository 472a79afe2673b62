"""The sidecar: the ScanSet `dataio.ingest` built of a CSV, kept beside it.

`ingest` keeps the set it built, in the CSV's units, in
`<input>.scanset.npz` (`dataio.SIDECAR_SUFFIX`), so the next read of the
same content skips the parse.  `save` writes it atomically (umask mode) for
`ingest`, and for `synth` from the set `write_scans` wrote and the sha256 it
returned, so a file `synth` wrote is never parsed; a directory that refuses
the write just leaves no sidecar.  Format 3 saves the grid and the tx ids
once, and the key columns as the set holds them.

`load` builds the set or misses.  A sidecar is trusted only if it passes
every check of `load` (format version, input sha256, members, dtypes,
shapes and sizes, CRC-32s, one positive angle count, ids that pass the row
loop's rules, key columns as a parse codes them: `_canonical`), and then
only if its rows pass the same `ScanSet.from_rows` and checks as a parse's.
Anything else, an I/O error or a format-1 or format-2 sidecar included, is a
miss: the file is parsed and the sidecar rewritten.  An ingest that fails
after a miss, whether in the read, the parse or the build, or because the
file changed while it was read, `remove`s the sidecar, a stale one too.  So
a sidecar never changes a result, and deleting it, `synth`'s too, is always
safe.
"""

from __future__ import annotations

import contextlib
import math
import os
import zipfile

import numpy as np

from .angular import ScanSet, Stacking, VehicleState
from .dataio import SIDECAR_SUFFIX, _atomic_write, _valid_key

__all__ = ["load", "remove", "save"]

_VERSION = 3
_MEMBERS = {"version", "sha256", "sizes", "tx_ids", *ScanSet.KEYS, "phi_deg", "gain_db"}
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def load(path, sha256, limit):
    """The ScanSet of the sidecar at path, built by `ScanSet.from_rows`, if
    it holds the input of hash sha256; None if it is missing, anything about
    it is off or its rows do not build.  No member is read unless its header
    has the expected dtype and shape and at most limit (the input's size in)
    bytes."""
    try:
        with open(path, "rb") as fh:
            # np.load would read a bare .npy whole, whatever shape it claims.
            if fh.read(4) != b"PK\x03\x04":
                return None
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as npz:
                def member(name, dtype, *shapes):
                    with npz.zip.open(name + ".npy") as raw:
                        header = _NPY_HEADERS[np.lib.format.read_magic(raw)](raw)
                    got_shape, fortran, got = header
                    if (fortran or not got.isnative or not got.str[1:].startswith(dtype)
                            or (shapes and got_shape not in shapes)
                            or math.prod(got_shape) * got.itemsize > limit):
                        raise ValueError(f"unexpected sidecar member {name}")
                    return npz[name]  # read whole, so zipfile checks its CRC-32

                if (set(npz.files) != _MEMBERS
                        or member("version", "i8", ()) != _VERSION
                        or member("sha256", "U", ()) != sha256):
                    return None
                sizes = member("sizes", "i8")
                # One angle count, so the grid's n values and n gains per scan.
                if not sizes.size or sizes[0] <= 0 or (sizes != sizes[0]).any():
                    return None
                scans, n = len(sizes), int(sizes[0])
                tx_ids = member("tx_ids", "U").tolist()
                keys = tx_ids, *(member(key, "f8" if key in ("x", "y") else "i8", (scans,))
                                 for key in ScanSet.KEYS)
                phi_deg, gain_db = member("phi_deg", "f8", (n,)), member("gain_db", "f8",
                                                                         (scans * n,))
        # Ids that pass the row loop's rules, and keys as a parse codes them.
        if (isinstance(tx_ids, list) and _canonical(keys)
                and all(_valid_key(tx_id, 0.0, 0.0, "absent", "uniform") for tx_id in tx_ids)):
            return ScanSet.from_rows((tuple(tx_ids), *keys[1:]), sizes, phi_deg, gain_db, sha256)
        return None
    except Exception:  # whatever the file holds, a sidecar that fails or fails to build is a miss
        return None


def remove(path) -> None:
    """Remove the sidecar at path, if there is one and it can be removed."""
    with contextlib.suppress(OSError):
        os.unlink(path)


def _canonical(keys) -> bool:
    """Are keys, as `ScanSet.from_rows` takes them, what `ScanSet.key_columns`
    makes of distinct key tuples: each id once and coded first seen first,
    the state and stacking codes in range, x and y finite, and no two scans
    with one key (`ScanSet.groups`)?"""
    tx_ids, tx_code, x, y, *codes = keys
    codes = np.column_stack(codes)
    return (len(set(tx_ids)) == len(tx_ids) and np.isfinite(x).all() and np.isfinite(y).all()
            and np.array_equal(np.asarray(tx_code)[np.sort(ScanSet.groups(tx_code)[1])],
                               np.arange(len(tx_ids)))
            and ((0 <= codes) & (codes < (len(VehicleState), len(Stacking)))).all()
            and ScanSet.groups(*keys[1:])[1].size == len(codes))


def save(path, scans: ScanSet, sha256) -> None:
    """Save the sidecar of the CSV at path, whose set is scans and whose
    sha256 is sha256, so the next `ingest` of the file skips the parse: the
    scans in set order, in CSV units, the tx ids and the grid once.  It is
    written atomically, unless a tx id would not survive numpy's fixed-width
    strings (a trailing NUL) or the ids would take more than the CSV's size
    in bytes, which `load` refuses: every id takes the longest one's
    width.  A directory that refuses the write leaves no sidecar and no
    error."""
    if 4 * len(scans.tx_ids) * max(map(len, scans.tx_ids), default=0) > os.path.getsize(path):
        return  # 4 bytes a character
    tx_ids = np.array(scans.tx_ids)
    if tx_ids.tolist() != list(scans.tx_ids):
        return
    members = {"version": np.array(_VERSION, dtype=np.int64), "sha256": np.array(sha256),
               "sizes": np.full(len(scans), scans.grid.size, dtype=np.int64), "tx_ids": tx_ids,
               **{key: getattr(scans, key) for key in ScanSet.KEYS},
               "phi_deg": scans.grid, "gain_db": scans.gains.ravel()}
    with contextlib.suppress(OSError):
        _atomic_write(os.fspath(path) + SIDECAR_SUFFIX, lambda fh: _write_npz(fh, members))


def _write_npz(fh, members) -> None:
    """The uncompressed .npz `np.savez` writes, but each member's data goes
    from the array's own buffer into the zip member, not through a copy."""
    with zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as npz:
        for name, array in members.items():
            with npz.open(name + ".npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(array))
                # ascontiguousarray: a 0-d array as 1-d, a contiguous one not copied.
                member.write(np.ascontiguousarray(array).view(np.uint8))


