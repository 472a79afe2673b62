"""Canonical measurement CSV: schema, writer and validating reader.

One row per (tx, point, angle, vehicle state); synthetic and real data use
the same file format so every downstream statistic runs on either.  Angles
are serialized in degrees and gains in dB at full double precision
(shortest round-tripping decimal), so a write/ingest cycle reproduces the
dataset to within one or two floating-point ulps.

Every emitted file starts with a '#' provenance comment (tool version, seed,
input hash) followed by the header row; files are written atomically, with
the mode the umask gives a newly created file.  `write_table` takes columns
and streams its text `_CHUNK_ROWS` rows at a time.  `write_scans` takes a
ScanSet's blocks, formats each distinct angle grid once per block and writes
one scan at a time, in set order, so no output exists as one string.

`ingest` returns an `angular.ScanSet`: key columns, one (scans x angles)
matrix pair per angle count, and the file's sha256.  A canonical file is
parsed columnar: one C-level `np.loadtxt` pass and array checks.  Anything
unusual (a bad or non-finite value, an unknown token, a duplicate angle,
quotes, CR line ends, non-ASCII bytes, a comment row among the data) is
re-read row by row, the only source of the line-numbered errors.  Each
reader returns rows: keys, angle counts, phi_deg and gain_db.

`ingest` keeps the parse's rows, in the CSV's units, in a sidecar beside the
input, `<input>.scanset.npz`, so the next read of the same content skips the
parse.  It is written atomically (umask mode) only after an ingest succeeds;
a directory that refuses the write just leaves no sidecar.  It is trusted
only if its format version and input sha256 match, its members are exactly
the expected ones, each with the expected dtype and shape, no larger than
the input, each reads whole (zipfile checks each CRC-32), it holds at
least one scan, its angle counts are positive, no key repeats and its keys
pass the readers' key rules.  Its rows then go through the same `_scan_set`
and checks as a parse's.  Anything else, an I/O error or a format-1 sidecar
included, is a miss: the file is parsed and the sidecar rewritten.  So a
sidecar never changes a result, and deleting it is always safe.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import heapq
import itertools
import math
import os
import tempfile
import warnings
from collections import defaultdict

import numpy as np

from . import __version__
from .angular import ScanBlock, ScanSet, Stacking, VehicleState, first_invalid
from .errors import IngestError

__all__ = [
    "CANONICAL_HEADER", "SIDECAR_SUFFIX", "write_scans", "ingest", "write_table",
    "provenance_line", "file_sha256",
]

CANONICAL_FIELDS = ("tx_id", "x_m", "y_m", "phi_deg", "gain_db", "vehicle_state", "stacking")
CANONICAL_HEADER = ",".join(CANONICAL_FIELDS)

_VEHICLE_TOKENS = {v.value for v in VehicleState}
_STACKING_TOKENS = {s.value for s in Stacking}


def provenance_line(seed=None, input_hash=None) -> str:
    seed_txt = "na" if seed is None else str(seed)
    hash_txt = "na" if input_hash is None else input_hash
    return f"# portcanyon {__version__}; seed={seed_txt}; input_sha256={hash_txt}"


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write(path, write) -> None:
    """Call write(fh) on a binary temporary file in path's directory, then move
    it to path; an OSError names path, not the temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        # mkstemp creates 0600; give the file the mode open() would have.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _scan_texts(scans: ScanSet, block):
    """(position, canonical CSV rows) of each scan of one of the set's blocks,
    in block order; each distinct grid row's phi_deg text is formatted once."""
    phi_cells = {}
    for i, angles, gains in zip(block.index.tolist(), block.angles, block.gains):
        grid = angles.tobytes()  # by bytes: -0.0 and 0.0 format differently
        if grid not in phi_cells:
            phi_cells[grid] = [phi + "," for phi in map(repr, np.degrees(angles).tolist())]
        prefix = f"{_cell(scans.tx[i])},{float(scans.x[i])!r},{float(scans.y[i])!r},"
        suffix = f",{scans.vehicle_state[i]},{scans.stacking[i]}\n"
        gain_db = map(repr, (10.0 * np.log10(gains)).tolist())
        rows = (suffix + prefix).join(map(str.__add__, phi_cells[grid], gain_db))
        yield i, prefix + rows + suffix


def write_scans(path, scans, seed=None) -> None:
    """Write scans, a ScanSet or AngularScans, to the canonical CSV, atomically
    and deterministically: one scan per write, in set order."""
    scans = ScanSet.of(scans)
    texts = heapq.merge(*(_scan_texts(scans, block) for block in scans.blocks))
    head = provenance_line(seed=seed) + "\n" + CANONICAL_HEADER + "\n"
    chunks = itertools.chain([head], (text for _, text in texts))
    _atomic_write(path, lambda fh: fh.writelines(map(str.encode, chunks)))


def _parse_float(token: str, column: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise IngestError(f"line {line_no}: {column} is not a number: {token!r}")
    if not math.isfinite(value):
        raise IngestError(f"line {line_no}: {column} must be finite, got {token!r}")
    return value


def _scan_set(keys, sizes, phi_deg, gain_db, sha256) -> ScanSet:
    """The ScanSet of angle-sorted scans stored back to back, checked a matrix
    at a time; the first invalid scan raises its `AngularScan` error and key."""
    sizes = np.asarray(sizes, dtype=int)
    starts = np.cumsum(sizes) - sizes
    angles = np.radians(phi_deg)
    # A gain_db too large for a float overflows to inf, which the check
    # rejects; numpy's overflow warning would only repeat that.
    with np.errstate(over="ignore"):
        gains = 10.0 ** (gain_db / 10.0)
    blocks, invalid = [], []
    for n in dict.fromkeys(sizes.tolist()):
        index = np.flatnonzero(sizes == n)
        rows = slice(None) if index.size == sizes.size else starts[index, None] + np.arange(n)
        blocks.append(ScanBlock(index, angles[rows].reshape(-1, n), gains[rows].reshape(-1, n)))
        found = first_invalid(blocks[-1].angles, blocks[-1].gains)
        if found:
            invalid.append((int(index[found[0]]), found[1]))
    if invalid:
        scan, exc = min(invalid, key=lambda item: item[0])
        raise type(exc)(f"scan {keys[scan]}: {exc}") from exc
    return ScanSet.from_keys(keys, blocks, sha256)


def _csv_rows(fh):
    """csv.reader over a text file, with a decoding failure as an IngestError."""
    try:
        yield from csv.reader(fh)
    except UnicodeDecodeError as exc:
        raise IngestError(f"file is not valid UTF-8 text: {exc.reason}") from None


def _ingest_rows(path):
    """Row-by-row reader: the reference semantics and every ingest error.
    Returns the rows `_scan_set` takes, scans in first-seen order."""
    groups: dict[tuple, dict[float, float]] = defaultdict(dict)
    order: list[tuple] = []

    with open(path, "r", encoding="utf-8", newline="") as fh:
        line_no = 0
        header_seen = False
        for row in _csv_rows(fh):
            line_no += 1
            if not row:
                continue
            if row[0].startswith("#"):
                continue
            if not header_seen:
                if row != list(CANONICAL_FIELDS):
                    raise IngestError(
                        f"line {line_no}: header must be exactly {CANONICAL_HEADER!r}"
                    )
                header_seen = True
                continue
            if len(row) != len(CANONICAL_FIELDS):
                raise IngestError(
                    f"line {line_no}: expected {len(CANONICAL_FIELDS)} columns, got {len(row)}"
                )
            tx_id, x_s, y_s, phi_s, gain_s, vehicle_s, stacking_s = row
            if not tx_id:
                raise IngestError(f"line {line_no}: empty tx_id")
            x = _parse_float(x_s, "x_m", line_no)
            y = _parse_float(y_s, "y_m", line_no)
            phi = _parse_float(phi_s, "phi_deg", line_no)
            gain = _parse_float(gain_s, "gain_db", line_no)
            if vehicle_s not in _VEHICLE_TOKENS:
                raise IngestError(f"line {line_no}: unknown vehicle_state {vehicle_s!r}")
            if stacking_s not in _STACKING_TOKENS:
                raise IngestError(f"line {line_no}: unknown stacking {stacking_s!r}")
            key = (tx_id, x, y, vehicle_s, stacking_s)
            if key not in groups:
                order.append(key)
            if phi in groups[key]:
                raise IngestError(f"line {line_no}: duplicate angle {phi} deg for scan {key}")
            groups[key][phi] = gain

    if not header_seen:
        raise IngestError("file has no header row")
    if not order:
        raise IngestError("file contains no measurement rows")

    phis = [sorted(groups[key]) for key in order]
    gains = [groups[key][p] for key, key_phis in zip(order, phis) for p in key_phis]
    return order, list(map(len, phis)), np.array(list(itertools.chain(*phis))), np.array(gains)


class _NotCanonical(Exception):
    """The columnar reader cannot vouch for a file; it is re-read row by row."""


# Bytes of a canonical file: printable ASCII except the quote, and LF.  Any
# other byte (CR, NUL, tab, non-ASCII, '"') sends the file to the row loop,
# whose csv/str semantics the columnar parse does not reproduce.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n"
_HEADER_LINE = CANONICAL_HEADER.encode("ascii") + b"\n"
_KEY_FIELDS = ("tx_id", "x_m", "y_m", "vehicle_state", "stacking")
# Fixed-width text fields.  Both are longer than every token, so a truncated
# field never passes as a token; a tx_id that fills its width may have been
# truncated and is re-read.
_TX_WIDTH = 16
_TOKEN_WIDTH = 1 + max(map(len, _VEHICLE_TOKENS | _STACKING_TOKENS))
_COLUMNS = np.dtype([
    ("tx_id", f"S{_TX_WIDTH}"),
    ("x_m", "f8"), ("y_m", "f8"), ("phi_deg", "f8"), ("gain_db", "f8"),
    ("vehicle_state", f"S{_TOKEN_WIDTH}"),
    ("stacking", f"S{_TOKEN_WIDTH}"),
])


def _valid_key(tx, x, y, vehicle_state, stacking) -> bool:
    """Does a scan key pass the rules both readers enforce?"""
    return (bool(tx) and not tx.startswith("#") and math.isfinite(x) and math.isfinite(y)
            and vehicle_state in _VEHICLE_TOKENS and stacking in _STACKING_TOKENS)


def _read_runs(path):
    """One np.loadtxt pass over a plain canonical file, checked column-wise.

    Rows of one scan are contiguous in a canonical file, so the key fields
    are validated once per run of equal keys.  Returns the run keys, the
    first row of each run and contiguous phi_deg and gain_db columns; the
    wide parsed table is dropped on return.
    """
    with open(path, "rb") as fh:
        skip = 0
        while True:
            line = fh.readline()
            skip += 1
            if line == _HEADER_LINE:
                break
            if line != b"\n" and not line.startswith(b"#"):
                raise _NotCanonical
    with warnings.catch_warnings():
        # "input contained no data": an empty body is re-read below.
        warnings.simplefilter("ignore", UserWarning)
        try:
            table = np.loadtxt(
                path, dtype=_COLUMNS, delimiter=",", comments=None,
                skiprows=skip, encoding="ascii", ndmin=1,
            )
        except ValueError:
            raise _NotCanonical from None
    if table.size == 0:
        raise _NotCanonical
    phi = np.ascontiguousarray(table["phi_deg"])
    gain = np.ascontiguousarray(table["gain_db"])
    if not (np.isfinite(phi).all() and np.isfinite(gain).all()):
        raise _NotCanonical

    # A NaN or inf x or y differs from the row before, so it starts a run.
    key_columns = [table[name] for name in _KEY_FIELDS]
    changed = np.zeros(table.size, dtype=bool)
    changed[0] = True
    for col in key_columns:
        changed[1:] |= col[1:] != col[:-1]
    starts = np.flatnonzero(changed)
    keys = []
    for tx_b, x, y, vehicle_b, stacking_b in zip(
        *(col[starts].tolist() for col in key_columns)
    ):
        key = (tx_b.decode("ascii"), x, y,
               vehicle_b.decode("ascii"), stacking_b.decode("ascii"))
        if len(tx_b) == _TX_WIDTH or not _valid_key(*key):
            raise _NotCanonical
        keys.append(key)
    return keys, starts, phi, gain


def _is_plain(path) -> bool:
    """Is every byte of the file a plain canonical byte (`_PLAIN_BYTES`)?"""
    with open(path, "rb") as fh:
        return not any(chunk.translate(None, _PLAIN_BYTES)
                       for chunk in iter(lambda: fh.read(1 << 20), b""))


def _ingest_columnar(path):
    """Columnar reader: the rows `_ingest_rows` would return, or `_NotCanonical`.

    Runs are grouped by first-seen key, as in the row loop, so -0.0 joins
    0.0 and a scan split across the file is rejoined; a duplicate angle, a
    bad token, a non-finite value or anything but a plain canonical table
    raises `_NotCanonical`.  Rows that already come one run per scan with
    rising angles, as written, are not sorted.
    """
    if not _is_plain(path):
        raise _NotCanonical
    keys, starts, phi, gain = _read_runs(path)
    group_ids: dict[tuple, int] = {}
    run_group = [group_ids.setdefault(key, len(group_ids)) for key in keys]
    sizes = np.diff(starts, append=phi.size)
    rising = phi[1:] > phi[:-1]
    rising[starts[1:] - 1] = True
    if len(group_ids) < len(keys) or not rising.all():
        row_group = np.repeat(run_group, sizes)
        by_group = np.lexsort((phi, row_group))
        phi = phi[by_group]
        gain = gain[by_group]
        sizes = np.bincount(row_group)
        repeated = phi[1:] == phi[:-1]
        repeated[np.cumsum(sizes)[:-1] - 1] = False
        if repeated.any():
            raise _NotCanonical
    return list(group_ids), sizes, phi, gain


SIDECAR_SUFFIX = ".scanset.npz"
_SIDECAR_VERSION = 2
_SIDECAR_MEMBERS = {"version", "sha256", "sizes", *ScanSet.KEYS, "phi_deg", "gain_db"}
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0}


def _load_sidecar(path, sha256, limit):
    """The rows in the sidecar at path, if it holds the input of hash sha256;
    None if it is missing or anything about it is off.  No member is read
    unless its header has the expected dtype and shape and at most limit
    (the input's size in) bytes."""
    try:
        with open(path, "rb") as fh:
            # np.load would read a bare .npy whole, whatever shape it claims.
            if fh.read(4) != b"PK\x03\x04":
                return None
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as npz:
                def member(name, dtype, shape=None):
                    with npz.zip.open(name + ".npy") as raw:
                        header = _NPY_HEADERS[np.lib.format.read_magic(raw)](raw)
                    got_shape, fortran, got = header
                    if (fortran or not got.isnative or not got.str[1:].startswith(dtype)
                            or shape not in (None, got_shape)
                            or math.prod(got_shape) * got.itemsize > limit):
                        raise ValueError(f"unexpected sidecar member {name}")
                    return npz[name]  # read whole, so zipfile checks its CRC-32

                if (set(npz.files) != _SIDECAR_MEMBERS
                        or member("version", "i8", ()) != _SIDECAR_VERSION
                        or member("sha256", "U", ()) != sha256):
                    return None
                sizes = member("sizes", "i8")
                n, total = len(sizes), sum(sizes.tolist())  # Python ints: no overflow
                keys = list(zip(*(member(key, "f8" if key in ("x", "y") else "U", (n,)).tolist()
                                  for key in ScanSet.KEYS)))
                phi_deg, gain_db = (member(name, "f8", (total,)) for name in ("phi_deg", "gain_db"))
        # Keys compare as the readers group them: -0.0 joins 0.0.
        if (sizes.size > 0 and (sizes > 0).all() and len(set(keys)) == len(keys)
                and all(_valid_key(*key) for key in keys)):
            return keys, sizes, phi_deg, gain_db
        return None
    except Exception:  # whatever the file holds, a sidecar that fails is a miss
        return None


def _save_sidecar(path, rows, sha256) -> None:
    """Write the rows' sidecar atomically, unless a text key would not survive
    numpy's fixed-width strings (a trailing NUL); a directory that refuses
    the write leaves no sidecar and no error."""
    keys, sizes, phi_deg, gain_db = rows
    members = {"version": np.array(_SIDECAR_VERSION, dtype=np.int64), "sha256": np.array(sha256),
               "sizes": np.asarray(sizes, dtype=np.int64), "phi_deg": phi_deg, "gain_db": gain_db}
    for key, values in zip(ScanSet.KEYS, zip(*keys)):
        members[key] = np.array(values)
        if members[key].tolist() != list(values):
            return
    with contextlib.suppress(OSError):
        _atomic_write(path, lambda fh: np.savez(fh, allow_pickle=False, **members))


def _row_sources(path, sidecar, sha256, limit):
    """(rows, parsed) to try in turn: the sidecar's rows if any, then the parse's."""
    cached = _load_sidecar(sidecar, sha256, limit)
    if cached is not None:
        yield cached, False
    try:
        yield _ingest_columnar(path), True
    except _NotCanonical:
        yield _ingest_rows(path), True


def ingest(path) -> ScanSet:
    """Read and validate a canonical measurement CSV into a ScanSet.

    Rows are grouped by (tx, x, y, vehicle state, stacking) and sorted by
    angle; duplicate angles within a group and malformed rows are rejected
    with their line number, and each group's grid must be uniform over one
    full rotation.  A plain canonical file is parsed columnar; anything the
    columnar checks cannot vouch for is re-read row by row, which is where
    every line-numbered error comes from.  The set's `sha256` is the file's.

    The parsed rows are kept in the sidecar `<path>.scanset.npz` and taken
    from there while it holds the file's sha256 (see the module docstring).
    """
    before = os.stat(path)
    sha256 = file_sha256(path)
    sidecar = os.fspath(path) + SIDECAR_SUFFIX
    for rows, parsed in _row_sources(path, sidecar, sha256, before.st_size):
        try:
            scans = _scan_set(*rows, sha256)
        except Exception:
            if parsed:
                raise
            continue  # sidecar rows that do not build are a miss
        after = os.stat(path)
        # A file changed while it was read may not match its hash.
        if parsed and (before.st_ino, before.st_size, before.st_mtime_ns) == (
                after.st_ino, after.st_size, after.st_mtime_ns):
            _save_sidecar(sidecar, rows, sha256)
        return scans


def _cell(value) -> str:
    """One CSV field: text quoted as csv's QUOTE_MINIMAL does (CR too)."""
    if isinstance(value, str):
        if "," in value or '"' in value or "\n" in value or "\r" in value:
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _lines(columns) -> str:
    """CSV lines of columns: float arrays by `repr`, int arrays by `str`, else `_cell`."""
    fields = [
        map(repr if col.dtype.kind == "f" else str, col.tolist())
        if isinstance(col, np.ndarray) and col.dtype.kind in "fiu" else map(_cell, col)
        for col in columns
    ]
    if len(fields) == 1:  # csv writes a lone empty field as "", not a blank line
        fields = [['""' if f == "" else f for f in fields[0]]]
    return "\n".join(map(",".join, zip(*fields, strict=True))) + "\n"


_CHUNK_ROWS = 1 << 14  # rows formatted per write: a few MB of text at most


def write_table(path, header, columns, input_hash=None) -> None:
    """Write a plot-ready CSV table with the provenance comment and header.

    `columns` holds one sequence per header field, all of one length.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(columns)} columns")

    def chunks():
        yield provenance_line(input_hash=input_hash) + "\n"
        yield _lines([[name] for name in header])
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            yield _lines([col[start:start + _CHUNK_ROWS] for col in columns])

    _atomic_write(path, lambda fh: fh.writelines(map(str.encode, chunks())))
