"""Canonical measurement CSV: schema, writer and validating reader.

One row per (tx, point, angle, vehicle state); synthetic and real data use
the same file format so every downstream statistic runs on either.  Angles
are serialized in degrees and gains in dB at full double precision
(shortest round-tripping decimal), so a write/ingest cycle reproduces the
dataset to within one or two floating-point ulps.

Every emitted file starts with a '#' provenance comment (tool version, seed,
input hash) followed by the header row; files are written atomically, with
the mode the umask gives a newly created file.  `write_table` takes columns
and streams its text `_CHUNK_ROWS` rows at a time, and `write_scans` one scan
at a time, so no output exists as one string.

`ingest` returns an `angular.ScanSet`: key columns, one (scans x angles)
matrix pair per angle count, and the file's sha256, taken in the byte scan
that vets the file.  A canonical file is parsed columnar: one C-level
`np.loadtxt` pass and array checks.  Anything unusual (a bad or non-finite
value, an unknown token, a duplicate angle, quotes, CR line ends, non-ASCII
bytes, a comment row among the data) is re-read row by row, and that row
loop is the only source of the line-numbered errors.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import os
import tempfile
import warnings
from collections import defaultdict

import numpy as np

from . import __version__
from .angular import AngularScan, ScanBlock, ScanSet, Stacking, VehicleState, first_invalid
from .errors import IngestError

__all__ = [
    "CANONICAL_HEADER", "write_scans", "ingest", "write_table", "provenance_line",
    "file_sha256",
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


def _atomic_write_text(path, chunks) -> None:
    """Write chunks to path through a temporary file in its directory; an
    OSError names path, not the temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        # mkstemp creates 0600; give the file the mode open() would have.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _scan_text(scan: AngularScan) -> str:
    """Canonical CSV rows of one scan; only phi_deg and gain_db vary by row."""
    prefix = f"{_cell(scan.tx)},{float(scan.x)!r},{float(scan.y)!r},"
    suffix = f",{scan.vehicle_state.value},{scan.stacking.value}\n"
    phi_deg = map(repr, np.degrees(scan.angles).tolist())
    gain_db = map(repr, (10.0 * np.log10(scan.gains)).tolist())
    return "".join([prefix + phi + "," + gain + suffix for phi, gain in zip(phi_deg, gain_db)])


def write_scans(path, scans, seed=None) -> None:
    """Write scans to the canonical CSV, atomically and deterministically."""
    head = provenance_line(seed=seed) + "\n" + CANONICAL_HEADER + "\n"
    _atomic_write_text(path, itertools.chain([head], map(_scan_text, scans)))


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


def _ingest_rows(path) -> ScanSet:
    """Row-by-row reader: the reference semantics and every ingest error."""
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
    return _scan_set(order, list(map(len, phis)), np.array(list(itertools.chain(*phis))),
                     np.array(gains), file_sha256(path))


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


def _read_runs(path):
    """One np.loadtxt pass over a plain canonical file, checked column-wise.

    Rows of one scan are contiguous in a canonical file, so the key fields
    are validated once per run of equal keys.  Returns the run keys, the
    first row of each run, contiguous phi_deg and gain_db columns and the
    file's sha256, taken in the byte scan; the wide parsed table is dropped
    on return.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            if chunk.translate(None, _PLAIN_BYTES):
                raise _NotCanonical
            digest.update(chunk)
        fh.seek(0)
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
        if (not tx_b or tx_b.startswith(b"#") or len(tx_b) == _TX_WIDTH
                or not (math.isfinite(x) and math.isfinite(y))):
            raise _NotCanonical
        key = (tx_b.decode("ascii"), x, y,
               vehicle_b.decode("ascii"), stacking_b.decode("ascii"))
        if key[3] not in _VEHICLE_TOKENS or key[4] not in _STACKING_TOKENS:
            raise _NotCanonical
        keys.append(key)
    return keys, starts, phi, gain, digest.hexdigest()


def _ingest_columnar(path) -> ScanSet:
    """Columnar reader: the scans `_ingest_rows` would return, or `_NotCanonical`.

    Runs are grouped by first-seen key, as in the row loop, so -0.0 joins
    0.0 and a scan split across the file is rejoined; a duplicate angle, a
    bad token, a non-finite value or anything but a plain canonical table
    raises `_NotCanonical`.  Rows that already come one run per scan with
    rising angles, as written, are not sorted.
    """
    keys, starts, phi, gain, sha256 = _read_runs(path)
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
    return _scan_set(list(group_ids), sizes, phi, gain, sha256)


def ingest(path) -> ScanSet:
    """Read and validate a canonical measurement CSV into a ScanSet.

    Rows are grouped by (tx, x, y, vehicle state, stacking) and sorted by
    angle; duplicate angles within a group and malformed rows are rejected
    with their line number, and each group's grid must be uniform over one
    full rotation.  A plain canonical file is parsed columnar; anything the
    columnar checks cannot vouch for is re-read row by row, which is where
    every line-numbered error comes from.  The set's `sha256` is the file's.
    """
    try:
        return _ingest_columnar(path)
    except _NotCanonical:
        return _ingest_rows(path)


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

    _atomic_write_text(path, chunks())
