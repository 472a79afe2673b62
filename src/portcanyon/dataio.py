"""Canonical measurement CSV: schema, writer and validating reader.

One row per (tx, point, angle, vehicle state); synthetic and real data use
the same file format so every downstream statistic runs on either.  Angles
are serialized in degrees and gains in dB at full double precision
(shortest round-tripping decimal), so a write/ingest cycle gives back the
dB gains exactly and the angles to within one or two floating-point ulps.

Every emitted file starts with a '#' provenance comment (tool version, seed,
input hash) followed by the header row; files are written atomically, with
the mode the umask gives a newly created file.  `write_table` takes columns
and streams its text `_CHUNK_ROWS` rows at a time.  `write_scans` takes a
ScanSet, formats its angle grid once and writes one scan at a time, in set
order, so no output exists as one string.

`ingest` returns an `angular.ScanSet`: key columns, the one angle grid,
the (scans x angles) gains matrix and the file's sha256; a file whose
scans differ in angle count, or in angle by more than
`angular.GRID_MATCH_TOL` from scan 0's, is a GridError that names the
first scan that differs.  A canonical
file, LF or CRLF, is parsed columnar, in one read of the file in blocks of
whole lines (`_BLOCK_BYTES`): each block's bytes are checked, one
`np.loadtxt` parses every field of its lines, numbers of any length, and
its phi_deg and gain_db go into the result before the next block is read,
so the parse holds one block's table, not the file's.  Anything unusual (a
bad or non-finite value, an unknown token, a duplicate angle, quotes, a CR
outside a CRLF but for one ending the file, non-ASCII bytes, a comment row
among the data, a partial line over `_MAX_LINE_BYTES` carried into the
next block) is re-read row by row, the only source of the line-numbered
errors.  Both readers skip one leading UTF-8 byte-order mark.  Each
reader returns rows: keys, angle counts, phi_deg and gain_db.  `_scan_set`
converts phi_deg to radians in place and keeps gain_db as the set's dB
gains, so an ingest holds one copy; the grid is a copy of scan 0's angles.

`ingest` keeps the parse's rows, in the CSV's units, in a sidecar beside the
input, `<input>.scanset.npz`, so the next read of the same content skips the
parse.  It is saved atomically (umask mode) before the rows are converted
and removed if the build fails, so a failing ingest leaves none; a
directory that refuses the write just leaves no sidecar.  `synth` saves
one too (`save_sidecar`): `write_scans` returns the sha256 of the bytes it
wrote, and the rows are those of the set written, in the units and values
`write_scans` formats, so a file `synth` wrote is never parsed.  The grid
is saved once: phi_deg holds scan 0's n values, not one per row.
Each member is written from its array's buffer, the bytes `np.savez`
writes but without its copy.  A sidecar is trusted only if its format
version and input sha256 match, its members are exactly the expected ones,
each with the expected dtype and shape, no larger than the input, each
reads whole (zipfile checks each CRC-32), it holds at least one scan,
every scan has the same positive angle count n, phi_deg holds n values,
no key repeats and its keys pass the readers' key rules.  Its rows, which
the load owns, then go through the same `_scan_set` and checks as a parse's.
Anything else, an I/O error or a format-1 sidecar included, is a miss: the
file is parsed and the sidecar rewritten.  So a sidecar never changes a
result, and deleting it, `synth`'s too, is always safe.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import hashlib
import itertools
import math
import os
import tempfile
import warnings
import zipfile
from collections import defaultdict

import numpy as np

from . import __version__
from .angular import ScanSet, Stacking, VehicleState
from .errors import IngestError

__all__ = [
    "CANONICAL_HEADER", "SIDECAR_SUFFIX", "write_scans", "save_sidecar", "ingest",
    "write_table", "provenance_line", "file_sha256",
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


def _scan_texts(scans: ScanSet):
    """The canonical CSV rows of each scan, in set order; the grid's phi_deg
    text is formatted once."""
    phi_cells = [phi + "," for phi in map(repr, np.degrees(scans.grid).tolist())]
    columns = (getattr(scans, key).tolist() for key in ScanSet.KEYS)
    for (tx, x, y, vehicle_state, stacking), gain_db in zip(zip(*columns), scans.gains):
        prefix = f"{_cell(tx)},{x!r},{y!r},"
        suffix = f",{vehicle_state},{stacking}\n"
        # One flat join: the prefix, then each row's phi, gain and the
        # separator to the next row, the last row's being the suffix.
        cells = [suffix + prefix] * (3 * gain_db.size + 1)
        cells[0], cells[-1] = prefix, suffix
        cells[1::3] = phi_cells
        cells[2::3] = map(repr, gain_db.tolist())
        yield "".join(cells)


def write_scans(path, scans: ScanSet, seed=None) -> str:
    """Write a ScanSet to the canonical CSV, atomically and deterministically:
    one scan per write, in set order.  Returns the sha256 of the bytes
    written, hashed as they are written."""
    head = provenance_line(seed=seed) + "\n" + CANONICAL_HEADER + "\n"
    chunks = itertools.chain([head], _scan_texts(scans))
    digest = hashlib.sha256()

    def write(fh):
        for data in map(str.encode, chunks):
            digest.update(data)
            fh.write(data)

    _atomic_write(path, write)
    return digest.hexdigest()


def _parse_float(token: str, column: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise IngestError(f"line {line_no}: {column} is not a number: {token!r}")
    if not math.isfinite(value):
        raise IngestError(f"line {line_no}: {column} must be finite, got {token!r}")
    return value


def _scan_set(keys, sizes, phi_deg, gain_db, sha256) -> ScanSet:
    """The checked ScanSet (`ScanSet.from_rows`) of rows in the CSV's units;
    phi_deg, every row's angle or the grid's sizes[0] values once, is
    converted to radians in place, and the set holds gain_db as it is."""
    np.radians(phi_deg, out=phi_deg)
    return ScanSet.from_rows(keys, sizes, phi_deg, gain_db, sha256)


def _csv_rows(fh):
    """csv.reader over a text file, with a decoding failure or a csv error (a
    field over csv's size limit) as an IngestError."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise IngestError(f"file is not valid UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise IngestError(f"line {reader.line_num}: {exc}") from None


def _ingest_rows(path):
    """Row-by-row reader: the reference semantics and every ingest error.
    Returns the rows `_scan_set` takes, scans in first-seen order."""
    groups: dict[tuple, dict[float, float]] = defaultdict(dict)
    order: list[tuple] = []

    # utf-8-sig drops one leading byte-order mark, as Windows tools write it.
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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


# Bytes of a canonical file: printable ASCII except the quote, LF and CR (as
# part of a CRLF line end only, `_body_lines` checks).  Any other byte (NUL,
# tab, non-ASCII, '"') sends the file to the row loop, whose csv/str
# semantics the columnar parse does not reproduce.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\n\r"
# The columnar parse reads the file in blocks of _BLOCK_BYTES, small enough
# that one block's lines and table stay in the CPU caches.  A partial line
# over _MAX_LINE_BYTES carried into the next block, far longer than a
# canonical row (under 150 bytes: a tx_id under _TX_WIDTH bytes, four floats
# of at most 24 characters, two tokens), sends the file to the row loop.
# So a line the parse takes is shorter than both together, under the field
# size limit csv enforces in the row loop (131,072).
_BLOCK_BYTES = 1 << 16
_MAX_LINE_BYTES = 1 << 12
# The text key fields are parsed as fixed-width text, each field wider than
# the values it takes, so one that fills its width may have been truncated
# and the file is re-read; x and y are parsed as numbers.  Every width is a
# multiple of 8, so rows compare keys as the 8-byte words outside phi_deg and
# gain_db, much faster than numpy compares strings.
_KEY_FIELDS = ("tx_id", "x_m", "y_m", "vehicle_state", "stacking")
_TX_WIDTH = 16
_TOKEN_WIDTH = 16
_COLUMNS = np.dtype([
    ("tx_id", f"S{_TX_WIDTH}"), ("x_m", "f8"), ("y_m", "f8"), ("phi_deg", "f8"),
    ("gain_db", "f8"), ("vehicle_state", f"S{_TOKEN_WIDTH}"), ("stacking", f"S{_TOKEN_WIDTH}"),
])
_KEY_WORDS = [word for word in range(_COLUMNS.itemsize // 8)
              if word * 8 not in (_COLUMNS.fields["phi_deg"][1], _COLUMNS.fields["gain_db"][1])]
# The shortest row that can pass, LF included: one-character tx_id and
# numbers, the shortest tokens.
_MIN_ROW_BYTES = len(",".join(["T", "0", "0", "0", "0", min(_VEHICLE_TOKENS, key=len),
                               min(_STACKING_TOKENS, key=len)])) + 1


def _valid_key(tx, x, y, vehicle_state, stacking) -> bool:
    """Does a scan key pass the rules both readers enforce?"""
    return (bool(tx) and not tx.startswith("#") and math.isfinite(x) and math.isfinite(y)
            and vehicle_state in _VEHICLE_TOKENS and stacking in _STACKING_TOKENS)


def _body_lines(path):
    """The lines after the header (str, no line ends), in one list per block.

    One read of the file after one leading UTF-8 byte-order mark, if it has
    one, in blocks of `_BLOCK_BYTES`: each block is checked
    against `_PLAIN_BYTES`, its CRLFs become LFs, and it is cut after its
    last LF; the partial line after that, with a CR that ends the block, is
    carried into the next block.  A disallowed byte, any other CR, a
    carried part longer than `_MAX_LINE_BYTES`, a line before the header
    that is neither blank nor a comment, or no header raises `_NotCanonical`;
    a longer line within one block's text is yielded like any other.
    """
    tail, header_seen = "", False
    with open(path, "rb") as fh:
        if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
            fh.seek(0)
        # A last LF ends a last line that has none.
        for block in itertools.chain(iter(lambda: fh.read(_BLOCK_BYTES), b""), [b"\n"]):
            if block.translate(None, _PLAIN_BYTES):
                raise _NotCanonical
            text = tail + block.decode("ascii")
            if "\r" in text:  # `in` scans a block far faster than str.replace
                text = text.replace("\r\n", "\n")
            # csv ends a line at a bare CR too; the row loop reads those.
            if text.find("\r", 0, len(text) - 1) >= 0:
                raise _NotCanonical
            lines = text.split("\n")
            tail = lines.pop()
            if len(tail) > _MAX_LINE_BYTES:
                raise _NotCanonical
            if not header_seen:
                for at, line in enumerate(lines):
                    if line == CANONICAL_HEADER:
                        lines, header_seen = lines[at + 1:], True
                        break
                    if line and not line.startswith("#"):
                        raise _NotCanonical
            if header_seen:
                yield lines
    if not header_seen:
        raise _NotCanonical


def _read_runs(path):
    """One pass over a plain canonical file in blocks, checked column-wise.

    Each block's lines go through one `np.loadtxt`; its phi_deg and gain_db
    go straight into the result columns and its wide table is dropped before
    the next block is read.  Rows of one scan are contiguous in a canonical
    file, so a run of rows with the same key bytes, across block boundaries
    too, has its key checked once: a tx_id that fills `_TX_WIDTH` or a key
    that fails `_valid_key` raises `_NotCanonical`.  Returns the run keys,
    the first row of each run and the phi_deg and gain_db columns.
    """
    # Room for every row a file of this size can hold; pages no row reaches
    # are never touched.  A file with more rows has a row too short to pass.
    capacity = os.path.getsize(path) // _MIN_ROW_BYTES + 1
    phi, gain = np.empty(capacity), np.empty(capacity)
    keys, starts = [], []
    rows, last_words = 0, None
    with warnings.catch_warnings():
        # "input contained no data": a block of blank lines.
        warnings.simplefilter("ignore", UserWarning)
        for lines in _body_lines(path):
            try:
                table = np.loadtxt(lines, dtype=_COLUMNS, delimiter=",", comments=None,
                                   encoding="ascii", ndmin=1)
            except ValueError:
                raise _NotCanonical from None
            del lines
            if table.size == 0:
                continue
            if rows + table.size > capacity:
                raise _NotCanonical
            phi[rows:rows + table.size] = table["phi_deg"]
            gain[rows:rows + table.size] = table["gain_db"]
            # Text compares as bytes: the padding is NUL, which a plain file lacks.
            words = table.view(np.uint64).reshape(table.size, -1)[:, _KEY_WORDS]
            changed = np.empty(table.size, dtype=bool)
            changed[0] = last_words is None or (words[0] != last_words).any()
            np.any(words[1:] != words[:-1], axis=1, out=changed[1:])
            last_words = words[-1].copy()
            block_starts = np.flatnonzero(changed)
            for tx, x, y, vehicle, stacking in zip(
                    *(table[name][block_starts].tolist() for name in _KEY_FIELDS)):
                key = (tx.decode("ascii"), x, y, vehicle.decode("ascii"), stacking.decode("ascii"))
                if len(tx) == _TX_WIDTH or not _valid_key(*key):
                    raise _NotCanonical
                keys.append(key)
            starts.append(block_starts + rows)
            rows += table.size
            del table, words
    phi, gain = phi[:rows], gain[:rows]
    if rows == 0 or not (np.isfinite(phi).all() and np.isfinite(gain).all()):
        raise _NotCanonical
    return keys, np.concatenate(starts), phi, gain


def _ingest_columnar(path):
    """Columnar reader: the rows `_ingest_rows` would return, or `_NotCanonical`.

    Runs are grouped by first-seen key, as in the row loop, so a run at x
    -0.0 joins one at 0.0 and a scan split across the file is rejoined; a
    duplicate angle, a bad token, a non-finite value or anything but a plain
    canonical table raises `_NotCanonical`.  Rows that already come one run
    per scan with rising angles, as written, are not sorted.
    """
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
                def member(name, dtype, *shapes):
                    with npz.zip.open(name + ".npy") as raw:
                        header = _NPY_HEADERS[np.lib.format.read_magic(raw)](raw)
                    got_shape, fortran, got = header
                    if (fortran or not got.isnative or not got.str[1:].startswith(dtype)
                            or (shapes and got_shape not in shapes)
                            or math.prod(got_shape) * got.itemsize > limit):
                        raise ValueError(f"unexpected sidecar member {name}")
                    return npz[name]  # read whole, so zipfile checks its CRC-32

                if (set(npz.files) != _SIDECAR_MEMBERS
                        or member("version", "i8", ()) != _SIDECAR_VERSION
                        or member("sha256", "U", ()) != sha256):
                    return None
                sizes = member("sizes", "i8")
                # One angle count, so the grid's n values and n gains per scan.
                if not sizes.size or sizes[0] <= 0 or (sizes != sizes[0]).any():
                    return None
                scans, n = len(sizes), int(sizes[0])
                keys = list(zip(*(member(key, "f8" if key in ("x", "y") else "U", (scans,))
                                  .tolist() for key in ScanSet.KEYS)))
                phi_deg, gain_db = member("phi_deg", "f8", (n,)), member("gain_db", "f8",
                                                                         (scans * n,))
        # Keys compare as the readers group them: -0.0 joins 0.0.
        if len(set(keys)) == len(keys) and all(_valid_key(*key) for key in keys):
            return keys, sizes, phi_deg, gain_db
        return None
    except Exception:  # whatever the file holds, a sidecar that fails is a miss
        return None


def _save_sidecar(path, rows, sha256, limit) -> None:
    """Write the rows' sidecar atomically, unless a text key would not survive
    numpy's fixed-width strings (a trailing NUL) or a text member would take
    more than limit (the input's size in) bytes, which `_load_sidecar`
    refuses: every scan's key takes the longest one's width.  A directory
    that refuses the write leaves no sidecar and no error."""
    keys, sizes, phi_deg, gain_db = rows
    members = {"version": np.array(_SIDECAR_VERSION, dtype=np.int64), "sha256": np.array(sha256),
               "sizes": np.asarray(sizes, dtype=np.int64), "phi_deg": phi_deg, "gain_db": gain_db}
    for key, values in zip(ScanSet.KEYS, zip(*keys)):
        if key not in ("x", "y") and 4 * len(values) * max(map(len, values)) > limit:
            return  # 4 bytes a character
        members[key] = np.array(values)
        if members[key].tolist() != list(values):
            return
    with contextlib.suppress(OSError):
        _atomic_write(path, lambda fh: _write_npz(fh, members))


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


def save_sidecar(path, scans: ScanSet, sha256) -> None:
    """Save the sidecar of the CSV at path that `write_scans` wrote from
    scans, keyed by sha256, the hash it returned, so the first `ingest` of
    the file skips the parse.  The rows are saved in set order, in CSV units,
    the grid once."""
    keys = list(zip(*(getattr(scans, key).tolist() for key in ScanSet.KEYS)))
    sizes = np.full(len(scans), scans.grid.size, dtype=np.int64)
    # The values `write_scans` formats, so the rows a parse reads back.
    rows = (keys, sizes, np.degrees(scans.grid), scans.gains.ravel())
    _save_sidecar(os.fspath(path) + SIDECAR_SUFFIX, rows, sha256, os.path.getsize(path))


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
    cached = _load_sidecar(sidecar, sha256, before.st_size)
    if cached is not None:
        with contextlib.suppress(Exception):  # sidecar rows that do not build are a miss
            return _scan_set(*cached, sha256)
    try:
        keys, sizes, phi_deg, gain_db = _ingest_columnar(path)
    except _NotCanonical:
        keys, sizes, phi_deg, gain_db = _ingest_rows(path)
    after = os.stat(path)
    # A file changed while it was read may not match its hash.  The rows are
    # saved before the build converts them, scan 0's angles as the grid; a
    # failing build, a scan off that grid included, removes them.
    if (before.st_ino, before.st_size, before.st_mtime_ns) == (
            after.st_ino, after.st_size, after.st_mtime_ns):
        _save_sidecar(sidecar, (keys, sizes, phi_deg[:sizes[0]], gain_db), sha256, after.st_size)
    try:
        return _scan_set(keys, sizes, phi_deg, gain_db, sha256)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(sidecar)
        raise


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


_CHUNK_ROWS = 1 << 11  # rows formatted per write: under a MB of floats and strings


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
