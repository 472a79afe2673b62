"""Canonical measurement CSV: schema, writer and validating reader.

One row per (tx, point, angle, vehicle state); synthetic and real data use
the same file format so every downstream statistic runs on either.  Angles
are serialized in degrees and gains in dB at full double precision
(shortest round-tripping decimal), and a ScanSet holds them in those units,
so a write/ingest cycle gives back the angles and the gains exactly.

Every emitted file starts with a '#' provenance comment (tool version, seed,
input hash) followed by the header row; files are written atomically, with
the mode the umask gives a newly created file.  `write_table` takes columns
and writes them `_CHUNK_ROWS` rows at a time; `write_scans` takes a ScanSet
and writes `_SCAN_BATCH` scans at a time, in set order, so no output exists
as one string.  `csvtext` formats each chunk into one bytes object (float
arrays in integer arithmetic, by `floatrepr`, and a chunk's NULs dropped by
one `bytes.translate`); it is imported on the first write, so a command that
writes nothing does not compile it.

`ingest` returns an `angular.ScanSet`: the tx ids, the key columns (codes
and floats), the one angle grid (the file's degrees), the (scans x angles)
gains matrix and the file's sha256; a file whose scans differ in angle
count, or in angle by more than `angular.GRID_MATCH_TOL` from scan 0's, is a
GridError that names the first scan that differs.  The file is read once, in
blocks of whole lines (`_BLOCK_BYTES`), after one leading UTF-8 byte-order
mark.  The lines to the header go through the row loop, csv record by
record.  Each block after it, LF or CRLF, quoted fields or not, is parsed by
one `np.loadtxt` and checked column-wise, and its phi_deg and gain_db go
into the result before the next is read, so the parse holds one block's
table.  A block those checks cannot vouch for (a bad value or token, a
quoted field over two lines, a bare CR, non-ASCII bytes, a comment row) goes
through the row loop alone, which names the line of an error.
`ScanSet.from_rows` builds the set of the rows as they are read, the keys as
ids and codes.

`ingest` keeps the set it built in a sidecar beside the input,
`<input>.scanset.npz` (see `sidecar`, imported on first use, so a command
that reads no CSV does not compile it), by three rules.  A hit: a sidecar
that holds the file's sha256 and builds is the result.  A change: a file
whose inode, size or mtime differ once the parse is done is an IngestError,
raised before the build, so no set names the hash of bytes never parsed.  A
failure: any error of the parse, that check or the build removes the
input's sidecar, a stale one too, so a failing ingest leaves none.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import hashlib
import itertools
import math
import os
import re
import tempfile

import numpy as np

from . import __version__
from .angular import ScanSet, Stacking, VehicleState
from .errors import IngestError

__all__ = [
    "CANONICAL_HEADER", "SIDECAR_SUFFIX", "write_scans", "ingest",
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


def write_scans(path, scans: ScanSet, seed=None) -> str:
    """Write a ScanSet to the canonical CSV, atomically and deterministically,
    `_SCAN_BATCH` scans per write, in set order.  Returns the sha256 of the
    bytes written, hashed as they are written."""
    from .csvtext import scan_rows

    head = (provenance_line(seed=seed) + "\n" + CANONICAL_HEADER + "\n").encode("utf-8")
    digest = hashlib.sha256()

    def write(fh):
        for data in itertools.chain([head], scan_rows(scans, _SCAN_BATCH)):
            digest.update(data)
            fh.write(data)

    _atomic_write(path, write)
    return digest.hexdigest()


# Bytes `np.loadtxt` splits into fields as csv does: printable ASCII, the
# quote included (a quoted field over two lines aside, `_plain_block` checks),
# LF, and CR as part of a CRLF line end only.  A block with any other byte
# (NUL, tab, non-ASCII) goes through the row loop.
_PLAIN_BYTES = bytes(range(0x20, 0x7F)) + b"\n\r"
# The file is read in blocks of _BLOCK_BYTES, small enough that one block's
# lines and table stay in the CPU caches; the partial line at a block's end
# is carried into the next.  A block that, with what it carries, is longer
# than _BLOCK_BYTES + _MAX_LINE_BYTES (a carried part over _MAX_LINE_BYTES,
# far longer than a canonical row of under 150 bytes) goes through the row
# loop.  So a line `np.loadtxt` takes is under the field size limit csv
# enforces in the row loop (131,072).
_BLOCK_BYTES = 1 << 16
_MAX_LINE_BYTES = 1 << 12
# The text key fields are parsed as fixed-width text, each field wider than
# the values it takes, so a block where one fills its width, and may have
# been truncated, goes through the row loop; x and y are parsed as numbers.
# Every width is a multiple of 8, so rows compare keys as the 8-byte words
# outside phi_deg and gain_db, much faster than numpy compares strings.
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
# A line and its end, as csv reads a file opened with newline="": an LF, a
# CRLF or a bare CR ends a line.
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _skipped(row) -> bool:
    """Is a csv record blank or a comment, which ingest skips?"""
    return not row or row[0].startswith("#")


def _record(row, at):
    """The key, phi_deg and gain_db of the data record on line at, checked field by field."""
    if len(row) != len(CANONICAL_FIELDS):
        raise IngestError(f"line {at}: expected {len(CANONICAL_FIELDS)} columns, got {len(row)}")
    tx_id, *numbers, vehicle_s, stacking_s = row
    if not tx_id:
        raise IngestError(f"line {at}: empty tx_id")
    for i, (token, column) in enumerate(zip(row[1:5], CANONICAL_FIELDS[1:5])):
        try:
            numbers[i] = float(token)
        except ValueError:
            raise IngestError(f"line {at}: {column} is not a number: {token!r}") from None
        if not math.isfinite(numbers[i]):
            raise IngestError(f"line {at}: {column} must be finite, got {token!r}")
    if vehicle_s not in _VEHICLE_TOKENS:
        raise IngestError(f"line {at}: unknown vehicle_state {vehicle_s!r}")
    if stacking_s not in _STACKING_TOKENS:
        raise IngestError(f"line {at}: unknown stacking {stacking_s!r}")
    x, y, phi, gain = numbers
    return (tx_id, x, y, vehicle_s, stacking_s), phi, gain


def _valid_key(*key) -> bool:
    """Would the row loop read a record with this scan key as data?"""
    with contextlib.suppress(IngestError):
        return not _skipped(key) and bool(_record([*key[:3], 0.0, 0.0, *key[3:]], 0))
    return False


def _texts(path):
    """(text, final) blocks of whole lines of the file after one leading UTF-8
    byte-order mark: each `_BLOCK_BYTES` read is decoded and cut after its
    last line end, the rest (with a CR that ends it, maybe a CRLF's) carried
    into the next; the final text is the rest of the file, maybe "".  Bad
    UTF-8 is an IngestError, raised after the whole lines before it, so that
    an error in those comes first."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    parts = []
    try:
        with open(path, "rb") as fh:
            if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
                fh.seek(0)
            for block in iter(lambda: fh.read(_BLOCK_BYTES), b""):
                parts.append(decode(block))
                if "\n" in parts[-1] or "\r" in parts[-1]:
                    text = "".join(parts)
                    cut = max(text.rfind("\n"), text.rfind("\r", 0, len(text) - 1)) + 1
                    parts = [text[cut:]]
                    if cut:
                        yield text[:cut], False
            parts.append(decode(b"", final=True))
    except UnicodeDecodeError as exc:
        text = "".join(parts) + exc.object[:exc.start].decode("utf-8")
        yield text[:max(text.rfind("\n"), text.rfind("\r")) + 1], False
        raise IngestError(f"file is not valid UTF-8 text: {exc.reason}") from None
    yield "".join(parts), True


def _plain_block(body):
    """(rows, lines) of data lines that one `np.loadtxt` parses as csv would,
    every value and key passing, checked column-wise; None for anything
    else.  Rows are as `_blocks` yields them, a run for each key."""
    if (len(body) > _BLOCK_BYTES + _MAX_LINE_BYTES or not body.isascii()
            or body.encode("ascii").translate(None, _PLAIN_BYTES)):
        return None
    if "\r" in body:  # `in` scans a block far faster than str.replace
        body = body.replace("\r\n", "\n")
        if "\r" in body:
            return None
    lines = body.split("\n")
    count, data = len(lines) - (lines[-1] == ""), len(lines) - lines.count("")
    if not data:
        return (), count
    try:
        table = np.loadtxt(lines, dtype=_COLUMNS, delimiter=",", comments=None, quotechar='"',
                           encoding="ascii", ndmin=1)
    except ValueError:
        return None
    # loadtxt joins a line that ends inside a quoted field to the next, as csv
    # does but without the LF, so it leaves a row short; csv reads the last.
    last = next(line for line in reversed(lines) if line) + "\n"
    if table.size != data or ('"' in last and sum(1 for _ in csv.reader([last, "\n"])) < 2):
        return None
    # Text compares as bytes: the padding is NUL, which a plain block lacks.
    words = table.view(np.uint64).reshape(table.size, -1)[:, _KEY_WORDS]
    starts = np.flatnonzero(np.r_[True, np.any(words[1:] != words[:-1], axis=1)])
    keys = [(tx.decode("ascii"), x, y, vehicle.decode("ascii"), stacking.decode("ascii"))
            for tx, x, y, vehicle, stacking in zip(*(table[name][starts].tolist()
                                                     for name in _KEY_FIELDS))]
    phi, gain = table["phi_deg"], table["gain_db"]
    if (not (np.isfinite(phi).all() and np.isfinite(gain).all())
            or any(len(key[0]) == _TX_WIDTH or not _valid_key(*key) for key in keys)):
        return None
    return (keys, starts, phi, gain, None), count


def _csv_block(body, header, line_no, final):
    """The row loop: body's csv records, its lines after line line_no, each
    checked, the header first unless header.  Returns (header, lines taken,
    the text after them, rows as `_blocks` yields them, one run a row, and
    the IngestError that stopped the loop): the loop stops after the header
    and leaves a record open at body's end, unless final."""
    lines = _LINE.findall(body)
    # A record that ends on the sentinel line, or with it, was open.
    reader = csv.reader(lines if final else lines + ["\n"])
    rows, done, error = [], 0, None
    try:
        for row in reader:
            if reader.line_num > len(lines):
                break
            done = reader.line_num
            at = line_no + done
            if _skipped(row):
                continue
            if not header:
                if row != list(CANONICAL_FIELDS):
                    raise IngestError(f"line {at}: header must be exactly {CANONICAL_HEADER!r}")
                header = True
                break
            rows.append((*_record(row, at), at))
    except csv.Error as exc:
        error = IngestError(f"line {line_no + reader.line_num}: {exc}")
    except IngestError as exc:
        error = exc
    if rows:
        keys, phi, gain, at = zip(*rows)
        rows = keys, range(len(keys)), phi, gain, at
    return header, done, "".join(lines[done:]), rows, error


def _blocks(path, columnar=True):
    """The file's data rows, from one read of its text (`_texts`), as (run
    keys, run starts, phi_deg, gain_db, the rows' lines or None) a block:
    the lines to the header through the row loop, then each block through
    `_plain_block` if columnar and it vouches for the block, else the row
    loop, which yields the rows before an error, then raises it."""
    header, line_no, carried = False, 0, ""
    for text, final in _texts(path):
        body = carried + text
        if not header:
            header, lines, body, _, error = _csv_block(body, header, line_no, final)
            line_no += lines
            if error:
                raise error
        plain = columnar and header and _plain_block(body)
        if plain:
            (rows, lines), carried, error = plain, "", None
        else:
            header, lines, carried, rows, error = _csv_block(body, header, line_no, final)
        line_no += lines
        if rows:
            yield rows
        if error:
            raise error
    if not header:
        raise IngestError("file has no header row")


def _duplicate_angle(path, row) -> IngestError:
    """The error of data row `row` (in file order), whose angle an earlier
    row of its scan has: a second pass, through the row loop, for its line."""
    for keys, _, phi, _, lines in _blocks(path, columnar=False):
        if row < len(keys):
            return IngestError(f"line {lines[row]}: duplicate angle {phi[row]} deg "
                               f"for scan {keys[row]}")
        row -= len(keys)
    return IngestError("file changed while it was read")


def _ingest_columnar(path):
    """The rows `ScanSet.from_rows` takes, from one read of the file (`_blocks`):
    the keys as tx ids, first seen first, and code columns.

    Rows go into the result columns block by block.  Runs of rows with one
    key are grouped by first-seen key, so a run at x -0.0 joins one at 0.0
    and a scan split across the file is rejoined, and each scan's rows are
    sorted by angle; rows that come one run a scan with rising angles, as
    written, are not.  The first error in file order is raised: an angle a
    scan repeats before the read's error, if any, first.
    """
    # Room for every row a file of this size can hold; pages no row reaches
    # are never touched.  Every row that passes takes _MIN_ROW_BYTES or more.
    capacity = os.path.getsize(path) // _MIN_ROW_BYTES + 1
    phi, gain = np.empty(capacity), np.empty(capacity)
    keys, starts, rows, error = [], [], 0, None
    try:
        for run_keys, run_starts, block_phi, block_gain, _ in _blocks(path):
            if rows + len(block_phi) > capacity:  # the file grew while it was read
                raise IngestError("file changed while it was read")
            phi[rows:rows + len(block_phi)] = block_phi
            gain[rows:rows + len(block_phi)] = block_gain
            for key, start in zip(run_keys, run_starts):
                if not keys or key != keys[-1]:
                    keys.append(key)
                    starts.append(rows + start)
            rows += len(block_phi)
    except IngestError as exc:
        error = exc
    if not keys:
        raise error or IngestError("file contains no measurement rows")
    phi, gain, starts = phi[:rows], gain[:rows], np.array(starts)
    group_ids: dict[tuple, int] = {}
    run_group = [group_ids.setdefault(key, len(group_ids)) for key in keys]
    sizes = np.diff(starts, append=phi.size)
    rising = phi[1:] > phi[:-1]
    rising[starts[1:] - 1] = True
    if len(group_ids) < len(keys) or not rising.all():
        row_group = np.repeat(run_group, sizes)
        by_group = np.lexsort((phi, row_group))
        phi, gain = phi[by_group], gain[by_group]
        sizes = np.bincount(row_group)
        repeated = phi[1:] == phi[:-1]
        repeated[np.cumsum(sizes)[:-1] - 1] = False
        if repeated.any():
            raise _duplicate_angle(path, by_group[1:][repeated].min())
    if error:
        raise error
    return ScanSet.key_columns(group_ids), sizes, phi, gain


SIDECAR_SUFFIX = ".scanset.npz"


def ingest(path) -> ScanSet:
    """Read and validate a canonical measurement CSV into a ScanSet.

    Rows are grouped by (tx, x, y, vehicle state, stacking) and sorted by
    angle; duplicate angles within a group and malformed rows are rejected
    with their line number, and each group's grid must be uniform over one
    full rotation.  The file's text is read once (see the module
    docstring).  The set's `sha256` is the file's.

    The set is kept in the sidecar `<path>.scanset.npz`, by the module
    docstring's three rules: hit, change and failure.
    """
    from . import sidecar

    before = os.stat(path)
    sha256 = file_sha256(path)
    sidecar_path = os.fspath(path) + SIDECAR_SUFFIX
    scans = sidecar.load(sidecar_path, sha256, before.st_size)
    if scans is not None:
        return scans
    try:
        rows = _ingest_columnar(path)
        after = os.stat(path)
        # A file changed while it was read may not match its hash.
        if (before.st_ino, before.st_size, before.st_mtime_ns) != (
                after.st_ino, after.st_size, after.st_mtime_ns):
            raise IngestError("file changed while it was read")
        scans = ScanSet.from_rows(*rows, sha256)
    except BaseException:
        sidecar.remove(sidecar_path)
        raise
    sidecar.save(path, scans, sha256)
    return scans


# Table rows formatted per write: a CDF table's chunk is 2,048-3,072 floats,
# 16-24 KB a pass of the formatter.  At 2,048 rows a write left the chunks'
# heap resident (`tests/test_dataio.py::test_table_write_peak_is_flat`).
_CHUNK_ROWS = 1 << 10
_SCAN_BATCH = 8  # scans formatted per write


def write_table(path, header, columns, input_hash=None) -> None:
    """Write a plot-ready CSV table with the provenance comment and header.

    `columns` holds one sequence per header field, all of one length.
    """
    from .csvtext import table_rows

    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
    rows = len(columns[0])
    if any(len(col) != rows for col in columns):
        raise ValueError(f"columns of {sorted({len(col) for col in columns})} rows")

    def chunks():
        yield (provenance_line(input_hash=input_hash) + "\n").encode("utf-8")
        yield table_rows([[name] for name in header])
        for start in range(0, rows, _CHUNK_ROWS):
            yield table_rows([col[start:start + _CHUNK_ROWS] for col in columns])

    _atomic_write(path, lambda fh: fh.writelines(chunks()))
