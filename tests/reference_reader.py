"""The row-by-row reference reader the agreement tests compare `ingest` with.

`ingest_rows(path)` reads a canonical CSV with `csv.reader`, one record at a
time, and holds every scan's angles and gains in a dict of Python floats:
the plainest statement of the reader's rules (header, byte-order mark,
comments, keys, grouping, sort, duplicates) and of every line-numbered
error.  It returns the rows `ScanSet.from_rows` takes (the keys by
`scansets.key_columns`), in the file's units
(angles in degrees, gains in dB), scans in first-seen order.  An error
names the physical line the record ends on (csv's `line_num`), so a quoted
field that spans lines counts each of its lines.
"""

import csv
import itertools
import math
from collections import defaultdict

import numpy as np
from scansets import key_columns

from portcanyon.angular import Stacking, VehicleState
from portcanyon.dataio import CANONICAL_HEADER
from portcanyon.errors import IngestError

CANONICAL_FIELDS = tuple(CANONICAL_HEADER.split(","))
_VEHICLE_TOKENS = {v.value for v in VehicleState}
_STACKING_TOKENS = {s.value for s in Stacking}


def _parse_float(token: str, column: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise IngestError(f"line {line_no}: {column} is not a number: {token!r}")
    if not math.isfinite(value):
        raise IngestError(f"line {line_no}: {column} must be finite, got {token!r}")
    return value


def _csv_rows(reader):
    """The records of a csv.reader over a text file, with a decoding failure
    or a csv error (a field over csv's size limit) as an IngestError."""
    try:
        yield from reader
    except UnicodeDecodeError as exc:
        raise IngestError(f"file is not valid UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise IngestError(f"line {reader.line_num}: {exc}") from None


def ingest_rows(path):
    """Row-by-row reader: the reference semantics and every ingest error.
    Returns the rows `ScanSet.from_rows` takes, scans in first-seen order."""
    groups: dict[tuple, dict[float, float]] = defaultdict(dict)
    order: list[tuple] = []

    # utf-8-sig drops one leading byte-order mark, as Windows tools write it.
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header_seen = False
        for row in _csv_rows(reader):
            line_no = reader.line_num
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
    return (key_columns(order), list(map(len, phis)), np.array(list(itertools.chain(*phis))),
            np.array(gains))
