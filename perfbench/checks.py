"""Output checks: provenance-free digests, table invariants, percentile rule.

Everything here is pure stdlib and works on bytes already read from disk, so
the checks can run after a timed command without touching the program.
"""

from __future__ import annotations

import hashlib
import io
import math

CANONICAL_HEADER = b"tx_id,x_m,y_m,phi_deg,gain_db,vehicle_state,stacking"
VEHICLE_TOKENS = {b"absent", b"position1", b"position2"}
STACKING_TOKENS = {b"uniform", b"nonuniform"}


def normalized(data: bytes) -> bytes:
    """File bytes with every line that starts with '#' dropped.

    The '#' lines carry provenance (tool version, seed, input hash), which a
    change to the provenance format may alter without changing any result.
    """
    if not data.startswith(b"#") and b"\n#" not in data:
        return data
    return b"".join(
        line for line in data.splitlines(keepends=True) if not line.startswith(b"#")
    )


def digest(data: bytes) -> str:
    """sha256 of the provenance-free bytes."""
    return hashlib.sha256(normalized(data)).hexdigest()


def tail_percentile(values, beyond: int = 10):
    """Highest percentile with at least `beyond` samples above it.

    Returns (percentile, value) using the nearest-rank definition, or None
    when there are too few samples (fewer than beyond + 1).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < beyond + 1:
        return None
    rank = n - beyond  # 1-based; exactly `beyond` samples lie above it
    return 100.0 * rank / n, ordered[rank - 1]


def _float(token: str):
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _nondecreasing(values) -> bool:
    return all(a <= b for a, b in zip(values, values[1:]))


def table_problems(data: bytes, columns, rows=None, text_cols=(), monotone=(),
                   ends_at_one=()):
    """Check one CSV table written by the CLI.

    Every cell outside `text_cols` must be a finite number; columns listed in
    `monotone` must be non-decreasing (a CDF's values and probabilities), and
    the last value of each column in `ends_at_one` must be 1.  Returns
    (problems, numeric columns by name).
    """
    problems = []
    lines = normalized(data).decode("utf-8").splitlines()
    if not lines or lines[0] != ",".join(columns):
        return [f"header is not {','.join(columns)!r}"], {}
    body = lines[1:]
    if rows is not None and len(body) != rows:
        problems.append(f"{len(body)} rows, expected {rows}")
    numeric = [i for i in range(len(columns)) if columns[i] not in text_cols]
    cols = {columns[i]: [] for i in numeric}
    for line_no, line in enumerate(body, start=2):
        cells = line.split(",")
        if len(cells) != len(columns):
            problems.append(f"line {line_no}: {len(cells)} cells")
            break
        for i in numeric:
            value = _float(cells[i])
            if value is None:
                problems.append(f"line {line_no}: {columns[i]}={cells[i]!r} not finite")
                return problems, {}
            cols[columns[i]].append(value)
    for name in monotone:
        if not _nondecreasing(cols[name]):
            problems.append(f"{name} is not non-decreasing")
    for name in ends_at_one:
        if not cols[name] or abs(cols[name][-1] - 1.0) > 1e-12:
            problems.append(f"{name} does not end at 1")
    return problems, cols


def campaign_problems(data: bytes, rows: int):
    """Check a canonical campaign CSV: header, row count, finite values, tokens."""
    problems = []
    lines = io.BytesIO(normalized(data))
    if lines.readline().rstrip(b"\n") != CANONICAL_HEADER:
        return ["header is not the canonical header"]
    count = 0
    for count, line in enumerate(lines, start=1):
        cells = line.rstrip(b"\n").split(b",")
        if (
            len(cells) != 7
            or not cells[0]
            or any(_float(c) is None for c in cells[1:5])
            or cells[5] not in VEHICLE_TOKENS
            or cells[6] not in STACKING_TOKENS
        ):
            problems.append(f"row {count}: malformed {line.strip()!r}")
            break
    if count != rows:
        problems.append(f"{count} rows, expected {rows}")
    return problems
