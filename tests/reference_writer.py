"""The per-value table writer the byte-equality tests compare `dataio`'s with
where csv.writer cannot: Python 3.11's csv.writer leaves a CR unquoted.

`lines(columns)` is the CSV text of a table's columns, one Python string
per field: float arrays by `repr` of each value, int arrays by `str`,
anything else by `csvtext._cell`, the fields of each row joined by ",".
`table_bytes` is the whole file `dataio.write_table` writes, built from such
strings.
"""

import numpy as np

from portcanyon.csvtext import _cell
from portcanyon.dataio import provenance_line


def lines(columns) -> str:
    """CSV lines of columns: float arrays by `repr`, int arrays by `str`, else `_cell`."""
    fields = [
        map(repr if col.dtype.kind == "f" else str, col.tolist())
        if isinstance(col, np.ndarray) and col.dtype.kind in "fiu" else map(_cell, col)
        for col in columns
    ]
    if len(fields) == 1:  # csv writes a lone empty field as "", not a blank line
        fields = [['""' if f == "" else f for f in fields[0]]]
    return "\n".join(map(",".join, zip(*fields, strict=True))) + "\n"


def table_bytes(header, columns, input_hash=None) -> bytes:
    """The bytes `write_table(path, header, columns, input_hash)` writes."""
    text = provenance_line(input_hash=input_hash) + "\n" + lines([[name] for name in header])
    if len(columns[0]):
        text += lines(columns)
    return text.encode("utf-8")
