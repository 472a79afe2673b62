"""The bytes of CSV rows, a chunk at a time, for `dataio`'s writers.

`table_rows(columns)` gives the lines of a table's columns and
`scan_rows(scans, batch)` the canonical rows of a ScanSet, `batch` scans at
a time, each chunk as one uint8 array.  Every field of a row fills a slot of
fixed width, NUL where it has no byte, and one mask drops the NULs
(`_joined`).  A float array is formatted whole by `floatrepr` (the bytes of
each value's `repr`, in integer arithmetic; the module is imported on the
first such chunk), an int array by numpy's int-to-bytes cast (`str`), and
anything else value by value by `_cell`: csv's minimal quoting of text, `str`
of an int and `repr` of a float.

`dataio` imports this module on its first write, not with itself: each CLI
child compiles the source it imports, and the commands that write no table
(`geometry`, `--print-default-config`) would pay this code's compile peak
too.
"""

import numpy as np

from .angular import ScanSet, Stacking, VehicleState

__all__ = ["table_rows", "scan_rows"]


def _cell(value) -> str:
    """One CSV field: text quoted as csv's QUOTE_MINIMAL does (CR too)."""
    if isinstance(value, str):
        if "," in value or '"' in value or "\n" in value or "\r" in value:
            return '"' + value.replace('"', '""') + '"'
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


# A float field is the `floatrepr.WORDS` words of its repr, an int field
# numpy's cast to `_INT_WIDTH` bytes, anything else the UTF-8 of `_cell` and
# its length, since such text may hold a NUL itself.
_INT_WIDTH = 20  # len(str(-2 ** 63)), len(str(2 ** 64 - 1))
_COMMA, _NEWLINE = np.frombuffer(b",", np.uint8), np.frombuffer(b"\n", np.uint8)


def _text_field(texts):
    """(bytes, lengths) of a field's texts, UTF-8 in NUL-padded slots."""
    encoded = [text.encode("utf-8") for text in texts]
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    data = np.array(encoded, dtype=bytes)
    return data.view(np.uint8).reshape(len(encoded), data.itemsize), lengths


def _joined(shape, fields):
    """The rows of the given shape as bytes, a uint8 array: fields are
    (bytes, lengths) that broadcast to shape + (width,) and shape.  Where
    lengths is None, the non-NUL bytes of a slot are the field's; else its
    first lengths bytes."""
    widths = [data.shape[-1] for data, _ in fields]
    table = np.empty(shape + (sum(widths),), np.uint8)
    at, texts = 0, []
    for (data, lengths), width in zip(fields, widths):
        table[..., at:at + width] = data
        if lengths is not None:
            texts.append((at, width, lengths))
        at += width
    keep = table != 0
    for at, width, lengths in texts:
        np.less(np.arange(width), lengths[..., None], out=keep[..., at:at + width])
    return np.compress(keep.ravel(), table)


def table_rows(columns):
    """The CSV lines of columns, sequences of one length, as bytes."""
    rows = len(columns[0])
    floats = [i for i, col in enumerate(columns)
              if isinstance(col, np.ndarray) and col.dtype.kind == "f"]
    if floats:  # one call for all of them
        from .floatrepr import WORDS, format_floats

        words = np.empty((rows, len(floats), WORDS), "<u8")
        format_floats(np.stack([columns[i] for i in floats], axis=1).ravel(),
                      words.reshape(-1, WORDS))
        float_fields = dict(zip(floats, words.view(np.uint8).transpose(1, 0, 2)))
    fields = []
    for i, col in enumerate(columns):
        if i in floats:
            fields.append((float_fields[i], None))
        elif isinstance(col, np.ndarray) and col.dtype.kind in "iu":
            fields.append((col.astype(f"S{_INT_WIDTH}").view(np.uint8).reshape(rows, _INT_WIDTH),
                           None))
        else:
            texts = list(map(_cell, col))
            if len(columns) == 1:  # csv writes a lone empty field as "", not a blank line
                texts = ['""' if text == "" else text for text in texts]
            fields.append(_text_field(texts))
        fields.append((_COMMA, None))
    fields[-1] = (_NEWLINE, None)
    return _joined((rows,), fields)


def scan_rows(scans: ScanSet, batch):
    """The canonical CSV rows of the set's scans, batch scans a bytes array,
    in set order: the grid's phi_deg is formatted once, each id's cell and
    each (state, stacking) pair's text once, each scan's key text once."""
    from .floatrepr import WORDS, format_floats

    n = scans.grid.size
    phi = bytes(table_rows([scans.grid])).split(b"\n")[:-1]
    phi = np.array([cell + b"," for cell in phi])
    phi = phi.view(np.uint8).reshape(n, phi.itemsize)
    tx = np.array([_cell(tx) for tx in scans.tx_ids], dtype=object)
    pair, pair_lengths = _text_field([f",{v.value},{s.value}\n" for v in VehicleState
                                      for s in Stacking])
    for start in range(0, len(scans), batch):
        part = slice(start, start + batch)
        gains = np.empty(scans.gains[part].shape + (WORDS,), "<u8")
        format_floats(scans.gains[part].ravel(), gains.reshape(-1, WORDS))
        # Each scan's key text, before and after its rows' phi and gain.
        prefix, lengths = _text_field([f"{cell},{x!r},{y!r}," for cell, x, y in zip(
            tx[scans.tx_code[part]], scans.x[part].tolist(), scans.y[part].tolist())])
        pairs = scans.state_code[part] * len(Stacking) + scans.stacking_code[part]
        suffix = pair[pairs, None, :pair_lengths[pairs].max()]  # as wide as the batch needs
        yield _joined((len(gains), n), [(prefix[:, None], lengths[:, None]), (phi, None),
                                        (gains.view(np.uint8), None),
                                        (suffix, pair_lengths[pairs, None])])
