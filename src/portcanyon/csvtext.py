"""The bytes of CSV rows, a chunk at a time, for `dataio`'s writers.

`table_rows(columns)` gives the lines of a table's columns and
`scan_rows(scans, batch)` the canonical rows of a ScanSet, `batch` scans at
a time, each chunk as one bytes object.  Every field of a row fills a slot
of fixed width, NUL where it has no byte, and ends in the `,` or `\n` after
it; one `bytes.translate` drops the NULs (`_joined`).  A float array is
formatted whole by `floatrepr` (the bytes of each value's `repr`, in integer
arithmetic; the module is imported on the first such chunk) into rows whose
last byte takes the separator, so the rows of a table of floats are its
chunk; an int array by numpy's int-to-bytes cast (`str`), and anything else
value by value by `_cell`: csv's minimal quoting of text, `str` of an int
and `repr` of a float.  Only a text that holds a NUL itself makes its chunk
keep the texts' lengths and drop the NULs by a mask.

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


# Every field's slot ends in its separator, ',' or '\n': a float field is
# the `floatrepr.WORDS` words of its repr, whose last byte is always NUL, and
# an int field numpy's cast to `_INT_WIDTH` bytes, its last byte NUL too;
# the separator takes that byte.  Anything else is the UTF-8 of `_cell` and
# the separator, with the texts' lengths if one of them holds a NUL itself.
_INT_WIDTH = 21  # len(str(-2 ** 63)), len(str(2 ** 64 - 1)), and the separator
_COMMA, _NEWLINE = ord(","), ord("\n")


def _text_field(texts):
    """(bytes, lengths) of a field's texts, UTF-8 in NUL-padded slots;
    lengths is None if no text holds a NUL."""
    encoded = [text.encode("utf-8") for text in texts]
    data = np.array(encoded, dtype=bytes)
    lengths = None
    if b"\0" in b"".join(encoded):
        lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    return data.view(np.uint8).reshape(len(encoded), data.itemsize), lengths


def _joined(shape, fields):
    """The rows of the given shape as bytes: fields are (bytes, lengths),
    bytes that broadcast to shape + (width,) and lengths None or one per slot
    of bytes.  The non-NUL bytes of a slot are the field's, or its first
    lengths bytes where lengths is not None.  A lone field, of shape +
    (width,), is the table itself; the table's NULs go in one
    `bytes.translate`, unless a field has lengths."""
    widths = [data.shape[-1] for data, _ in fields]
    if len(fields) == 1:
        table = fields[0][0]
    else:
        table = np.empty(shape + (sum(widths),), np.uint8)
        at = 0
        for (data, _), width in zip(fields, widths):
            table[..., at:at + width] = data
            at += width
    if all(lengths is None for _, lengths in fields):
        return table.tobytes().translate(None, b"\0")
    keep = table != 0
    at = 0
    for (data, lengths), width in zip(fields, widths):
        if lengths is not None:
            np.less(np.arange(width), lengths.reshape(data.shape[:-1] + (1,)),
                    out=keep[..., at:at + width])
        at += width
    return np.compress(keep.ravel(), table).tobytes()


def table_rows(columns):
    """The CSV lines of columns, sequences of one length, as bytes."""
    rows, last = len(columns[0]), len(columns) - 1
    floats = [i for i, col in enumerate(columns)
              if isinstance(col, np.ndarray) and col.dtype.kind == "f"]
    if floats:  # one call for all of them
        from .floatrepr import WORDS, format_floats

        words = np.empty((rows, len(floats), WORDS), "<u8")
        format_floats(np.stack([columns[i] for i in floats], axis=1).ravel(),
                      words.reshape(-1, WORDS))
        slots = words.view(np.uint8)
        slots[..., -1] = _COMMA
        if floats[-1] == last:
            slots[:, -1, -1] = _NEWLINE
        if len(floats) == len(columns):  # the words are the table
            return _joined((rows,), [(slots.reshape(rows, len(floats) * 8 * WORDS), None)])
        float_fields = dict(zip(floats, slots.transpose(1, 0, 2)))
    fields = []
    for i, col in enumerate(columns):
        if i in floats:
            fields.append((float_fields[i], None))
        elif isinstance(col, np.ndarray) and col.dtype.kind in "iu":
            data = col.astype(f"S{_INT_WIDTH}").view(np.uint8).reshape(rows, _INT_WIDTH)
            data[:, -1] = _NEWLINE if i == last else _COMMA
            fields.append((data, None))
        else:
            texts = list(map(_cell, col))
            if len(columns) == 1:  # csv writes a lone empty field as "", not a blank line
                texts = ['""' if text == "" else text for text in texts]
            separator = "\n" if i == last else ","
            fields.append(_text_field([text + separator for text in texts]))
    return _joined((rows,), fields)


def scan_rows(scans: ScanSet, batch):
    """The canonical CSV rows of the set's scans, batch scans a bytes object,
    in set order: the grid's phi_deg is formatted once, each id's cell and
    each (state, stacking) pair's text once, each scan's key text once."""
    from .floatrepr import WORDS, format_floats

    n = scans.grid.size
    phi = np.array([cell + b"," for cell in table_rows([scans.grid]).split(b"\n")[:-1]])
    phi = phi.view(np.uint8).reshape(n, phi.itemsize)
    tx = np.array([_cell(tx) for tx in scans.tx_ids], dtype=object)
    pair, _ = _text_field([f"{v.value},{s.value}\n" for v in VehicleState for s in Stacking])
    pair_widths = np.count_nonzero(pair, axis=1)
    for start in range(0, len(scans), batch):
        part = slice(start, start + batch)
        gains = np.empty(scans.gains[part].shape + (WORDS,), "<u8")
        format_floats(scans.gains[part].ravel(), gains.reshape(-1, WORDS))
        gains = gains.view(np.uint8)
        gains[..., -1] = _COMMA
        # Each scan's key text, before and after its rows' phi and gain.
        prefix, lengths = _text_field([f"{cell},{x!r},{y!r}," for cell, x, y in zip(
            tx[scans.tx_code[part]], scans.x[part].tolist(), scans.y[part].tolist())])
        pairs = scans.state_code[part] * len(Stacking) + scans.stacking_code[part]
        suffix = pair[pairs, None, :pair_widths[pairs].max()]  # as wide as the batch needs
        yield _joined((len(gains), n), [(prefix[:, None], lengths), (phi, None), (gains, None),
                                        (suffix, None)])
