"""Deterministic CSV output of columnar tables.

A :class:`Table` is an ordered map from column names to 1-D columns of
equal length.  :func:`emit_csv` writes it with one ``%``-template per
table, choosing each column's format from its NumPy dtype kind:

* ``f`` (float): ``%.17g``, 17 significant digits, so parsing a value back
  reproduces its exact bits (``nan``, ``inf`` and ``-0`` included);
* ``i``, ``u``, ``b`` (integer, unsigned, bool): ``%d``, so a bool is
  written ``1`` or ``0``;
* any other kind (strings, objects): ``str(v)``, quoted when needed.

Everything else follows RFC 4180: a header row, comma separators, CRLF
line ends, and double quotes only around a header or string cell that
holds a comma, a quote or a line break.  Data files never contain
timestamps, keeping byte-for-byte determinism for fixed (config, seed).
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["Table", "emit_csv"]

_FORMATS = {"f": "%.17g", "i": "%d", "u": "%d", "b": "%d"}


class Table:
    """Named 1-D columns of equal length, in the order given.

    ``len(table)`` is the row count.  Columns of unequal length raise
    ``ValueError`` rather than being truncated to the shortest.
    """

    __slots__ = ("columns",)

    def __init__(self, **columns):
        self.columns = {name: np.asarray(col) for name, col in columns.items()}
        lengths = {name: col.shape for name, col in self.columns.items()}
        if any(len(shape) != 1 for shape in lengths.values()):
            raise ValueError(f"table columns must be 1-D, got shapes {lengths}")
        if len({shape[0] for shape in lengths.values()}) > 1:
            raise ValueError(f"table columns differ in length: {lengths}")

    def __len__(self) -> int:
        return next(iter(self.columns.values())).shape[0] if self.columns else 0

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]


def _quote(s: str) -> str:
    if any(ch in s for ch in (",", '"', "\n", "\r")):
        return '"' + s.replace('"', '""') + '"'
    return s


def emit_csv(table: Table, path) -> None:
    """Write ``table`` as CSV; an empty table still gets its header row."""
    formats, cells = [], []
    for col in table.columns.values():
        fmt = _FORMATS.get(col.dtype.kind)
        if fmt is None:
            formats.append("%s")
            cells.append([_quote(str(v)) for v in col.tolist()])
        else:
            formats.append(fmt)
            cells.append(col.tolist())
    tmpl = ",".join(formats) + "\r\n"
    header = ",".join(_quote(name) for name in table.columns) + "\r\n"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(header + "".join(tmpl % r for r in zip(*cells)))
