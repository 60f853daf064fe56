"""The CSV format of every table the package writes.

Integer and string cells are written with ``str``.  Every other cell is
written as ``repr(float(cell))``, the shortest text that reads back as the
same double, so each float cell round-trips exactly.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["write_table"]


def _cell(value) -> str:
    if type(value) is float:
        return repr(value)
    if isinstance(value, (int, str, numbers.Integral)):  # int first: the ABC check is slow
        return str(value)
    return repr(float(value))


def write_table(fh, columns, header: bool = True) -> None:
    """Write ``columns``, an ordered map from column name to cells, as CSV to ``fh``.

    The header line of column names comes first unless ``header`` is
    false.  Raises ValueError when the columns differ in length.
    """
    cells = [col.tolist() if isinstance(col, np.ndarray) else list(col)
             for col in columns.values()]
    if len({len(col) for col in cells}) > 1:
        lengths = {name: len(col) for name, col in zip(columns, cells)}
        raise ValueError(f"columns differ in length: {lengths}")
    if header:
        fh.write(",".join(columns) + "\n")
    for row in zip(*cells):
        fh.write(",".join(map(_cell, row)) + "\n")
