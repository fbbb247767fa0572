"""The result-file formats, decided once.

Every file bbmlab writes goes through one of these two functions.  JSON
documents have indent 2, sorted keys and a final newline.  CSV tables have
a header row, then one row per record whose cells are the str() of Python
scalars: numpy columns are turned into lists first, so a float cell is its
shortest round-trip repr (never a numpy repr such as `np.float64(...)`).
Tables are formatted a column at a time, in blocks of rows that hold about
CELLS_PER_BLOCK cells (at least one row), so the text of a table, long or
wide, is built one block at a time and never held whole.
"""

from __future__ import annotations

import json

CELLS_PER_BLOCK = 3 << 16


def write_json(path, payload) -> str:
    """Write payload as a JSON document; returns the path as a string."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def _cells(column):
    """The cells of a block of one column (numpy array or list) as text."""
    return map(str, column.tolist() if hasattr(column, "tolist") else column)


def write_csv(path, header, columns) -> str:
    """Write equal-length columns (numpy arrays or lists) under the header
    names; returns the path as a string."""
    n_rows = min((len(c) for c in columns), default=0)
    rows = max(1, CELLS_PER_BLOCK // max(1, len(columns)))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, rows):
            block = [_cells(c[start:start + rows]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")
    return str(path)
