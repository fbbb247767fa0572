"""The result-file formats, decided once.

Every file bbmlab writes goes through one of these two functions.  JSON
documents have indent 2, sorted keys and a final newline.  CSV tables have
a header row, then one row per record whose cells are the str() of Python
scalars: numpy columns are turned into lists first, so a float cell is its
shortest round-trip repr (never a numpy repr such as `np.float64(...)`).
"""

from __future__ import annotations

import json


def write_json(path, payload) -> str:
    """Write payload as a JSON document; returns the path as a string."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return str(path)


def write_csv(path, header, columns) -> str:
    """Write equal-length columns (numpy arrays or lists) under the header
    names; returns the path as a string."""
    cols = [c.tolist() if hasattr(c, "tolist") else c for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in zip(*cols))
    return str(path)
