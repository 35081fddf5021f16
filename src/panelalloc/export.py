"""The CSV writer: every output file is a table of named columns.

Every file starts with a single '#' comment line recording the resolved
configuration, so results stay auditable without a side channel.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np


def write_csv(path: str | Path, comment: str, columns: dict[str, Sequence]) -> Path:
    """Write named equal-length columns as CSV, 4096 rows at a time.

    A column is a numpy array, whose ``tolist()`` gives Python values, or a
    list or range of Python values. A float is written as its repr, anything
    else (an int, a str) as its str. One ``str.format`` per row writes them,
    and memory stays flat in the row count.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data, rows = list(columns.values()), 4096
    line = ",".join(["{}"] * len(data)) + "\n"
    with path.open("w", encoding="utf-8") as f:
        f.write(f"# {comment}\n{','.join(columns)}\n")
        for a in range(0, len(data[0]), rows):
            pieces = [c[a : a + rows] for c in data]
            values = [p.tolist() if isinstance(p, np.ndarray) else p for p in pieces]
            f.write("".join(map(line.format, *values)))
    return path
