"""CSV writers for column tables, candidate tables and sample dumps.

Every file starts with a single '#' comment line recording the resolved
configuration, so results stay auditable without a side channel.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import linear_to_db


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(
    path: str | Path,
    comment: str,
    header: Sequence[str],
    rows: Iterable[Sequence],
) -> Path:
    # one row at a time: memory stays flat in the row count
    return _write_lines(path, comment, header, (",".join(map(_fmt, row)) + "\n" for row in rows))


def _write_lines(path: str | Path, comment: str, header: Sequence[str], lines) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        f.write(f"# {comment}\n{','.join(header)}\n")
        f.writelines(lines)
    return path


def write_columns_csv(path, comment, columns: dict[str, Sequence]) -> Path:
    """Write named equal-length columns (arrays or ranges) as CSV.

    ``tolist()`` makes 4096 rows at a time Python floats and ints, whose str
    is ``_fmt``'s, and one ``str.format`` per row writes them.
    """
    data, rows = list(columns.values()), 4096
    line = ",".join(["{}"] * len(data)) + "\n"
    pieces = (
        "".join(map(line.format, *(np.asarray(c[a : a + rows]).tolist() for c in data)))
        for a in range(0, len(data[0]), rows)
    )
    return _write_lines(path, comment, list(columns), pieces)


def write_candidates_csv(path, comment, report) -> Path:
    """Full optimizer candidate table; the chosen row is flagged."""
    num_paths = len(report.chosen.q)
    header = [f"q_{l + 1}" for l in range(num_paths)] + ["outage", "avg_rsnr_db", "chosen"]
    rows = [
        list(alloc.q)
        + [outage, linear_to_db(avg), int(alloc.q == report.chosen.q)]
        for alloc, outage, avg in report.candidates
    ]
    return write_csv(path, comment, header, rows)


def write_samples_csv(path, comment, result) -> Path:
    """Per-trial SE dump: trial index and SE in bits/s/Hz."""
    return write_columns_csv(
        path, comment, {"trial": range(result.trials), "se_bits": result.se_samples}
    )


def write_summary_csv(path, comment, results: Iterable) -> Path:
    """Batch summaries: mode, trials, seed, mean SE and mean RSNR in dB."""
    header = ["mode", "trials", "seed", "mean_se", "mean_rsnr_db"]
    rows = [
        [r.mode, r.trials, r.seed, r.mean_se, linear_to_db(r.mean_rsnr)] for r in results
    ]
    return write_csv(path, comment, header, rows)
