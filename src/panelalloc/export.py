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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as f:
        f.write(f"# {comment}\n{','.join(header)}\n")
        # one row at a time: memory stays flat in the row count
        f.writelines(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    return path


def write_columns_csv(path, comment, columns: dict[str, np.ndarray]) -> Path:
    """Write named equal-length column vectors as CSV."""
    names = list(columns)
    data = [np.asarray(columns[n]) for n in names]
    rows = zip(*data)
    return write_csv(path, comment, names, rows)


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
    rows = zip(range(result.trials), result.se_samples)
    return write_csv(path, comment, ["trial", "se_bits"], rows)


def write_summary_csv(path, comment, results: Iterable) -> Path:
    """Batch summaries: mode, trials, seed, mean SE and mean RSNR in dB."""
    header = ["mode", "trials", "seed", "mean_se", "mean_rsnr_db"]
    rows = [
        [r.mode, r.trials, r.seed, r.mean_se, linear_to_db(r.mean_rsnr)] for r in results
    ]
    return write_csv(path, comment, header, rows)
