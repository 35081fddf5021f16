"""The benchmark workloads: what one pass runs and how it is checked.

Each workload builds its operations from the workload seed, runs them
against the public API or ``panelalloc.cli.main`` and checks the outputs.
Functions of the program are looked up on their module at call time, so a
traced pass sees every call through the wrappers installed by ``tracer``.

- battery: the seven jobs of ``scripts/run_experiments.py`` at 1e5 trials.
  Repeated work: 104 run_trials calls with 28 distinct, 150 enumerations of
  one candidate set, so memoization and shared tables show here.
- search-scale: ``allocate`` (both optimizer designs) at one target SE of a
  six-point grid, chosen by the seed, on the (16, 6) scenario: 15,504
  candidates per query; optimizer and analytic work only, no Monte Carlo.
  One target per pass keeps passes short, so a run holds enough of them.
- oracle: library-level validation of the four designs at 1e6 trials in
  both modes, with KS against the analytic CDF; all distinct Monte Carlo
  calls, almost no optimizer work.

A fourth workload, ``cdf --dump-samples`` (800,412 CSV rows a pass), was
left out: its pure-Python CSV formatting made its wall time spread by 28%
between runs on a 2-core shared machine, more than any bound allows. The
export layer is still measured on battery (26 files, about 4,000 rows).
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import count_rows

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "scenarios" / "baseline.txt"
SCALE = ROOT / "perfbench" / "scenarios" / "scale_16_6.txt"
# frozen copy of the program at the commit reference.json was recorded at
SEEDPROG = ROOT / "perfbench" / "seedprog"

BATTERY_TRIALS = 100_000
ORACLE_TRIALS = 1_000_000
ORACLE_TARGET_SE = 1.0
EPSILON = 0.05
DESIGNS = ("los", "uniform", "outmin", "outmin_ase")
# search-scale queries one of these target SEs, chosen by the seed; the
# reference holds the allocations for all of them
SEARCH_TARGETS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)

WORKLOADS = ("battery", "search-scale", "oracle")
SCENARIOS = {"battery": BASELINE, "search-scale": SCALE, "oracle": BASELINE}
PRODUCTS = {
    "battery": "rows_per_s",
    "search-scale": "candidates_per_s",
    "oracle": "trials_per_s",
}


def battery_jobs(out: Path) -> list[list[str]]:
    """The job list of ``scripts/run_experiments.py``, kept fixed here."""
    return [
        ["cdf", "--target-se", "1", "--out", str(out / "cdf_target1")],
        ["cdf", "--target-se", "4", "--out", str(out / "cdf_target4")],
        ["sweep-se", "--se-points", "33", "--out", str(out)],
        ["sweep-snr", "--target-se", "4", "--out", str(out)],
        ["allocate", "--se-points", "33", "--dump-candidates", "--out", str(out)],
        ["pattern", "--out", str(out)],
        ["count", "--out", str(out)],
    ]


def search_target(seed: int) -> float:
    return random.Random(seed).choice(SEARCH_TARGETS)


def search_args(out: Path, seed: int, target: float) -> list[str]:
    # a one-point grid is [se_min]; se_max only has to lie above it
    return [
        "allocate", "--scenario", str(SCALE), "--se-min", repr(target),
        "--se-max", repr(target + 1.0), "--se-points", "1", "--seed", str(seed),
        "--out", str(out),
    ]


def candidate_count(scenario) -> int:
    """Allocations of n_p panels over L paths with at least one on LoS."""
    return math.comb(scenario.n_p + scenario.num_paths - 2, scenario.num_paths - 1)


@dataclass
class Op:
    name: str
    seconds: float = 0.0
    failures: list[str] = field(default_factory=list)


@dataclass
class PassResult:
    ops: list[Op]
    wall_s: float
    product: float
    # (op, check, *args) to run by ``finish`` once the pass's memory is read
    deferred: list[tuple] = field(default_factory=list)


def _run_cli(name: str, argv: list[str]) -> Op:
    import panelalloc.cli

    op = Op(name)
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = panelalloc.cli.main(argv)
    except Exception:
        rc = None
        op.failures.append(f"{name}: raised\n{traceback.format_exc()}")
    op.seconds = time.perf_counter() - start
    if rc not in (0, None):
        op.failures.append(f"{name}: exit code {rc}: {captured.getvalue().strip()[-500:]}")
    return op


def finish(outcome: PassResult) -> None:
    """Run the pass's output checks; their failures go to their operations.

    Checks run after the pass, off the clock and after its peak memory is
    read, so neither their time nor their arrays count as the program's.
    A check that raises fails its operation too.
    """
    for op, check, *args in outcome.deferred:
        try:
            op.failures += check(*args)
        except Exception:
            op.failures.append(f"{op.name}: check raised\n{traceback.format_exc()}")
    outcome.deferred.clear()


def _output_rows(out: Path) -> int:
    return sum(count_rows(path)[0] for path in out.rglob("*.csv"))


def run_battery(out: Path, seed: int, checker) -> PassResult:
    common = ["--scenario", str(BASELINE), "--trials", str(BATTERY_TRIALS), "--seed", str(seed)]
    ops = [_run_cli(" ".join(job[:-2]), job + common) for job in battery_jobs(out)]
    wall = sum(op.seconds for op in ops)
    deferred = [
        (op, checker.csv_file, out, name, BATTERY_TRIALS, seed)
        for op, names in zip(ops, checker.reference["jobs"])
        if not op.failures
        for name in names
    ]
    return PassResult(ops, wall, _output_rows(out), deferred)


def run_search(out: Path, seed: int, checker) -> PassResult:
    """One ``allocate`` call; each (design, target SE) query is one operation."""
    target = search_target(seed)
    call = _run_cli("allocate", search_args(out, seed, target))
    ops, deferred = [], []
    for design in ("outmin", "outmin_ase"):
        op = Op(f"{design}@{target}", failures=list(call.failures))
        if not call.failures:
            deferred.append((op, checker.allocate_row, out / "allocate.csv", design, target))
        ops.append(op)
    return PassResult(ops, call.seconds, len(ops) * candidate_count(checker.scenario), deferred)


def _save_samples(path: Path, result) -> tuple:
    """Save a Monte Carlo result's samples; return (mode, trials, path)."""
    import numpy as np

    np.save(path, result.se_samples)
    return result.mode, result.trials, path


def run_oracle(config, out: Path, seed: int, checker) -> PassResult:
    """Both Monte Carlo modes, KS and outage for each design.

    The samples of each design are saved to ``out`` and checked from there
    after the pass, so the pass holds one design's samples at a time.
    """
    import numpy as np

    import panelalloc as pa

    ops, deferred = [], []
    for design in DESIGNS:
        op = Op(design)
        start = time.perf_counter()
        try:
            if design == "los":
                alloc = pa.los_concentration(config)
            elif design == "uniform":
                alloc = pa.uniform_allocation(config)
            elif design == "outmin":
                alloc = pa.optimize_outmin(config, ORACLE_TARGET_SE).chosen
            else:
                alloc = pa.optimize_outmin_ase(config, ORACLE_TARGET_SE, EPSILON).chosen
            aods = pa.sample_channel(config, rng=np.random.default_rng(seed)).aods
            ideal = pa.run_trials(config, alloc, aods, "idealized", ORACLE_TRIALS, seed)
            real = pa.run_trials(config, alloc, aods, "realistic", ORACLE_TRIALS, seed)
            mix = pa.rsnr_mixture(alloc, config)
            ks = pa.ks_distance(ideal, lambda se: pa.se_cdf(mix, se))
            outages = (
                pa.empirical_outage(ideal, ORACLE_TARGET_SE),
                pa.empirical_outage(real, ORACLE_TARGET_SE),
            )
        except Exception:
            op.failures.append(f"{design}: raised\n{traceback.format_exc()}")
        op.seconds = time.perf_counter() - start
        if not op.failures:
            runs = [_save_samples(out / f"{design}_{i}.npy", r) for i, r in enumerate((ideal, real))]
            deferred.append((op, checker.oracle, design, alloc.q, runs, ks, outages,
                             ORACLE_TRIALS, ORACLE_TARGET_SE))
            # free the samples before the next design, as a caller looping would
            del ideal, real
        ops.append(op)
    wall = sum(op.seconds for op in ops)
    return PassResult(ops, wall, 2 * len(DESIGNS) * ORACLE_TRIALS, deferred)


def run(workload: str, out: Path, seed: int, config, checker) -> PassResult:
    if workload == "battery":
        return run_battery(out, seed, checker)
    if workload == "search-scale":
        return run_search(out, seed, checker)
    return run_oracle(config, out, seed, checker)
