#!/usr/bin/env python3
"""Median wall times of the profile search, of the Monte Carlo layer, of
``ks_distance``, of fresh ``cdf`` processes, of the battery's jobs and of
the sweep commands and a battery pass.

    PYTHONPATH=src python scripts/bench.py

Measures the panelalloc that is importable, so pointing PYTHONPATH at
another checkout's src measures that one (scripts/run_experiments.py and
the ``cdf`` processes are run with the same environment). Prints one
JSON object:

  search       seconds of one ``outmin_reports`` call, both optimizer
               designs on allocate's default 32-point SE grid, at
               (n_p, L) = (8, 4), (16, 6), (16, 8) and (32, 8) with the
               other parameters at their defaults (key ``outmin_reports_<n_p>_<L>_s``);
               and of ``score_allocations`` on all 120 baseline
               compositions at target SE 1 (``score_allocations_8_4_s``).
  montecarlo   seconds for TRIALS = 10^6 trials at AoDs and seed 1: for
               each mode, one batch (the outmin design) and cdf's four
               designs; and cdf's whole pass, four designs in both modes
               (8 batches). The draw floor under them, per chunk of
               CHUNK_TRIALS = 2^16 trials on one thread: the gain fill
               (``chunk.fill_gains_s``) and each mode's blockage draws,
               p_hat included in realistic mode
               (``chunk.<mode>_blockage_s``), median of CHUNK_REPEATS.
               Keys without a prefix are the baseline scenario (8 panels,
               4 paths); keys prefixed ``scale_16_8.`` are
               scenarios/scale_16_8.txt (16 panels, 8 paths).
  ks           seconds of one ``ks_distance`` call, against its mixture's
               ``se_cdf``, on the 10^6 idealized samples (AoDs and seed 1)
               of each of cdf's four designs at target SE 1, baseline
               scenario (key ``<design>_s``).
  cdf          for ``panelalloc cdf --seed 1`` at 10^5, 10^6 and 10^7
               trials, each in a fresh process: its wall time in seconds
               (interpreter start and imports included) and its peak
               resident memory in MB (its ru_maxrss, from wait4 in a small
               launcher process). 10^7 trials run once.
  battery      seconds of each job of ``run_experiments.py --seed 5``, as
               the script prints them, one fresh process per repeat.
  commands     wall seconds of fresh ``allocate``, ``pattern`` and ``count``
               processes at their defaults and seed 1, started as the ``cdf``
               ones are (keys ``<command>_process_s``); seconds of one
               in-process ``cmd_sweep_target_se`` and one
               ``cmd_sweep_tx_snr`` call with the subcommands' defaults
               (keys ``<function>_s``); and of one pass of the battery's seven
               jobs through ``cli.main`` at seed 1 in a fresh process, run as
               perfbench/workloads.py runs them, so the parser built on the
               first call and the first simulation's imports count
               (``battery_pass_s``).

Each number is the median of REPEATS = 5 timings (the per-chunk draws:
CHUNK_REPEATS); the search, Monte Carlo, ks and sweep ones run in this
process after one warm-up call.
"""

import json
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import panelalloc as pa
from panelalloc import channel, cli, montecarlo, optimizer

ROOT = Path(__file__).resolve().parents[1]
DESIGNS = ("los", "uniform", "outmin", "outmin_ase")
TRIALS = 10**6
REPEATS = 5
CHUNK_REPEATS = 51


def simulate(config, allocs, aods, modes):
    return montecarlo.run_batches(config, allocs, aods, TRIALS, 1, modes)


def median_seconds(fn, repeats: int = REPEATS) -> float:
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def search_layer() -> dict:
    grid = np.linspace(0.25, 8.0, 32)
    out = {}
    for n_p, num_paths in ((8, 4), (16, 6), (16, 8), (32, 8)):
        config = pa.SystemConfig(n_p=n_p, num_paths=num_paths)
        out[f"outmin_reports_{n_p}_{num_paths}_s"] = median_seconds(
            lambda: optimizer.outmin_reports(config, grid, [0.0, cli.DEFAULT_EPSILON])
        )
    q = optimizer.allocation_array(8, 4)
    out["score_allocations_8_4_s"] = median_seconds(
        lambda: pa.score_allocations(q, pa.SystemConfig(), 1.0)
    )
    return out


def chunk_draws(config) -> dict:
    """Seconds of one chunk's gain fill and of each mode's blockage draws, as run_batches
    draws them: the gains into two (CHUNK_TRIALS, L) planes, the blocked patterns in
    sub-blocks of SUB_ROWS rows."""
    rows, sub, L = montecarlo.CHUNK_TRIALS, montecarlo.SUB_ROWS, config.num_paths
    variances = channel.path_variances(config.rician_k, L)
    re, im, p_hat = np.empty((rows, L)), np.empty((rows, L)), np.empty(rows)
    draws, mask = np.empty((sub, L)), np.empty((sub, L), bool)
    rng = montecarlo._chunk_rng(1, 0)

    def blockage(mode):
        if mode == "realistic":
            p_block = channel._shared_blockage_probability(config, rng, p_hat)
        else:
            p_block = np.broadcast_to(config.p_blk, (rows, 1))
        for a in range(0, rows, sub):
            channel._block(rng, p_block[a : a + sub], draws, mask)

    out = {"chunk.fill_gains_s": median_seconds(
        lambda: channel._fill_gains(variances, rng, re, im), CHUNK_REPEATS
    )}
    for mode in montecarlo.MODES:
        out[f"chunk.{mode}_blockage_s"] = median_seconds(lambda: blockage(mode), CHUNK_REPEATS)
    return out


def montecarlo_layer() -> dict:
    out = {}
    scale, _ = pa.load_scenario(ROOT / "scenarios" / "scale_16_8.txt")
    for prefix, config in (("", pa.SystemConfig()), ("scale_16_8.", scale)):
        spec = cli.ExperimentSpec(config, DESIGNS, 1, TRIALS, cli.DEFAULT_EPSILON, 1.0, Path("."))
        designs = list(cli.resolve_allocations(spec).values())
        aods = pa.sample_channel(config, rng=np.random.default_rng(1)).aods
        for mode in montecarlo.MODES:
            for name, allocs in (("one_batch", designs[2:3]), ("cdf_designs", designs)):
                run = lambda: simulate(config, allocs, aods, (mode,))  # noqa: E731
                out[f"{prefix}{mode}.{name}_s"] = median_seconds(run)
        out[f"{prefix}cdf_pass_8_batches_s"] = median_seconds(
            lambda: simulate(config, designs, aods, montecarlo.MODES)
        )
        out.update({f"{prefix}{key}": s for key, s in chunk_draws(config).items()})
    return out


def ks_layer() -> dict:
    config = pa.SystemConfig()
    spec = cli.ExperimentSpec(config, DESIGNS, 1, TRIALS, cli.DEFAULT_EPSILON, 1.0, Path("."))
    aods = pa.sample_channel(config, rng=np.random.default_rng(1)).aods
    out = {}
    for design, alloc in cli.resolve_allocations(spec).items():
        result = pa.run_trials(config, alloc, aods, "idealized", TRIALS, 1)
        mix = pa.rsnr_mixture(alloc, config)
        out[f"{design}_s"] = median_seconds(
            lambda: pa.ks_distance(result, lambda se: pa.se_cdf(mix, se))
        )
    return out


# A child's ru_maxrss starts at the resident size of the process it was
# forked from, which here grows past 100 MB, so each cdf process is started
# by this small launcher instead. It prints: wall seconds, exit code,
# ru_maxrss in KB.
LAUNCHER = """
import os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def cli_process(args: list[str]) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one fresh ``panelalloc <args>`` process."""
    argv = [sys.executable, "-m", "panelalloc.cli", *args]
    text = subprocess.run(
        [sys.executable, "-c", LAUNCHER, *argv], check=True, capture_output=True, text=True
    ).stdout
    seconds, code, maxrss_kb = text.split()
    if int(code) != 0:
        raise subprocess.CalledProcessError(int(code), argv)
    return float(seconds), int(maxrss_kb) / 1024.0


def cdf_processes() -> dict:
    out = {}
    for trials, repeats in ((10**5, REPEATS), (10**6, REPEATS), (10**7, 1)):
        args = ["cdf", "--trials", str(trials), "--seed", "1", "--out"]
        with tempfile.TemporaryDirectory() as tmp:
            runs = [cli_process(args + [tmp]) for _ in range(repeats)]
        tag = f"1e{len(str(trials)) - 1}"
        out[f"cdf_{tag}.wall_s"] = statistics.median(r[0] for r in runs)
        out[f"cdf_{tag}.peak_rss_mb"] = statistics.median(r[1] for r in runs)
    return out


def battery_jobs() -> dict:
    runs: dict[str, list[float]] = {}
    for _ in range(REPEATS):
        with tempfile.TemporaryDirectory() as out:
            text = subprocess.run(
                [sys.executable, str(ROOT / "scripts" / "run_experiments.py"), "--seed", "5",
                 "--out", out],
                check=True, capture_output=True, text=True,
            ).stdout
        jobs = re.findall(r"^== (\S+): ([0-9.]+) s", text, re.MULTILINE)
        for i, (job, seconds) in enumerate(jobs):
            # the two cdf jobs are at target SE 1 and 4
            name = f"{job}@{'1' if i == 0 else '4'}" if job == "cdf" else job
            runs.setdefault(name, []).append(float(seconds))
        runs.setdefault("total", []).append(sum(float(s) for _, s in jobs))
    return {name: statistics.median(times) for name, times in runs.items()}


# One battery pass as perfbench times it: panelalloc.cli and perfbench's
# workloads are imported first, then each job's cli.main call is timed.
BATTERY_PASS = """
import sys
from pathlib import Path
import panelalloc.cli
sys.path.append(sys.argv[1])
import workloads
out = Path(sys.argv[2])
common = ["--scenario", str(workloads.BASELINE), "--trials", str(workloads.BATTERY_TRIALS),
          "--seed", "1"]
ops = [workloads._run_cli(" ".join(job[:-2]), job + common) for job in workloads.battery_jobs(out)]
failures = [failure for op in ops for failure in op.failures]
if failures:
    sys.exit("\\n".join(failures))
print(sum(op.seconds for op in ops))
"""


def command_processes(repeats: int = REPEATS) -> dict:
    """Median wall seconds of fresh ``allocate``, ``pattern`` and ``count`` processes."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("allocate", "pattern", "count"):
            runs = [cli_process([name, "--seed", "1", "--out", tmp]) for _ in range(repeats)]
            out[f"{name}_process_s"] = statistics.median(r[0] for r in runs)
    return out


def commands() -> dict:
    parser = cli.build_parser()
    out = command_processes()
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in (("sweep-se", cli.cmd_sweep_target_se),
                              ("sweep-snr", cli.cmd_sweep_tx_snr)):
            spec = cli._spec_from_args(parser.parse_args([name, "--out", tmp]))
            out[f"{command.__name__}_s"] = median_seconds(lambda: command(spec))
        passes = [
            float(subprocess.run(
                [sys.executable, "-c", BATTERY_PASS, str(ROOT / "perfbench"), tmp],
                check=True, capture_output=True, text=True,
            ).stdout)
            for _ in range(REPEATS)
        ]
    out["battery_pass_s"] = statistics.median(passes)
    return out


def main() -> int:
    result = {
        "search": search_layer(),
        "montecarlo": montecarlo_layer(),
        "ks": ks_layer(),
        "cdf": cdf_processes(),
        "battery": battery_jobs(),
        "commands": commands(),
    }
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
