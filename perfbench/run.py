"""panelalloc benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

Every workload in one go:

    for w in battery search-scale oracle; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

Runs passes of one workload, each in its own fresh interpreter and one at a
time, for at least ``--seconds`` seconds. With ``--trace 0`` every pass is
untraced and passes come in pairs, at least two: one of the program in
``src`` and one of ``seedprog``, a frozen copy of the program as it was when
the benchmark was defined, in alternating order. Before each pass pair comes
a pair of set-up-only processes, one of each program. The end-to-end
metrics are medians: ``wall_rel``, the median over pass pairs of
the program's wall time over the frozen copy's; ``setup_s``, the median over
set-up pairs (pass pairs included) of the program's set-up time over the
frozen copy's, times ``SEED_SETUP_S``, so it reads in seconds of the seed
program's set-up; and ``peak_rss_mb``. On a shared 2-core KVM guest, other
tenants slowed pure-Python code by up to 60% for minutes at a time and
moved set-up times by 40%; both programs of a pair see the same slowdown,
so the ratios cancel it where raw seconds cannot. ``wall_s``, set-up times
as measured and the workload's product per second are printed too. The
frozen copy must match the source digest recorded in ``reference.json`` and
pass every output check, or the run fails. With ``--trace 1``
untraced and traced passes of ``src`` alternate, at least three passes; the
per-layer metrics come from the traced passes only, and ``trace.overhead_s``
is the median traced wall time minus the median untraced one.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit, the environment, output digests and failures. A
full record goes to ``perfbench/.work/<workload>/record.json``. The exit
code is 1, with no result printed, when a pass process cannot set up or
crashes, e.g. when the program's sources are not there, or when the frozen
copy is changed or fails a check.
"""

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# a run holds three pairs when passes are short and two when a slow
# machine makes them long, which keeps a run under about 40 s
MIN_PAIRS = 2
# median set-up time of the seed program, python 3.11 and numpy on a 2-core
# KVM guest; scales the set-up ratio back to seconds
SEED_SETUP_S = 0.18
END_TO_END = ("setup_s", "wall_rel", "peak_rss_mb")


class PassError(RuntimeError):
    pass


def run_process(workload: str, seed: int, trace: int, work: Path, index: int,
                setup_only: bool = False, program: str = "current") -> dict:
    """Run one pass (or set-up only) in a fresh interpreter; return its result."""
    result = work / f"{program}-{index}.json"
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", "setup" if setup_only else workload,
        "--scenario", str(workloads.SCENARIOS[workload]), "--seed", str(seed),
        "--trace", str(trace), "--program", program,
        "--out", str(out), "--result", str(result),
    ]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass {index} exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise PassError(f"pass {index} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def tally(passes: list[dict]) -> tuple[int, int]:
    """Operations attempted and operations failed over all passes."""
    ops = [op for p in passes for op in p["ops"]]
    return len(ops), sum(1 for op in ops if op["failures"])


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest whole percentile with at least ten samples above it, and its value."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100.0 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p / 100.0 * n) - 1]


def environment(seed: int) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        ).stdout.strip() or "unknown"
    return {
        "git_commit": commit,
        "src_sha256": checks.program_sha256(ROOT / "src"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "trials": {
            "battery": workloads.BATTERY_TRIALS,
            "oracle": workloads.ORACLE_TRIALS,
        },
    }


def measure(args, work: Path) -> tuple[list, list, list, list]:
    """Run the passes of one run.

    Returns the untraced and traced passes of the program in ``src``, the
    passes of the frozen seed program, one for each untraced pass, and the
    (program, seed program) set-up time pairs.
    """
    untraced, traced, frozen, setups = [], [], [], []
    started = time.perf_counter()
    indices = itertools.count(1)

    def run(trace: int, setup_only: bool = False, program: str = "current") -> dict:
        return run_process(args.workload, args.seed, trace, work, next(indices),
                           setup_only, program)

    def paired(setup_only: bool, seed_first: bool) -> tuple[dict, dict]:
        order = ("seed", "current") if seed_first else ("current", "seed")
        got = {program: run(0, setup_only, program) for program in order}
        return got["current"], got["seed"]

    def more(min_passes: int) -> bool:
        done = len(untraced) + len(traced)
        return done < min_passes or time.perf_counter() - started < args.seconds

    if not args.trace:
        # set-up pairs between pass pairs spread the set-up samples over the
        # run; which program runs first alternates from pass pair to pass
        # pair, and each set-up pair runs in the other order than its pass pair
        while more(MIN_PAIRS):
            seed_first = len(frozen) % 2 == 1
            current, seed = paired(True, not seed_first)
            setups.append((current["setup_s"], seed["setup_s"]))
            current, seed = paired(False, seed_first)
            untraced.append(current)
            frozen.append(seed)
            setups.append((current["setup_s"], seed["setup_s"]))
    else:
        while not traced or more(MIN_PASSES):
            if len(untraced) <= len(traced):
                untraced.append(run(0))
            else:
                traced.append(run(1))
    return untraced, traced, frozen, setups


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SystemExit inside subprocess.run kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    if checks.program_sha256(workloads.SEEDPROG) != reference["seedprog_sha256"]:
        print("error: perfbench/seedprog differs from the sources recorded in "
              "reference.json", file=sys.stderr)
        return 1
    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        untraced, traced, frozen, setups = measure(args, work)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    seed_failures = [f for p in frozen for op in p["ops"] for f in op["failures"]]
    if seed_failures:
        # a failing yardstick cannot be divided by
        print("error: the seed program failed its output checks:\n"
              + "\n".join(seed_failures), file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted, failed = tally(passes)
    walls = [p["wall_s"] for p in untraced]
    report = {
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in untraced), "MB"),
        "product_per_s": (statistics.median(p["product"] / p["wall_s"] for p in untraced), "1/s"),
        "failed_frac": (failed / attempted, "fraction"),
    }
    if frozen:
        report["seed_wall_s"] = (statistics.median(p["wall_s"] for p in frozen), "s")
        report["wall_rel"] = (statistics.median(
            current["wall_s"] / seed["wall_s"] for current, seed in zip(untraced, frozen)), "ratio")
        report["setup_measured_s"] = (statistics.median(c for c, _ in setups), "s")
        report["seed_setup_measured_s"] = (statistics.median(s for _, s in setups), "s")
        report["setup_s"] = (SEED_SETUP_S * statistics.median(c / s for c, s in setups), "s")
    if args.trace:
        metrics = {}
        for name, unit in tracer.PER_LAYER_METRICS[:-1]:
            value = statistics.median(p["layers"][name] for p in traced)
            # counts repeat exactly from pass to pass; keep them whole numbers
            metrics[name] = (int(value) if unit == "count" and value == int(value) else value, unit)
        overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(walls)
        metrics["trace.overhead_s"] = (overhead, "s")
    else:
        metrics = {name: report[name] for name in END_TO_END}

    env = environment(args.seed)
    env.update(passes[0]["env"])
    known = reference[args.workload]["digests"].get(str(args.seed), {})
    digests = passes[0]["digests"]
    unstable = {n for p in passes for n, d in p["digests"].items() if digests.get(n) != d}
    changed = sorted(n for n, d in digests.items() if n in known and known[n] != d)
    tail = tail_percentile(walls)

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)} untraced, {len(traced)} traced, {len(frozen)} seed program, "
          f"set-up pairs={len(setups)}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"wall_s samples={len(walls)} tail="
          + (f"p{tail[0]:.0f}:{tail[1]:.6f}" if tail else "n/a (fewer than 20 passes)"))
    print(f"metric {workloads.PRODUCTS[args.workload]} {report['product_per_s'][0]:.6g} 1/s")
    for name, (value, unit) in {**report, **metrics}.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"digests files={len(digests)} unstable_across_passes={len(unstable)} "
          f"changed_vs_reference={len(changed)}" + (f" ({', '.join(changed[:5])})" if changed else ""))
    for op in (op for p in passes for op in p["ops"]):
        for failure in op["failures"]:
            print(f"FAILED {op['name']}: {failure}")

    record = {"workload": args.workload, "env": env, "passes": passes, "seed_passes": frozen,
              "setups": setups, "digests_changed": changed}
    (work / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
