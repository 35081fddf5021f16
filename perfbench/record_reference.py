"""Record ``reference.json``: the outputs the benchmark checks later runs against.

Run once, at a commit whose outputs are trusted, from the repository root:

    python3 perfbench/record_reference.py

Each CLI workload runs at two seeds; a column that reads the same at both is
seed-independent and is stored verbatim. Monte Carlo columns are not stored:
for mean-SE columns the recorder stores the allocation and transmit SNR of
each row, from which ``checks`` computes the exact mean independently. It
also stores the sha256 digests of every output file for seeds 1 to 10, which
runs report (but do not fail on) when they differ, and the digest of the
program's sources, which ``perfbench/seedprog`` (a copy of them) must match.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from panelalloc import cli, load_scenario, rsnr_mixture, se_cdf  # noqa: E402

WORK = HERE / ".work" / "record"
SEEDS = (1, 2)
DIGEST_SEEDS = range(1, 11)


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"panelalloc {' '.join(argv)} exited with {rc}")


def csv_names(out: Path) -> set[str]:
    return {str(p.relative_to(out)) for p in out.rglob("*.csv")}


def run_battery(out: Path, seed: int) -> list[list[str]]:
    """Run the battery jobs; return the files each job wrote."""
    common = ["--scenario", str(wl.BASELINE), "--trials", str(wl.BATTERY_TRIALS),
              "--seed", str(seed)]
    jobs = []
    for job in wl.battery_jobs(out):
        before = csv_names(out) if out.exists() else set()
        run_cli(job + common)
        jobs.append(sorted(csv_names(out) - before))
    return jobs


def spec_for(config, target_se: float):
    return cli.ExperimentSpec(
        config=config, methods=wl.DESIGNS, seed=0, trials=1, epsilon=wl.EPSILON,
        target_se=target_se, output_dir=WORK,
    )


def mean_se_inputs(name: str, config, tx_snr_db: float) -> dict:
    """Allocation and transmit SNR behind every mean-SE entry of a file."""
    if name.endswith("sweep_se.csv"):
        grid = np.linspace(0.25, 8.0, 33)
        return {
            f"mean_se_{m}": [
                {"q": list(cli.resolve_allocation(spec_for(config, float(xi)), m).q),
                 "tx_snr_db": tx_snr_db}
                for xi in grid
            ]
            for m in wl.DESIGNS
        }
    if name.endswith("sweep_snr.csv"):
        columns = {}
        for m in wl.DESIGNS:
            columns[f"mean_se_{m}"] = []
            for snr in (0.0, 5.0, 10.0, 15.0, 20.0):
                cfg = replace(config, tx_snr=10.0 ** (snr / 10.0))
                alloc = cli.resolve_allocation(spec_for(cfg, 4.0), m, cfg)
                columns[f"mean_se_{m}"].append({"q": list(alloc.q), "tx_snr_db": snr})
        return columns
    return {}


def describe(a: Path, b: Path, name: str, config, tx_snr_db: float, target_se: float) -> dict:
    """Reference entry of one output file produced at two seeds."""
    header, rows_a = checks.read_csv(a / name)
    _, rows_b = checks.read_csv(b / name)
    entry = {"header": header, "rows": len(rows_a)}
    base = name.rsplit("/", 1)[-1]
    if base.startswith("summary_"):
        method = base[len("summary_"):-len(".csv")]
        alloc = cli.resolve_allocation(spec_for(config, target_se), method)
        entry.update(q=list(alloc.q), tx_snr_db=tx_snr_db)
        return entry
    entry["columns"] = {}
    for i, col in enumerate(header):
        if [r[i] for r in rows_a] == [r[i] for r in rows_b]:
            entry["columns"][col] = [float(r[i]) for r in rows_a]
    mc = mean_se_inputs(name, config, tx_snr_db)
    if mc:
        entry["mc"] = mc
    return entry


def digests(out: Path) -> dict:
    return {name: checks.sha256(out / name) for name in sorted(csv_names(out))}


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def main() -> int:
    config, _ = load_scenario(wl.BASELINE)
    tx_snr_db = 10.0 * np.log10(checks.read_scenario(wl.BASELINE).tx_snr)
    dirs = [fresh(WORK / f"battery-{s}") for s in SEEDS]
    jobs = [run_battery(d, s) for d, s in zip(dirs, SEEDS)][0]
    battery = {"jobs": jobs, "files": {}}
    for job in jobs:
        for name in job:
            target = 4.0 if name.startswith("cdf_target4") else 1.0
            battery["files"][name] = describe(*dirs, name, config, tx_snr_db, target)

    targets = {}
    for target in wl.SEARCH_TARGETS:
        out = fresh(WORK / "search")
        run_cli(wl.search_args(out, 0, target))
        header, rows = checks.read_csv(out / "allocate.csv")
        for row in rows:
            values = dict(zip(header, (float(v) for v in row)))
            targets[repr(target)] = {
                design: {
                    "q": [values[f"q_{l}_{design}"] for l in range(1, 7)],
                    "outage": values[f"outage_{design}"],
                    "avg_rsnr_db": values[f"avg_rsnr_db_{design}"],
                    "g_los": values[f"g_los_{design}"],
                }
                for design in ("outmin", "outmin_ase")
            }

    designs = {}
    for design in wl.DESIGNS:
        alloc = cli.resolve_allocation(spec_for(config, wl.ORACLE_TARGET_SE), design)
        outage = float(se_cdf(rsnr_mixture(alloc, config), wl.ORACLE_TARGET_SE))
        designs[design] = {"q": list(alloc.q), "outage": outage}

    digest = {"battery": {}, "search-scale": {}}
    for seed in DIGEST_SEEDS:
        out = fresh(WORK / "digest")
        run_battery(out, seed)
        digest["battery"][str(seed)] = digests(out)
        out = fresh(WORK / "digest")
        run_cli(wl.search_args(out, seed, wl.search_target(seed)))
        digest["search-scale"][str(seed)] = digests(out)
    shutil.rmtree(WORK, ignore_errors=True)

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True, check=False
    ).stdout.strip()
    reference = {
        "recorded_at": commit or "unknown",
        # run.py refuses to use perfbench/seedprog unless it matches these sources
        "seedprog_sha256": checks.program_sha256(HERE.parent / "src"),
        "battery": {**battery, "digests": digest["battery"]},
        "search-scale": {"targets": targets, "digests": digest["search-scale"]},
        "oracle": {"designs": designs, "digests": {}},
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n",
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
