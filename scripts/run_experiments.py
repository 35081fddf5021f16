#!/usr/bin/env python3
"""Run the full experiment battery at desk scale.

Produces, under --out (default results/):
  cdf_<method>.csv        SE CDF, analytic vs both Monte Carlo modes,
                          at target SE 1 and 4 (subdirectories per target)
  sweep_se.csv            outage probability and mean SE vs target SE
  sweep_snr.csv           mean RSNR / SE bound / mean SE vs transmit SNR
  allocate.csv            optimizer allocations, outage and G_LoS vs target SE
  pattern_<method>.csv    beam-pattern cuts
  count.csv               candidate-set sizes over (panels, paths)

Each job's wall time (time.perf_counter) and the process's peak resident
memory so far (resource.getrusage ru_maxrss, a high-water mark) are printed
after its output paths as "== <command>: <seconds> s, peak_rss_mb <MB>".

Usage:
    python scripts/run_experiments.py [--out results] [--trials 100000] [--seed N]
"""

import argparse
import resource
import sys
import time
from pathlib import Path

from panelalloc import cli

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "baseline.txt"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--trials", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    common = ["--scenario", str(SCENARIO), "--trials", str(args.trials)]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]

    jobs = [
        ["cdf", "--target-se", "1", "--out", str(args.out / "cdf_target1")],
        ["cdf", "--target-se", "4", "--out", str(args.out / "cdf_target4")],
        ["sweep-se", "--se-points", "33", "--out", str(args.out)],
        ["sweep-snr", "--target-se", "4", "--out", str(args.out)],
        ["allocate", "--se-points", "33", "--dump-candidates", "--out", str(args.out)],
        ["pattern", "--out", str(args.out)],
        ["count", "--out", str(args.out)],
    ]
    for job in jobs:
        print(f"== panelalloc {' '.join(job)}")
        start = time.perf_counter()
        rc = cli.main(job + common)
        if rc != 0:
            return rc
        seconds = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"== {job[0]}: {seconds:.3f} s, peak_rss_mb {peak_rss_mb:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
