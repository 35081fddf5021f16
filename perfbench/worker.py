"""One benchmark pass in a fresh interpreter; run by ``run.py``, not by hand.

The pass imports panelalloc and loads the workload's scenario (timed as
set-up), runs the workload once (timed as wall time), records the peak
resident memory, then checks the outputs and writes one JSON result file. With
``--trace 1`` the public functions are wrapped before the scenario loads and
the per-layer metrics of the pass are added. ``--workload setup`` stops after
set-up. ``--program seed`` imports the frozen copy in ``perfbench/seedprog``
instead of ``src``. Exit code 3 means the program could not be imported or
set up.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROGRAMS = {"current": HERE.parent / "src", "seed": HERE / "seedprog"}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--program", choices=PROGRAMS, default="current")
    args = parser.parse_args()
    sys.path.insert(0, str(PROGRAMS[args.program]))

    start = time.perf_counter()
    try:
        import panelalloc
        import panelalloc.cli

        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        config, _ = panelalloc.load_scenario(args.scenario)
    except Exception as exc:
        print(f"set-up failed: {exc!r}", file=sys.stderr)
        return 3
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if args.workload != "setup":
        result.update(run_pass(args, config, tracer))
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_pass(args, config, tracer) -> dict:
    import numpy as np

    import checks
    import workloads

    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    checker = checks.Checker(reference[args.workload], checks.read_scenario(args.scenario))
    args.out.mkdir(parents=True, exist_ok=True)
    outcome = workloads.run(args.workload, args.out, args.seed, config, checker)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workloads.finish(outcome)
    digests = {
        str(path.relative_to(args.out)): checks.sha256(path)
        for path in sorted(args.out.rglob("*.csv"))
    }
    result = {
        "wall_s": outcome.wall_s,
        "peak_rss_mb": peak_rss_mb,
        "product": outcome.product,
        "ops": [
            {"name": op.name, "seconds": op.seconds, "failures": op.failures}
            for op in outcome.ops
        ],
        "digests": digests,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas(np),
            "threads": {
                key: os.environ.get(key)
                for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            },
        },
    }
    if tracer is not None:
        import tracer as tracing

        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(str(args.result.with_suffix(".spans.csv")))
    return result


def _blas(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
