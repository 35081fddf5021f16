"""Experiment CLI: SE distributions, exact sweeps and allocation tables.

Subcommands mirror the evaluation workflow: ``cdf`` (SE distribution per
method, analytic vs both Monte Carlo modes), ``sweep-se`` (outage and mean
SE vs target SE), ``sweep-snr`` (mean RSNR/SE vs transmit SNR), ``allocate``
(optimizer output vs target SE), ``pattern`` (beam patterns) and ``count``
(candidate-set sizes). All outputs are CSV files with a header comment line
recording the resolved configuration. Exit codes: 0 success, 2 usage
error (malformed option or scenario), 3 capacity exceeded (too many
allocation patterns, or no admissible AoD draw within the retry budget).
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analytic import (
    _se_bound,
    _se_means,
    average_rsnr,
    rsnr_mixture,
    score_allocations,
    se_cdf,
)
from .beamforming import (
    PanelAllocation,
    beam_pattern,
    build_beamformer,
    los_concentration,
    uniform_allocation,
    validate_allocation,
)
from .channel import sample_channel
from .config import SystemConfig, linear_to_db, load_scenario
from .errors import CapacityError, ConfigurationError, SamplingError
from .export import (
    write_candidates_csv,
    write_columns_csv,
    write_csv,
    write_samples_csv,
    write_summary_csv,
)
from .montecarlo import MODES, run_batches
from .optimizer import allocation_array, outmin_reports, pattern_count

METHODS = ("los", "uniform", "outmin", "outmin_ase")
DESIGNS = ("outmin", "outmin_ase")

DEFAULT_SEED = 2025
DEFAULT_TRIALS = 100_000
DEFAULT_EPSILON = 0.05


@dataclass
class ExperimentSpec:
    """Resolved inputs of one CLI invocation."""

    config: SystemConfig
    methods: tuple[str, ...]
    seed: int
    trials: int
    epsilon: float
    target_se: float
    output_dir: Path
    se_grid: np.ndarray | None = None
    snr_grid_db: np.ndarray | None = None
    alloc_override: tuple[int, ...] | None = None
    pattern_points: int = 721
    np_values: tuple[int, ...] = (2, 4, 8, 16)
    paths_range: tuple[int, int] = (2, 8)
    dump_samples: bool = False
    dump_candidates: bool = False

    def comment(self, command: str, sampled: bool = True, **extra) -> str:
        """The '#' line: command, configuration, and seed and trials if the file is sampled."""
        parts = [f"command={command}", self.config.summary()]
        if sampled:
            parts += [f"seed={self.seed}", f"trials={self.trials}"]
        parts += [f"epsilon={self.epsilon:.6g}"]
        parts += [f"{k}={v}" for k, v in extra.items()]
        return " ".join(parts)


def _optimize(spec: ExperimentSpec, designs, target_ses, config: SystemConfig):
    """Reports of optimizer designs (``outmin``, ``outmin_ase``) at each target SE.

    One profile table, scored once, serves every design and target:
    ``reports[design][j]`` is the report at target_ses[j].
    """
    epsilons = [0.0 if design == "outmin" else spec.epsilon for design in designs]
    return dict(zip(designs, outmin_reports(config, target_ses, epsilons)))


def resolve_allocations(
    spec: ExperimentSpec, config: SystemConfig | None = None
) -> dict[str, PanelAllocation]:
    """Allocation of every method of the spec at its target SE.

    Both optimizer designs come from one ``_optimize`` call, so one profile
    table is built and scored per configuration.
    """
    cfg = config if config is not None else spec.config
    designs = [m for m in spec.methods if m in DESIGNS]
    searched = _optimize(spec, designs, [spec.target_se], cfg) if designs else {}
    allocs = {}
    for method in spec.methods:
        if method == "los":
            allocs[method] = los_concentration(cfg)
        elif method == "uniform":
            allocs[method] = uniform_allocation(cfg)
        elif method in searched:
            allocs[method] = searched[method][0].chosen
        else:
            raise ConfigurationError(f"unknown method {method!r}")
    return allocs


def resolve_allocation(spec: ExperimentSpec, method: str, config: SystemConfig | None = None):
    """Allocation used by a named method at the spec's target SE."""
    return resolve_allocations(replace(spec, methods=(method,)), config)[method]


def cmd_cdf(spec: ExperimentSpec) -> list[Path]:
    """Per-method SE CDF: analytic curve plus both Monte Carlo modes."""
    aods = sample_channel(spec.config, rng=np.random.default_rng(spec.seed)).aods
    allocs = resolve_allocations(spec)
    # every design and both modes from one pass over common random numbers; the
    # CDF columns come from counts, so the samples are kept only for the dump
    batches = run_batches(
        spec.config, allocs.values(), aods, spec.trials, spec.seed, MODES,
        se_grid=spec.se_grid, keep_samples=spec.dump_samples,
    )
    written = []
    for method, alloc in allocs.items():
        mix = rsnr_mixture(alloc, spec.config)
        ideal, real = (batches[mode, alloc.q] for mode in MODES)
        comment = spec.comment(
            "cdf", method=method, q="/".join(map(str, alloc.q)), target_se=spec.target_se
        )
        written.append(
            write_columns_csv(
                spec.output_dir / f"cdf_{method}.csv",
                comment,
                {
                    "se_bits": spec.se_grid,
                    "cdf_analytic": se_cdf(mix, spec.se_grid),
                    "cdf_mc_idealized": ideal.cdf_counts / spec.trials,
                    "cdf_mc_realistic": real.cdf_counts / spec.trials,
                },
            )
        )
        written.append(
            write_summary_csv(spec.output_dir / f"summary_{method}.csv", comment, [ideal, real])
        )
        if spec.dump_samples:
            for result in (ideal, real):
                written.append(
                    write_samples_csv(
                        spec.output_dir / f"samples_{method}_{result.mode}.csv", comment, result
                    )
                )
    return written


def cmd_sweep_target_se(spec: ExperimentSpec) -> list[Path]:
    """Outage probability and exact mean SE as functions of the target SE."""
    grid = spec.se_grid
    designs = [m for m in spec.methods if m in DESIGNS]
    searched = _optimize(spec, designs, grid, spec.config) if designs else {}
    fixed = {m: resolve_allocation(spec, m) for m in spec.methods if m not in searched}
    chosen = {m: [r.chosen for r in reports] for m, reports in searched.items()}
    chosen |= {m: [alloc] * grid.size for m, alloc in fixed.items()}
    # one mixture per distinct allocation, and all of their means from one evaluation
    distinct = {a.q: a for allocs in chosen.values() for a in allocs}
    mixtures = {q: rsnr_mixture(a, spec.config) for q, a in distinct.items()}
    means = dict(zip(mixtures, _se_means(list(mixtures.values()))))
    columns: dict[str, np.ndarray] = {"xi_th": grid}
    for method in spec.methods:
        if method in searched:
            outage = np.array([r.outage for r in searched[method]])
        else:
            outage = se_cdf(mixtures[fixed[method].q], grid)
        columns[f"outage_{method}"] = outage
        columns[f"mean_se_{method}"] = np.array([means[a.q] for a in chosen[method]])
    path = write_columns_csv(
        spec.output_dir / "sweep_se.csv", spec.comment("sweep-se", sampled=False), columns
    )
    return [path]


def cmd_sweep_tx_snr(spec: ExperimentSpec) -> list[Path]:
    """Mean RSNR, Jensen SE bound and exact mean SE vs transmit SNR."""
    per_method: dict[str, list[tuple[float, float]]] = {m: [] for m in spec.methods}
    mixtures = []
    for snr in spec.snr_grid_db:
        cfg = replace(spec.config, tx_snr=10.0 ** (snr / 10.0))
        for method, alloc in resolve_allocations(spec, cfg).items():
            mean = average_rsnr(alloc, cfg)
            per_method[method].append((linear_to_db(mean), _se_bound(mean)))
            mixtures.append(rsnr_mixture(alloc, cfg))
    # every cell's exact mean SE from one evaluation, one row per SNR
    mean_se = np.reshape(_se_means(mixtures), (spec.snr_grid_db.size, len(per_method)))

    columns: dict[str, np.ndarray] = {"tx_snr_db": spec.snr_grid_db}
    for j, (method, rows) in enumerate(per_method.items()):
        avg_db, bound = np.array(rows).T
        columns[f"avg_rsnr_db_{method}"] = avg_db
        columns[f"se_bound_{method}"] = bound
        columns[f"mean_se_{method}"] = mean_se[:, j]
    path = write_columns_csv(
        spec.output_dir / "sweep_snr.csv",
        spec.comment("sweep-snr", sampled=False, target_se=spec.target_se),
        columns,
    )
    return [path]


def cmd_allocate(spec: ExperimentSpec) -> list[Path]:
    """Optimizer allocations, outage, mean RSNR and G_LoS across target SEs."""
    config = spec.config
    header = ["xi_th"]
    for tag in DESIGNS:
        header += [f"q_{l + 1}_{tag}" for l in range(config.num_paths)]
        header += [f"outage_{tag}", f"avg_rsnr_db_{tag}", f"g_los_{tag}"]
    # the dump's target rides along as one more column of the same table
    targets = np.append(spec.se_grid, spec.target_se) if spec.dump_candidates else spec.se_grid
    reports = _optimize(spec, DESIGNS, targets, config)
    rows = []
    for j, xi in enumerate(spec.se_grid):
        row = [float(xi)]
        for tag in DESIGNS:
            report = reports[tag][j]
            row += list(report.chosen.q)
            row += [report.outage, linear_to_db(report.avg_rsnr), report.g_los]
        rows.append(row)
    written = [
        write_csv(spec.output_dir / "allocate.csv", spec.comment("allocate"), header, rows)
    ]
    if spec.dump_candidates:
        # every composition, scored once; each design's searched choice is flagged
        q = allocation_array(config.n_p, config.num_paths)
        outages, avgs = score_allocations(q, config, spec.target_se)
        for tag in DESIGNS:
            written.append(
                write_candidates_csv(
                    spec.output_dir / f"candidates_{tag}.csv",
                    spec.comment("allocate", target_se=spec.target_se, alg=tag),
                    replace(reports[tag][-1], allocations=q, outages=outages, avg_rsnrs=avgs),
                )
            )
    return written


def cmd_pattern(spec: ExperimentSpec) -> list[Path]:
    """Beam-pattern magnitude over [0, 180] degrees for each method."""
    aods = sample_channel(spec.config, rng=np.random.default_rng(spec.seed)).aods
    theta_deg = np.linspace(0.0, 180.0, spec.pattern_points)
    theta_rad = np.radians(theta_deg)
    written = []
    targets = resolve_allocations(spec)
    if spec.alloc_override is not None:
        targets["custom"] = PanelAllocation(spec.alloc_override)
    # one steering matrix for every beamformer
    gains = beam_pattern(
        np.array([build_beamformer(alloc, aods, spec.config) for alloc in targets.values()]),
        theta_rad,
    )
    for (name, alloc), gain in zip(targets.items(), gains):
        comment = spec.comment(
            "pattern",
            method=name,
            q="/".join(map(str, alloc.q)),
            aods_deg="/".join(f"{np.degrees(a):.3f}" for a in aods),
        )
        path = spec.output_dir / f"pattern_{name}.csv"
        written.append(write_columns_csv(path, comment, {"theta_deg": theta_deg, "gain_abs": gain}))
    return written


def cmd_count(spec: ExperimentSpec) -> list[Path]:
    """Candidate-set size for each (number of panels, number of paths) pair."""
    lo, hi = spec.paths_range
    rows = [
        (n_p, L, pattern_count(n_p, L))
        for n_p in spec.np_values
        for L in range(lo, hi + 1)
    ]
    path = write_csv(
        spec.output_dir / "count.csv",
        spec.comment("count"),
        ["n_p", "num_paths", "count"],
        rows,
    )
    return [path]


# argparse reports a ValueError from these as "invalid <name> value", exit 2
def float_list(text: str) -> np.ndarray:
    return np.asarray([float(v) for v in text.split(",") if v.strip()])


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


@functools.cache  # built once per process, where main may run many times
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panelalloc",
        description="Multi-panel beamforming under blockage: experiments and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", type=Path, default=None, help="scenario file path")
    common.add_argument("--seed", type=int, default=None, help="RNG seed (overrides scenario)")
    common.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="Monte Carlo trials")
    common.add_argument(
        "--epsilon", type=float, default=DEFAULT_EPSILON, help="outage slack for outmin_ase"
    )
    common.add_argument("--out", type=Path, default=Path("results"), help="output directory")
    common.add_argument(
        "--methods",
        type=str,
        default="los,uniform,outmin,outmin_ase",
        help="comma-separated subset of: " + ",".join(METHODS),
    )
    common.add_argument("--target-se", type=float, default=1.0, help="target SE in bits/s/Hz")

    p = sub.add_parser("cdf", parents=[common], help="SE CDF per method")
    p.add_argument("--se-min", type=float, default=0.0)
    p.add_argument("--se-max", type=float, default=10.0)
    p.add_argument("--se-points", type=int, default=101)
    p.add_argument("--dump-samples", action="store_true", help="write per-trial SE dumps")

    p = sub.add_parser("sweep-se", parents=[common], help="outage and mean SE vs target SE")
    p.add_argument("--se-min", type=float, default=0.25)
    p.add_argument("--se-max", type=float, default=8.0)
    p.add_argument("--se-points", type=int, default=32)

    p = sub.add_parser("sweep-snr", parents=[common], help="mean RSNR and SE vs transmit SNR")
    p.add_argument("--snr-db", type=float_list, default="0,5,10,15,20", help="dB values")

    p = sub.add_parser("allocate", parents=[common], help="optimizer table vs target SE")
    p.add_argument("--se-min", type=float, default=0.25)
    p.add_argument("--se-max", type=float, default=8.0)
    p.add_argument("--se-points", type=int, default=32)
    p.add_argument(
        "--dump-candidates", action="store_true", help="write full candidate tables"
    )

    p = sub.add_parser("pattern", parents=[common], help="beam pattern per method")
    p.add_argument("--points", type=int, default=721)
    p.add_argument("--alloc", type=int_list, default=None, help="explicit allocation, e.g. 2,2,2,2")

    p = sub.add_parser("count", parents=[common], help="candidate-set sizes")
    p.add_argument("--n-p", type=int_list, default="2,4,8,16", help="panel counts, comma-separated")
    p.add_argument("--l-min", type=int, default=2)
    p.add_argument("--l-max", type=int, default=8)

    return parser


def _spec_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> ExperimentSpec:
    if args.scenario is not None:
        try:
            config, scenario_seed = load_scenario(args.scenario)
        except (OSError, UnicodeDecodeError) as exc:
            parser.error(f"cannot read scenario {args.scenario}: {exc}")
    else:
        config, scenario_seed = SystemConfig(), DEFAULT_SEED
    seed = args.seed if args.seed is not None else scenario_seed
    if seed < 0:
        parser.error("seed must be nonnegative")

    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if not methods:
        parser.error("at least one method is required")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        parser.error(f"unknown methods: {','.join(unknown)}")

    if args.trials < 1:
        parser.error("trials must be >= 1")
    out = args.out.resolve()
    existing = next(d for d in (out, *out.parents) if d.exists())
    if not existing.is_dir():
        parser.error(f"--out {args.out}: {existing} is not a directory")
    if not 0.0 <= args.target_se < np.inf:
        parser.error("target SE must be finite and nonnegative")
    se_grid = None
    if hasattr(args, "se_min"):
        if not np.all(np.isfinite([args.se_min, args.se_max])):
            parser.error("SE grid bounds must be finite")
        if args.se_points < 1 or args.se_max <= args.se_min:
            parser.error("SE grid must be strictly increasing")
        if not args.se_min >= 0.0:
            parser.error("SE grid must be nonnegative")
        se_grid = np.linspace(args.se_min, args.se_max, args.se_points)
    snr_grid_db = getattr(args, "snr_db", None)
    if snr_grid_db is not None and (snr_grid_db.size == 0 or np.any(np.diff(snr_grid_db) <= 0)):
        parser.error("SNR grid must be strictly increasing")
    if snr_grid_db is not None and not np.all(np.isfinite(snr_grid_db)):
        parser.error("SNR values must be finite")
    if args.command == "count" and (not args.n_p or args.l_min > args.l_max):
        parser.error("count needs at least one panel count and --l-min <= --l-max")
    if getattr(args, "points", 1) < 1:
        parser.error("pattern needs at least one point")
    alloc_override = getattr(args, "alloc", None)
    if alloc_override is not None:
        validate_allocation(PanelAllocation(alloc_override), config)

    return ExperimentSpec(
        config=config,
        methods=methods,
        seed=seed,
        trials=args.trials,
        epsilon=args.epsilon,
        target_se=args.target_se,
        output_dir=args.out,
        se_grid=se_grid,
        snr_grid_db=snr_grid_db,
        alloc_override=alloc_override,
        pattern_points=getattr(args, "points", 721),
        np_values=getattr(args, "n_p", (2, 4, 8, 16)),
        paths_range=(getattr(args, "l_min", 2), getattr(args, "l_max", 8)),
        dump_samples=getattr(args, "dump_samples", False),
        dump_candidates=getattr(args, "dump_candidates", False),
    )


_COMMANDS = {
    "cdf": cmd_cdf,
    "sweep-se": cmd_sweep_target_se,
    "sweep-snr": cmd_sweep_tx_snr,
    "allocate": cmd_allocate,
    "pattern": cmd_pattern,
    "count": cmd_count,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _spec_from_args(parser, args)
        written = _COMMANDS[args.command](spec)
    except (CapacityError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
