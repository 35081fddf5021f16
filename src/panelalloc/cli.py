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
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analytic import (
    _se_means, average_rsnr, average_se_upper_bound, rsnr_mixture, score_allocations, se_cdf,
)
from .beamforming import (
    PanelAllocation, beam_pattern, build_beamformer, los_concentration, uniform_allocation,
    validate_allocation,
)
from .channel import sample_channel
from .config import _SEED_LIMIT, SystemConfig, db_to_linear, linear_to_db, load_scenario
from .errors import CapacityError, ConfigurationError, SamplingError
from .export import write_csv
from .montecarlo import MODES, run_batches
from .optimizer import allocation_array, outmin_reports, pattern_count

METHODS = ("los", "uniform", "outmin", "outmin_ase")
DESIGNS = ("outmin", "outmin_ase")

DEFAULT_SEED = 2025
DEFAULT_TRIALS = 100_000
DEFAULT_EPSILON = 0.05
# what a command reads of seed, trials and epsilon; the sweeps and allocate read epsilon only
_READS = {"cdf": ("seed", "trials", "epsilon"), "pattern": ("seed", "epsilon"), "count": ()}


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

    def comment(self, command: str, **extra) -> str:
        """The '#' line: command, configuration, the seed, trials and epsilon it reads, extra."""
        values = {"seed": self.seed, "trials": self.trials, "epsilon": f"{self.epsilon:.6g}"}
        reads = {k: values[k] for k in _READS.get(command, ("epsilon",))}
        parts = [f"command={command}", self.config.summary()]
        return " ".join(parts + [f"{k}={v}" for k, v in (reads | extra).items()])


def _allocations(spec: ExperimentSpec, targets, config: SystemConfig) -> dict[str, list]:
    """Every method's allocation at each target SE; one ``outmin_reports`` call searches
    for the designs, and without a design no table is built."""
    if not set(spec.methods) <= set(METHODS):
        raise ConfigurationError(f"unknown method in {spec.methods}")
    designs = [m for m in spec.methods if m in DESIGNS]
    epsilons = [0.0 if design == "outmin" else spec.epsilon for design in designs]
    reports = outmin_reports(config, targets, epsilons) if designs else []
    picks = {m: [r.chosen for r in rs] for m, rs in zip(designs, reports)}
    fixed = {"los": los_concentration, "uniform": uniform_allocation}
    return {m: picks[m] if m in picks else [fixed[m](config)] * len(targets) for m in spec.methods}


def resolve_allocations(
    spec: ExperimentSpec, config: SystemConfig | None = None
) -> dict[str, PanelAllocation]:
    """Allocation of every method of the spec at its target SE, from one scored table."""
    cfg = config if config is not None else spec.config
    return {m: allocs[0] for m, allocs in _allocations(spec, [spec.target_se], cfg).items()}


def resolve_allocation(spec: ExperimentSpec, method: str, config: SystemConfig | None = None):
    """Allocation used by a named method at the spec's target SE."""
    return resolve_allocations(replace(spec, methods=(method,)), config)[method]


def _columns(names, rows) -> dict[str, list]:
    """Rows of Python values as named columns."""
    return dict(zip(names, map(list, zip(*rows))))


def _summary_columns(results) -> dict[str, list]:
    """Batch summaries: mode, trials, seed, mean SE and mean RSNR in dB."""
    rows = [(r.mode, r.trials, r.seed, r.mean_se, linear_to_db(r.mean_rsnr)) for r in results]
    return _columns(("mode", "trials", "seed", "mean_se", "mean_rsnr_db"), rows)


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
    out, written = spec.output_dir, []
    for method, alloc in allocs.items():
        results = [batches[mode, alloc.q] for mode in MODES]
        q = "/".join(map(str, alloc.q))
        comment = spec.comment("cdf", method=method, q=q, target_se=spec.target_se)
        columns = {
            "se_bits": spec.se_grid,
            "cdf_analytic": se_cdf(rsnr_mixture(alloc, spec.config), spec.se_grid),
        }
        columns |= {f"cdf_mc_{r.mode}": r.cdf_counts / spec.trials for r in results}
        written.append(write_csv(out / f"cdf_{method}.csv", comment, columns))
        written.append(write_csv(out / f"summary_{method}.csv", comment, _summary_columns(results)))
        if spec.dump_samples:
            for r in results:
                samples = {"trial": range(r.trials), "se_bits": r.se_samples}
                written.append(write_csv(out / f"samples_{method}_{r.mode}.csv", comment, samples))
    return written


def cmd_sweep_target_se(spec: ExperimentSpec) -> list[Path]:
    """Outage probability and exact mean SE as functions of the target SE."""
    config, grid = spec.config, spec.se_grid
    chosen = _allocations(spec, grid, config)
    # every outage cell from one table of the distinct allocations at the grid, and
    # every mean from one evaluation of their mixtures
    distinct = {a.q: a for allocs in chosen.values() for a in allocs}
    row = {q: i for i, q in enumerate(distinct)}
    outages = score_allocations(np.array(list(distinct)), config, grid)[0]
    means = dict(zip(distinct, _se_means([rsnr_mixture(a, config) for a in distinct.values()])))
    columns: dict[str, np.ndarray] = {"xi_th": grid}
    for method, allocs in chosen.items():
        columns[f"outage_{method}"] = outages[[row[a.q] for a in allocs], np.arange(grid.size)]
        columns[f"mean_se_{method}"] = np.array([means[a.q] for a in allocs])
    comment = spec.comment("sweep-se")
    return [write_csv(spec.output_dir / "sweep_se.csv", comment, columns)]


def cmd_sweep_tx_snr(spec: ExperimentSpec) -> list[Path]:
    """Mean RSNR, Jensen SE bound and exact mean SE vs transmit SNR."""
    per_method: dict[str, list[tuple[float, float]]] = {m: [] for m in spec.methods}
    mixtures = []
    for snr in spec.snr_grid_db:
        cfg = replace(spec.config, tx_snr=10.0 ** (snr / 10.0))
        for method, alloc in resolve_allocations(spec, cfg).items():
            mean_db = linear_to_db(average_rsnr(alloc, cfg))
            per_method[method].append((mean_db, average_se_upper_bound(alloc, cfg)))
            mixtures.append(rsnr_mixture(alloc, cfg))
    # every cell's exact mean SE from one evaluation, one row per SNR
    mean_se = np.reshape(_se_means(mixtures), (spec.snr_grid_db.size, len(per_method)))
    columns: dict[str, np.ndarray] = {"tx_snr_db": spec.snr_grid_db}
    for j, (method, rows) in enumerate(per_method.items()):
        avg_db, bound = np.array(rows).T
        columns[f"avg_rsnr_db_{method}"] = avg_db
        columns[f"se_bound_{method}"] = bound
        columns[f"mean_se_{method}"] = mean_se[:, j]
    comment = spec.comment("sweep-snr", target_se=spec.target_se)
    return [write_csv(spec.output_dir / "sweep_snr.csv", comment, columns)]


def cmd_allocate(spec: ExperimentSpec) -> list[Path]:
    """Optimizer allocations, outage, mean RSNR and G_LoS across target SEs."""
    config, grid = spec.config, spec.se_grid
    # the dump's target rides along as one more column of the same table
    targets = np.append(grid, spec.target_se) if spec.dump_candidates else grid
    reports = dict(zip(DESIGNS, outmin_reports(config, targets, [0.0, spec.epsilon])))
    columns: dict[str, object] = {"xi_th": grid}
    for tag in DESIGNS:
        chosen = reports[tag][: grid.size]
        q = np.array([r.chosen.q for r in chosen])
        columns |= {f"q_{l + 1}_{tag}": q[:, l] for l in range(config.num_paths)}
        columns[f"outage_{tag}"] = [r.outage for r in chosen]
        columns[f"avg_rsnr_db_{tag}"] = [linear_to_db(r.avg_rsnr) for r in chosen]
        columns[f"g_los_{tag}"] = [r.g_los for r in chosen]
    out = spec.output_dir
    written = [write_csv(out / "allocate.csv", spec.comment("allocate"), columns)]
    if spec.dump_candidates:
        # every composition, scored once; each design's searched choice is flagged
        q = allocation_array(config.n_p, config.num_paths)
        outages, avgs = score_allocations(q, config, spec.target_se)
        columns = {f"q_{l + 1}": q[:, l] for l in range(config.num_paths)}
        # math.log10 per value: 10 * np.log10 differs in the last digit of some cells
        columns |= {"outage": outages, "avg_rsnr_db": list(map(linear_to_db, avgs.tolist()))}
        for tag in DESIGNS:
            flag = {"chosen": np.all(q == reports[tag][-1].chosen.q, axis=1).astype(int)}
            comment = spec.comment("allocate", target_se=spec.target_se, alg=tag)
            written.append(write_csv(out / f"candidates_{tag}.csv", comment, columns | flag))
    return written


def cmd_pattern(spec: ExperimentSpec) -> list[Path]:
    """Beam-pattern magnitude over [0, 180] degrees for each method."""
    aods = sample_channel(spec.config, rng=np.random.default_rng(spec.seed)).aods
    theta_deg = np.linspace(0.0, 180.0, spec.pattern_points)
    targets = resolve_allocations(spec)
    if spec.alloc_override is not None:
        targets["custom"] = PanelAllocation(spec.alloc_override)
    # one pair of phase tables for every beamformer
    beams = np.array([build_beamformer(alloc, aods, spec.config) for alloc in targets.values()])
    aods_deg = "/".join(f"{np.degrees(a):.3f}" for a in aods)
    written = []
    for (name, alloc), gain in zip(targets.items(), beam_pattern(beams, np.radians(theta_deg))):
        q = "/".join(map(str, alloc.q))
        comment = spec.comment("pattern", method=name, q=q, aods_deg=aods_deg)
        columns = {"theta_deg": theta_deg, "gain_abs": gain}
        written.append(write_csv(spec.output_dir / f"pattern_{name}.csv", comment, columns))
    return written


def cmd_count(spec: ExperimentSpec) -> list[Path]:
    """Candidate-set size for each (number of panels, number of paths) pair."""
    lo, hi = spec.paths_range
    rows = [(n_p, L, pattern_count(n_p, L)) for n_p in spec.np_values for L in range(lo, hi + 1)]
    columns = _columns(("n_p", "num_paths", "count"), rows)
    return [write_csv(spec.output_dir / "count.csv", spec.comment("count"), columns)]


# Option types: argparse reports a ValueError from one as "invalid <name> value"
# and an ArgumentTypeError by its message, both with exit 2.
def _checked(convert, ok, message: str):
    """``convert``, then exit 2 with ``message`` unless ``ok`` holds for the value."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value
    parse.__name__ = convert.__name__  # "invalid float value: 'x'", as for a plain float
    return parse


def _positive(message: str):
    return _checked(int, lambda v: v >= 1, message)


def float_list(text: str) -> np.ndarray:
    """Comma-separated, strictly increasing transmit SNRs in dB, each with a finite linear value."""
    values = np.asarray([float(v) for v in text.split(",") if v.strip()])
    try:
        linear = [db_to_linear(v) for v in values.tolist()]  # OverflowError past ~3082 dB
    except OverflowError:
        linear = [math.inf]
    if not np.isfinite(np.append(values, linear)).all():
        raise argparse.ArgumentTypeError("SNR values must be finite")
    if values.size == 0 or np.any(np.diff(values) <= 0):
        raise argparse.ArgumentTypeError("SNR grid must be strictly increasing")
    return values


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


@functools.cache  # built once per process, where main may run many times
def build_parser() -> argparse.ArgumentParser:
    """The parser; options are named after the ``ExperimentSpec`` fields they fill."""
    parser = argparse.ArgumentParser(
        prog="panelalloc",
        description="Multi-panel beamforming under blockage: experiments and sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", type=Path, default=None, help="scenario file path")
    seed = _checked(int, lambda v: 0 <= v < _SEED_LIMIT, "seed must be in [0, 2^32)")
    common.add_argument("--seed", type=seed, default=None, help="RNG seed (overrides scenario)")
    trials = _positive("trials must be >= 1")
    common.add_argument("--trials", type=trials, default=DEFAULT_TRIALS, help="Monte Carlo trials")
    epsilon = _checked(float, lambda v: 0 <= v <= 1, "epsilon must be in [0, 1]")
    common.add_argument(
        "--epsilon", type=epsilon, default=DEFAULT_EPSILON, help="outage slack for outmin_ase"
    )
    common.add_argument("--out", dest="output_dir", metavar="OUT", type=Path,
                        default=Path("results"), help="output directory")
    common.add_argument("--methods", type=str, default="los,uniform,outmin,outmin_ase",
                        help="comma-separated subset of: " + ",".join(METHODS))
    target_se = _checked(float, lambda v: 0 <= v < math.inf,
                         "target SE must be finite and nonnegative")
    common.add_argument("--target-se", type=target_se, default=1.0, help="target SE in bits/s/Hz")

    finite = _checked(float, math.isfinite, "SE grid bounds must be finite")
    se_bound = _checked(finite, lambda v: v >= 0.0, "SE grid must be nonnegative")
    se_points = _positive("SE grid must be strictly increasing")

    def subcommand(name, help, se_grid=None):
        """A subparser with the common options and, given (min, max, points), an SE grid."""
        p = sub.add_parser(name, parents=[common], help=help)
        if se_grid is not None:
            p.add_argument("--se-min", type=se_bound, default=se_grid[0])
            p.add_argument("--se-max", type=se_bound, default=se_grid[1])
            p.add_argument("--se-points", type=se_points, default=se_grid[2])
        return p

    p = subcommand("cdf", "SE CDF per method", (0.0, 10.0, 101))
    p.add_argument("--dump-samples", action="store_true", help="write per-trial SE dumps")
    subcommand("sweep-se", "outage and mean SE vs target SE", (0.25, 8.0, 32))
    p = subcommand("sweep-snr", "mean RSNR and SE vs transmit SNR")
    p.add_argument("--snr-db", dest="snr_grid_db", metavar="SNR_DB", type=float_list,
                   default="0,5,10,15,20", help="dB values")
    p = subcommand("allocate", "optimizer table vs target SE", (0.25, 8.0, 32))
    p.add_argument("--dump-candidates", action="store_true", help="write full candidate tables")
    p = subcommand("pattern", "beam pattern per method")
    p.add_argument("--points", dest="pattern_points", metavar="POINTS",
                   type=_positive("pattern needs at least one point"),
                   default=ExperimentSpec.pattern_points)
    p.add_argument("--alloc", dest="alloc_override", metavar="ALLOC", type=int_list,
                   default=None, help="explicit allocation, e.g. 2,2,2,2")
    p = subcommand("count", "candidate-set sizes")
    p.add_argument("--n-p", dest="np_values", metavar="N_P", type=int_list,
                   default=ExperimentSpec.np_values, help="panel counts, comma-separated")
    p.add_argument("--l-min", type=int, default=ExperimentSpec.paths_range[0])
    p.add_argument("--l-max", type=int, default=ExperimentSpec.paths_range[1])
    return parser


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """The spec of parsed options, after the checks that need several values or the files."""
    error = build_parser().error
    if args.scenario is not None:
        try:
            config, scenario_seed = load_scenario(args.scenario)
        except (OSError, UnicodeDecodeError) as exc:
            error(f"cannot read scenario {args.scenario}: {exc}")
    else:
        config, scenario_seed = SystemConfig(), DEFAULT_SEED

    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    if not methods:
        error("at least one method is required")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        error(f"unknown methods: {','.join(unknown)}")

    out = args.output_dir.resolve()
    existing = next(d for d in (out, *out.parents) if d.exists())
    if not existing.is_dir():
        error(f"--out {args.output_dir}: {existing} is not a directory")
    seed = args.seed if args.seed is not None else scenario_seed
    fields = dict(config=config, methods=methods, seed=seed)
    if hasattr(args, "se_min"):
        if args.se_max <= args.se_min:
            error("SE grid must be strictly increasing")
        fields["se_grid"] = np.linspace(args.se_min, args.se_max, args.se_points)
    if args.command == "count":
        if not args.np_values or args.l_min > args.l_max:
            error("count needs at least one panel count and --l-min <= --l-max")
        fields["paths_range"] = (args.l_min, args.l_max)
    if getattr(args, "alloc_override", None) is not None:
        validate_allocation(PanelAllocation(args.alloc_override), config)
    named = {k: v for k, v in vars(args).items() if k in ExperimentSpec.__dataclass_fields__}
    return ExperimentSpec(**named | fields)


_COMMANDS = {
    "cdf": cmd_cdf, "sweep-se": cmd_sweep_target_se, "sweep-snr": cmd_sweep_tx_snr,
    "allocate": cmd_allocate, "pattern": cmd_pattern, "count": cmd_count,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        written = _COMMANDS[args.command](_spec_from_args(args))
    except (CapacityError, SamplingError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigurationError) else 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
