"""Dual-mode Monte Carlo engine for the post-beamforming SE distribution.

Idealized mode reproduces the assumptions behind the closed-form analysis:
main-lobe-only equivalent response (N_a/sqrt(N_t)) q and blocked paths
nulled. It is the oracle the analytic module is validated against.
Realistic mode keeps the exact array responses (side lobes included) and
attenuates blocked served paths by 1/eta instead of nulling them; unserved
paths have no beam and are nulled when blocked.

``run_batches`` draws no path gains: given a frame's blockage, h_eq is
CN(0, v) with v = sum_l omega_l^2 |a_eq,l|^2 sigma_l^2, so its RSNR is
E sum_l omega_l^2 P_l, with E ~ Exp(1) and P_l = tx_snr |a_eq,l|^2 sigma_l^2.
Trials come in chunks of ``CHUNK_TRIALS`` = 2^15 rows (the last shorter), a
size that is part of the stream contract. Chunk c draws from SFC64 generators keyed by
``SeedSequence(entropy=(seed, c, s))``: stream 0 one ``standard_exponential``
row of E, and stream 1 + ``MODES.index(mode)`` each mode's patterns as
``channel._draw_patterns`` draws them: a node row when a node is drawn, then
one uniform row per group of 8 paths, in order. A result's RSNR row is E times
its ``channel._pattern_scales`` tables read at the index rows, in an order an
oracle can replay. The worker takes the SE, log1p(RSNR) / ln 2, in place,
stores both sums, copies it into the kept samples and, given an SE grid, sorts
it and adds its counts, so ``cdf`` holds no trial-length array. A mode's
frames do not depend on which other modes or allocations share the call.
min(len(os.sched_getaffinity(0)), chunks) threads fill the chunks, as numpy
releases the interpreter lock; each owns chunk-sized rows: float E, uniform
and SE rows, a bool row and an intp row per group (two more when a node is
drawn), 33 bytes a row up to 8 paths, about 1.1 MB. Results are bit-identical
to a serial pass over the chunks.

``ks_distance`` reads the samples a piece at a time: one pass for their
range, one to count them into value cells whose edges bound each cell's
deviation, and one per gather of the cells that can hold the distance
(once on the 10^6-sample oracle designs), holding a few cell- and
piece-length arrays, never a sorted copy.
"""

from __future__ import annotations

import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .beamforming import (
    PanelAllocation,
    build_beamformer,
    equivalent_array_response_approx,
    equivalent_array_response_exact,
    validate_allocation,
)
from .channel import _blocked_amplitudes, _draw_patterns, _pattern_scales, _pattern_tables
from .channel import path_variances
from .config import _SEED_LIMIT, SystemConfig
from .errors import ConfigurationError

CHUNK_TRIALS = 1 << 15  # rows of a chunk: part of the stream contract
_LOG2_E = 1.0 / np.log(2.0)  # SE = log1p(RSNR) * _LOG2_E, positive for any RSNR > 0

MODES = ("idealized", "realistic")


@dataclass
class TrialBatchResult:
    """Summary statistics of one simulation batch, with its per-trial SE
    samples and its counts at an SE grid when the call asked for them."""

    se_samples: np.ndarray | None
    mean_se: float
    mean_rsnr: float
    trials: int
    seed: int
    mode: str
    cdf_counts: np.ndarray | None = None


def _chunk_rng(seed: int, chunk_index: int, *stream: int) -> np.random.Generator:
    # SeedSequence pads its entropy with zeros, so (seed, chunk_index) is stream 0
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=(seed, chunk_index, *stream)))
    )


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _responses(config: SystemConfig, alloc: PanelAllocation, aods: np.ndarray, mode: str):
    """(P, blocked powers) of an allocation in a mode, float (L,): P_l = tx_snr |a_eq,l|^2
    sigma_l^2, and the factor of P_l on a blocked path, its blocked value squared: 0 in
    idealized mode, ``channel._blocked_amplitudes`` squared in realistic mode."""
    variances = path_variances(config.rician_k, config.num_paths)
    if mode == "idealized":
        a_eq, blocked = equivalent_array_response_approx(alloc, config), np.zeros(config.num_paths)
    else:
        a_eq = equivalent_array_response_exact(aods, build_beamformer(alloc, aods, config))
        blocked = _blocked_amplitudes(alloc.as_array(), config.n_a)
    return config.tx_snr * np.abs(a_eq) ** 2 * variances, blocked**2


def run_batches(
    config: SystemConfig,
    allocs,
    aods: np.ndarray,
    n_trials: int,
    seed: int,
    modes=MODES,
    se_grid=None,
    keep_samples: bool = True,
) -> dict[tuple[str, tuple[int, ...]], TrialBatchResult]:
    """Simulate n_trials frames for every allocation in every mode.

    Returns ``{(mode, alloc.q): TrialBatchResult}``, one per distinct allocation
    and mode. Every frame redraws E and its blockage pattern, which all
    allocations share within a mode; each result is the one a call with its
    allocation and mode alone gives, bit for bit, whatever the scheduling. A
    frame's RSNR is E sum_g S_g[K_g] over its groups' sub-patterns, in order,
    S_g[k] summing (b_l^2 if l is blocked in k, else 1) P_l over the group in
    path order, b_l the blocked amplitude; its SE is log1p(RSNR) / ln 2. The
    means are the ``np.sum`` of the chunks' ``np.sum``s over n_trials. Samples
    are kept if ``keep_samples``; with an ``se_grid``, ``cdf_counts`` holds the
    number of samples <= each of its points.
    """
    if type(n_trials) is bool or not isinstance(n_trials, numbers.Integral) or n_trials < 1:
        raise ConfigurationError(f"n_trials must be an integer >= 1, got {n_trials!r}")
    if type(seed) is bool or not isinstance(seed, numbers.Integral) or not 0 <= seed < _SEED_LIMIT:
        raise ConfigurationError(f"seed must be an integer in [0, 2^32), got {seed!r}")
    modes = tuple(dict.fromkeys(modes))
    if not modes or not set(modes) <= set(MODES):
        raise ConfigurationError(f"modes must be a nonempty subset of {MODES}, got {modes!r}")
    aods = np.asarray(aods, dtype=float)
    if aods.shape != (config.num_paths,) or not np.isfinite(aods).all():
        raise ValueError(f"expected {config.num_paths} finite AoDs, got {aods!r}")
    grid = None if se_grid is None else np.asarray(se_grid, dtype=float)
    if grid is not None and (grid.ndim != 1 or np.isnan(grid).any()):
        raise ConfigurationError(f"se_grid must be 1-D with no NaN point, got shape {grid.shape}")
    distinct: dict[tuple[int, ...], PanelAllocation] = {}
    for alloc in allocs:
        validate_allocation(alloc, config)
        distinct.setdefault(alloc.q, alloc)
    if not distinct:
        raise ConfigurationError("run_batches needs at least one allocation")

    keys = [(mode, q) for mode in modes for q in distinct]
    samples = [np.empty(n_trials) if keep_samples else None for _ in keys]
    tables = {mode: _pattern_tables(config, mode) for mode in modes}
    scales = [
        _pattern_scales(tables[m], *_responses(config, distinct[q], aods, m)) for m, q in keys
    ]
    results = {mode: [k for k, key in enumerate(keys) if key[0] == mode] for mode in modes}
    index_rows = max(len(groups) + 2 * (node is not None) for node, groups in tables.values())
    chunks = -(-n_trials // CHUNK_TRIALS)
    workers = min(_usable_cpus(), chunks)
    size = min(CHUNK_TRIALS, n_trials)
    # the RSNR and SE sums of each result's chunks, in trial order
    partials = np.empty((len(keys), 2, chunks))
    counts = np.zeros((workers, len(keys), 0 if grid is None else grid.size), dtype=np.int64)
    # Scratch per worker: contiguous chunk-sized rows (numpy would buffer strided operands),
    # made here, not in the threads, whose per-thread malloc arenas raise peak RSS.
    scratch = [
        (np.empty((3, size)), np.empty(size, bool), np.empty((index_rows, size), np.intp))
        for _ in range(workers)
    ]

    def fill(worker: int) -> None:
        floats, accept_all, index_all = scratch[worker]
        for c in range(worker, chunks, workers):
            a = c * CHUNK_TRIALS
            rows = min(CHUNK_TRIALS, n_trials - a)
            exp_row, u, column = floats[:, :rows]  # the E, uniform and SE rows
            accept, index = accept_all[:rows], index_all[:, :rows]
            _chunk_rng(seed, c).standard_exponential(out=exp_row)
            for mode in modes:
                rng = _chunk_rng(seed, c, 1 + MODES.index(mode))
                _draw_patterns(tables[mode], rng, u, index, column, accept)
                for k in results[mode]:
                    np.take(scales[k][0], index[0], out=column, mode="clip")
                    for scale, row in zip(scales[k][1:], index[1:]):
                        np.take(scale, row, out=u, mode="clip")
                        column += u
                    column *= exp_row
                    partials[k, 0, c] = np.sum(column)
                    np.log1p(column, out=column)
                    column *= _LOG2_E
                    partials[k, 1, c] = np.sum(column)
                    if samples[k] is not None:
                        samples[k][a : a + rows] = column
                    if grid is not None:
                        column.sort()
                        counts[worker, k] += np.searchsorted(column, grid, side="right")

    failures: list[BaseException] = []

    def run(worker: int) -> None:
        try:
            fill(worker)
        except BaseException as exc:  # re-raised on the calling thread
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)  # worker 0 on the calling thread
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    totals = counts.sum(axis=0)
    return {
        (mode, q): TrialBatchResult(
            se_samples=samples[k],
            mean_se=float(np.sum(partials[k, 1]) / n_trials),
            mean_rsnr=float(np.sum(partials[k, 0]) / n_trials),
            trials=n_trials,
            seed=seed,
            mode=mode,
            cdf_counts=None if grid is None else totals[k],
        )
        for k, (mode, q) in enumerate(keys)
    }


def run_trials(
    config: SystemConfig,
    alloc: PanelAllocation,
    aods: np.ndarray,
    mode: str,
    n_trials: int,
    seed: int,
) -> TrialBatchResult:
    """Simulate n_trials transmission frames of one allocation in one mode (``run_batches``)."""
    return run_batches(config, [alloc], aods, n_trials, seed, (mode,))[mode, alloc.q]


def empirical_outage(result: TrialBatchResult, target_se: float) -> float:
    """Fraction of trials with SE strictly below the target.

    Raises ValueError if the target is NaN or the result kept no samples.
    """
    if np.isnan(target_se):
        raise ValueError(f"target SE must not be NaN, got {target_se}")
    return int(np.count_nonzero(_samples(result) < target_se)) / result.trials


def _samples(result: TrialBatchResult) -> np.ndarray:
    if result.se_samples is None:
        raise ValueError("the result holds no samples: simulate it with keep_samples=True")
    return result.se_samples


_KS_PIECE = 1 << 16  # samples ks_distance reads at a time
_KS_CELLS = 1 << 15  # about this many value cells it counts up to 2^20 samples into,
_KS_CELL_SAMPLES = 32  # and more into about one cell per this many samples
_KS_GATHER = 1 << 15  # and at most this many it sorts at a time
# rounding may make a model CDF fall by a few ulps; more than this is a fault
_KS_SLACK = 1e-12


def ks_distance(result: TrialBatchResult, se_cdf) -> float:
    """Kolmogorov-Smirnov distance between the sample set and an SE CDF.

    ``se_cdf`` is a vectorized callable returning the model CDF at given SE
    values; it must be a CDF, nondecreasing in SE. The model may carry a
    point mass at SE = 0 (the all-blocked atom) and must be continuous
    elsewhere; tied zero samples are collapsed so the atom is compared
    jump-against-jump.

    The runs at the smallest sample lo (the zero atom) and at +inf are
    evaluated exactly; the others are counted into about 2^15 cells (n/32
    above 2^20 samples, as D shrinks as 1/sqrt(n)) by the exact key
    floor(x 2^e). A cell holds the samples of [E, E') at sorted positions
    [a, b), so its runs deviate by at most max(b/n - F(E), F(E') - a/n).
    Gather passes sort the cells in descending bound, up to 2^15 samples a
    pass, and evaluate their runs until no bound left reaches the largest
    deviation; a larger cell is counted again over [E, E']. D is bit for bit
    that of evaluating every run. Raises ValueError if the model
    falls by more than 1e-12 between cell edges, if a sample is NaN or -inf, or
    if the result kept no samples.
    """
    x, n = _samples(result), result.trials
    lo, top = np.inf, -np.inf
    for p in _ks_pieces(x):
        lo = np.minimum(lo, p.min())  # keeps a NaN
        hi = p.max()
        top = max(top, hi if hi < np.inf else p.max(initial=-np.inf, where=p < np.inf))
    if not (lo > -np.inf and top - lo < np.inf):
        raise ValueError("samples must not be NaN or -inf, nor span more than the float range")
    if lo == np.inf:  # one run
        return float(_ks_runs(lo, 0, n, n, se_cdf))
    grid = _ks_grid(x, n, lo, max(top, lo), se_cdf)
    below, above = grid[1][-2:]
    best = _ks_runs(lo, 0, below, n, se_cdf)
    if above:
        best = max(best, _ks_runs(np.inf, n - above, n, n, se_cdf))
    return float(_ks_search(x, n, grid, se_cdf, best))


def _ks_pieces(x: np.ndarray):
    """x in pieces of _KS_PIECE: each pass of ks_distance over the samples is one call."""
    return (x[a : a + _KS_PIECE] for a in range(0, x.size, _KS_PIECE))


def _ks_grid(x: np.ndarray, n: int, lo: float, hi: float, se_cdf):
    """(collect, counts, starts, edges, bound) of cells over (lo, hi]: cell k holds the
    counts[k] samples with floor(x 2^e) - floor(lo 2^e) = k, at sorted positions from
    starts[k], in [edges[k], edges[k + 1]], whose runs deviate by at most bound[k]. Two more
    counts, bound -inf, are the samples at or below lo and above hi. collect(taken) sorts
    the samples of the taken cells."""
    target = max(_KS_CELLS, n // _KS_CELL_SAMPLES)
    e = target.bit_length() - 1 - int(np.frexp(hi - lo)[1])

    def scaled(v):  # floor(v 2^e), exact: v is floored first when scaled down
        with np.errstate(over="ignore"):
            return np.floor(np.ldexp(np.floor(v) if e < 0 else v, e))

    origin, last = scaled(np.array([lo, hi]))
    cells = int(last - origin) + 1

    def keys(p):  # the end cells also take the samples outside (lo, hi]
        return np.clip(scaled(p) - origin, 0, cells - 1).astype(np.intp)

    def collect(taken):
        s, i = np.empty(counts[taken].sum()), 0
        for p in _ks_pieces(x):
            keep = taken[keys(p)]
            if taken[0]:
                keep &= p > lo
            if taken[cells - 1]:
                keep &= p <= hi
            np.compress(keep, p, out=s[i : i + np.count_nonzero(keep)])
            i += np.count_nonzero(keep)
        s.sort()
        return s

    counts = np.zeros(cells + 2, dtype=np.int64)
    for p in _ks_pieces(x):
        counts[:cells] += np.bincount(keys(p), minlength=cells)
        counts[cells:] += np.count_nonzero(p <= lo), np.count_nonzero(p > hi)
    counts[0] -= counts[cells]
    counts[cells - 1] -= counts[cells + 1]
    inner = counts[:cells]
    starts = counts[cells] + np.cumsum(inner) - inner
    with np.errstate(over="ignore"):
        edges = np.clip(np.ldexp(origin + np.arange(cells + 1.0), -e), np.nextafter(lo, np.inf), hi)
    model = np.asarray(se_cdf(edges), dtype=float)
    if not np.all(np.diff(model) >= -_KS_SLACK):
        raise ValueError("se_cdf must be a CDF: it decreases on the sample range")
    bound = np.full(cells + 2, -np.inf)
    bound[:cells] = np.maximum((starts + inner) / n - model[:-1], model[1:] - starts / n)
    bound[:cells][inner == 0] = -np.inf
    return collect, counts, starts, edges, bound


def _ks_search(x: np.ndarray, n: int, grid, se_cdf, best: float) -> float:
    """best, raised by the runs of grid's cells in descending bound, while it reaches best."""
    collect, counts, starts, edges, bound = grid
    order = np.argsort(-bound, kind="stable")  # ends with the outer keys
    i = 0
    while bound[order[i]] >= best - _KS_SLACK:
        k = order[i]
        if counts[k] > _KS_GATHER and edges[k] == edges[k + 1]:  # one value: one run
            best = max(best, _ks_runs(edges[k], starts[k], starts[k] + counts[k], n, se_cdf))
        elif counts[k] > _KS_GATHER:  # counted again over its own edges
            sub = _ks_grid(x, n, np.nextafter(edges[k], -np.inf), edges[k + 1], se_cdf)
            best = _ks_search(x, n, sub, se_cdf, best)
        else:  # a gather pass: the next cells, up to _KS_GATHER samples
            take = order[i : i + np.searchsorted(np.cumsum(counts[order[i:]]), _KS_GATHER, "right")]
            taken = np.zeros(bound.size, dtype=bool)
            taken[take[bound[take] >= best - _KS_SLACK]] = True
            i += np.count_nonzero(taken) - 1
            s, cells = collect(taken), np.flatnonzero(taken)  # cells in value order, as in s
            sizes = counts[cells]
            shift = starts[cells] - np.cumsum(sizes) + sizes  # sorted position - index in s
            # the cell of the largest bound, then every other one whose bound reaches best
            best = max(best, _ks_cell_runs(s, sizes, shift, cells == k, n, se_cdf))
            rest = (cells != k) & (bound[cells] >= best - _KS_SLACK)
            if rest.any():
                best = max(best, _ks_cell_runs(s, sizes, shift, rest, n, se_cdf))
        i += 1
    return best


def _ks_cell_runs(s, sizes, shift, chosen, n: int, se_cdf) -> float:
    """Largest deviation over the runs of the chosen cells of s: s holds sizes[i] sorted
    samples of cell i, at sorted positions shift[i] above their index in s."""
    at = np.flatnonzero(np.repeat(chosen, sizes))
    v = s[at]
    at += np.repeat(shift[chosen], sizes[chosen])
    first = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    xs, a, b = v[first], at[first], at[np.r_[first[1:], v.size] - 1] + 1
    # in pieces, so the model's temporaries stay small
    return max(
        _ks_runs(xs[i : i + 2048], a[i : i + 2048], b[i : i + 2048], n, se_cdf)
        for i in range(0, xs.size, 2048)
    )


def _ks_runs(xs, a, b, n: int, se_cdf) -> float:
    """Largest deviation at runs of ties, value xs at sorted positions [a, b), arrays or one."""
    fn_hi = b / n  # empirical CDF at xs
    fn_lo = fn_hi - (b - a) / n  # empirical CDF just below xs
    model = np.asarray(se_cdf(xs), dtype=float)
    # the atom at SE = 0 jumps from 0, so the model just below it is 0
    model_left = np.where((a == 0) & (xs == 0.0), 0.0, model)
    return max(np.max(fn_hi - model), np.max(model_left - fn_lo))
