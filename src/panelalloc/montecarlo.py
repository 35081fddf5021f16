"""Dual-mode Monte Carlo engine for the post-beamforming SE distribution.

Idealized mode reproduces the assumptions behind the closed-form analysis:
main-lobe-only equivalent response (N_a/sqrt(N_t)) q and blocked paths
nulled. It is the oracle the analytic module is validated against.

Realistic mode keeps the exact array responses (side lobes included) and
attenuates blocked served paths by 1/eta instead of nulling them; unserved
paths have no beam and are nulled when blocked. Each mode's blockage law
is ``channel._block``'s.

``run_batches`` simulates several allocations in both modes and draws no
path gains: given a frame's blockage, h_eq = sum_l omega_l conj(g_l) a_eq,l
is CN(0, v) with v = sum_l omega_l^2 |a_eq,l|^2 sigma_l^2 in either mode, so
its RSNR is E sum_l omega_l^2 P_l, with E ~ Exp(1) and the power column
P_l = tx_snr |a_eq,l|^2 sigma_l^2. So every result's law is exact, and the
common random numbers of one call are E and, within a mode, the blockage
patterns, which every design shares, not per-path gains.

Trials come in chunks of ``CHUNK_TRIALS`` rows (the last shorter), a size
that is part of the stream contract. Chunk c draws from SFC64 generators
keyed by ``SeedSequence(entropy=(seed, c, s))``, only keyed, never jumped:
stream s = 0, keyed (seed, c), one ``standard_exponential`` row of E, and
stream 1 + ``MODES.index(mode)`` each mode's p_hat (realistic mode) and
then its blockage uniforms, path-major (L, rows). So a mode's frames do not
depend on which other modes or allocations share the call, and each
per-path operand broadcasts as an (L, 1) column along a contiguous row: the
spent draws' bytes hold the squared weights, 1 on a clear path and the
blocked value squared on a blocked one; times P they give each path's
share, and ``_row_sum`` adds them in path order, one row add per path. That
order is the fill's contract: an oracle can replay it, where numpy's
pairwise row sum changes its order with L. The worker multiplies the sum by
E into its SE column, takes the SE, log1p(RSNR) / ln 2, in place, and
stores the chunk's two sums; it copies the SE into the kept samples, and
given an SE grid, sorts the column and adds its counts at the grid. So
``cdf``, which needs only the counts and the means, holds no trial-length
array. ``run_trials`` is its one-allocation, one-mode call.

Chunks are filled on min(len(os.sched_getaffinity(0)), chunks) threads, as
numpy's generators and ufuncs release the interpreter lock. Each worker
owns scratch sized to one chunk: float draw (then squared-weight) and
power planes and bool blocked and clear planes, all CHUNK_TRIALS x L, and
float E, SE and (realistic mode) p_hat rows: about 0.8 MB at L = 4, besides
8 n_trials bytes per result whose samples are kept. Worker threads call only
numpy and the private in-place helpers of ``channel``. The samples, counts
and means are bit-identical to a serial pass over the chunks.

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
from .channel import _block, _blocked_amplitudes, path_variances
from .config import _SEED_LIMIT, SystemConfig
from .errors import ConfigurationError

# Trials come in fixed-size chunks, each with its own generators keyed by (seed,
# chunk index, stream), its own slice of the result and its worker's scratch, so
# the sample sequence is reproducible no matter how chunks are scheduled.
CHUNK_TRIALS = 1 << 13
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


def _row_sum(g: np.ndarray) -> np.ndarray:
    """Per-frame sums of g (L, rows) in path order, in place: the row g[0]."""
    total = g[0]
    for path in g[1:]:
        total += path
    return total


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

    Returns ``{(mode, alloc.q): TrialBatchResult}``, one entry per distinct
    allocation and mode. Every frame redraws its Exp(1) variable E and its
    blockage state; the AoDs (and hence the beamformer in realistic mode)
    stay fixed for the batch. For a fixed seed all allocations see the same
    E and, within a mode, the same blocked patterns, and each result is
    bit for bit the one a call with that allocation and mode alone gives,
    whatever the chunk scheduling: min(usable CPUs, chunks) threads fill the
    chunks, worker w taking chunks w, w + W, ....

    The RSNR of a frame is E sum_l omega_l^2 P_l, with P_l = tx_snr
    |a_eq,l|^2 sigma_l^2 and the terms added in path order, and its SE is
    log1p(RSNR) * (1 / ln 2). The means are the ``np.sum`` of the per-chunk
    ``np.sum``s, in trial order, over n_trials. The samples are kept only
    if ``keep_samples``; with an ``se_grid``, ``cdf_counts`` holds the
    number of samples <= each of its points, so a call that keeps no
    samples holds no trial-length array.
    """
    if not isinstance(n_trials, numbers.Integral) or n_trials < 1:
        raise ConfigurationError(f"n_trials must be an integer >= 1, got {n_trials!r}")
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < _SEED_LIMIT:
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
    # per mode and distinct blocked powers: (P, result index) of each allocation,
    # both per-path operands as (L, 1) columns
    targets = {mode: {} for mode in modes}
    for k, (mode, q) in enumerate(keys):
        power, blocked_powers = _responses(config, distinct[q], aods, mode)
        group = targets[mode].setdefault(blocked_powers.tobytes(), (blocked_powers[:, None], []))
        group[1].append((power[:, None], k))
    L = config.num_paths
    chunks = -(-n_trials // CHUNK_TRIALS)
    workers = min(_usable_cpus(), chunks)
    size = min(CHUNK_TRIALS, n_trials)
    # the RSNR and SE sums of each result's chunks, in trial order
    partials = np.empty((len(keys), 2, chunks))
    counts = np.zeros((workers, len(keys), 0 if grid is None else grid.size), dtype=np.int64)
    # Scratch per worker, sized to one chunk and flat, so a shorter last chunk is
    # contiguous too (numpy would buffer strided operands on the worker thread);
    # made here, not in the threads, whose per-thread malloc arenas raise peak RSS.
    scratch = [
        (np.empty(L * size), np.empty(L * size, bool), np.empty(L * size, bool),
         np.empty(L * size), np.empty(size), np.empty(size if "realistic" in modes else 0),
         np.empty(size))
        for _ in range(workers)
    ]

    def fill(worker: int) -> None:
        *planes, exp_all, p_hat_all, column_all = scratch[worker]
        for c in range(worker, chunks, workers):
            a = c * CHUNK_TRIALS
            rows = min(CHUNK_TRIALS, n_trials - a)
            weights, mask, keep, terms = (p[: L * rows].reshape(L, rows) for p in planes)
            exp_row, column = exp_all[:rows], column_all[:rows]
            _chunk_rng(seed, c).standard_exponential(out=exp_row)
            for mode in modes:
                rng = _chunk_rng(seed, c, 1 + MODES.index(mode))
                _block(config, mode, rng, weights, mask, p_hat_all[:rows])
                np.logical_not(mask, out=keep)
                for blocked_powers, results in targets[mode].values():
                    # the draws are spent: 1 on a clear path, the blocked power
                    # on a blocked one, exactly, as blocked powers are in [0, 1]
                    np.multiply(mask, blocked_powers, out=weights)
                    np.maximum(weights, keep, out=weights)
                    for power, k in results:
                        # the RSNR, then the SE, in place in the SE column;
                        # copied into the kept samples, then sorted for counts
                        np.multiply(weights, power, out=terms)
                        np.multiply(_row_sum(terms), exp_row, out=column)
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
    """Simulate n_trials transmission frames of one allocation in one mode.

    The one-allocation, one-mode call of ``run_batches``.
    """
    return run_batches(config, [alloc], aods, n_trials, seed, (mode,))[mode, alloc.q]


def empirical_outage(result: TrialBatchResult, target_se: float) -> float:
    """Fraction of trials with SE strictly below the target.

    Raises ValueError if the result kept no samples.
    """
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
