"""Dual-mode Monte Carlo engine for the post-beamforming SE distribution.

Idealized mode reproduces the assumptions behind the closed-form analysis:
main-lobe-only equivalent response (N_a/sqrt(N_t)) q, binary blockage drawn
independently per path at the marginal probability p_blk. It is the oracle
the analytic module is validated against.

Realistic mode keeps the exact array responses (side lobes included), draws
one blockage probability per frame shared by all paths, and attenuates
blocked served paths by 1/eta instead of nulling them; unserved paths have
no beam and are nulled when blocked.

``run_batches`` simulates several allocations in both modes from common
random numbers: one seed gives every design the same frames. Trials come
in chunks of ``CHUNK_TRIALS``, each drawn from its own SFC64 generator
keyed by ``SeedSequence(entropy=(seed, chunk_index))``; a stream is only
keyed, never jumped or advanced, so the fastest of numpy's bit generators
serves. Each chunk draws its path gains once; each mode's blockage is
drawn once, from the generator state right after the gains, so a mode's
frames do not depend on which other modes or allocations share the call.
Every allocation's |h_eq|^2 is then formed in row sub-blocks of
``SUB_ROWS``: the spent blockage draws become a weight plane, 1 on a clear
path and the blocked value on a blocked one; the gains times the weights
times conj(a_eq) give the conjugate of h_eq's terms, and ``_row_sum``
adds them in path order, l = 1, ..., L, one column add per path. That order is the fill's contract:
an oracle can replay it, where numpy's pairwise row sum changes its order
with L and could change it in a numpy release. The worker writes the sum
column into the kept samples, or else into its own SE column, turns it
into the RSNR and then the SE in place and stores the two sums of the
sub-block; given an SE grid, it sorts the sub-block's SE in its column
and adds the counts at the grid to its own. So ``cdf``, which needs only
the counts and the means, holds no trial-length array. ``run_trials`` is
its one-allocation, one-mode call.

Chunks are filled on all usable cores: min(len(os.sched_getaffinity(0)),
chunks) threads, since numpy's generators and ufuncs release the
interpreter lock. Each worker owns scratch arrays: two float gain planes
sized to one chunk, (CHUNK_TRIALS, L), and in realistic mode its p_hat
column, plus a float draw (then weight) plane, bool blocked and clear
planes and a complex gain block of (SUB_ROWS, L) and a float SE column:
about 5.1 MB at L = 4 (0.5 MB more in realistic mode), on top of 8
n_trials bytes per result whose samples are kept. Worker threads call only
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
    beam_hpbw_deg,
    build_beamformer,
    equivalent_array_response_approx,
    equivalent_array_response_exact,
    validate_allocation,
)
from .channel import (
    _block,
    _fill_gains,
    _shared_blockage_probability,
    blockage_attenuation,
    path_variances,
)
from .config import SystemConfig
from .errors import ConfigurationError

# Trials are generated in fixed-size chunks, each with its own generator
# keyed by (seed, chunk index) and its own slice of the result, so the
# sample sequence is reproducible no matter how chunks are scheduled.
CHUNK_TRIALS = 1 << 16
# Rows of a chunk turned into |h_eq|^2 at a time, so the per-allocation
# working set stays small while the chunk's gain planes are reused.
SUB_ROWS = 1 << 13

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


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=(seed, chunk_index)))
    )


def _chunk_sizes(n_trials: int) -> list[int]:
    full, rem = divmod(n_trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rem] if rem else [])


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _responses(config: SystemConfig, alloc: PanelAllocation, aods: np.ndarray, mode: str):
    """(conj(a_eq), blocked_values) of an allocation in a mode: complex and float (L,).

    A blocked path is multiplied by its blocked value: 0 in idealized mode;
    in realistic mode 1/eta on a served path and 0 on an unserved one.
    """
    blocked_values = np.zeros(config.num_paths)
    if mode == "idealized":
        a_eq = equivalent_array_response_approx(alloc, config).astype(complex)
    else:
        a_eq = equivalent_array_response_exact(aods, build_beamformer(alloc, aods, config))
        served = alloc.as_array() > 0
        blocked_values[served] = blockage_attenuation(beam_hpbw_deg(alloc, config.n_a)[served])
    return a_eq.conj(), blocked_values


def _row_sum(g: np.ndarray) -> np.ndarray:
    """Sums of the rows of complex g (rows, L) in path order, in place: the column g[:, 0]."""
    total = g[:, 0]
    for j in range(1, g.shape[1]):
        total += g[:, j]
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
    allocation and mode. Every frame resamples the path gains and the
    blockage state; the AoDs (and hence the beamformer in realistic mode)
    stay fixed for the batch. For a fixed seed all allocations see the same
    gains and, within a mode, the same blocked patterns, and each result is
    bit for bit the one a call with that allocation and mode alone gives,
    whatever the chunk scheduling: min(usable CPUs, chunks) threads fill the
    chunks, worker w taking chunks w, w + W, ....

    The SE of a frame is log2(1 + tx_snr |h_eq|^2), h_eq's terms added in
    path order. The means are the ``np.sum`` of the per-sub-block
    ``np.sum``s, in trial order, over n_trials. The samples are kept only
    if ``keep_samples``; with an ``se_grid``, ``cdf_counts`` holds the
    number of samples <= each of its points, so a call that keeps no
    samples holds no trial-length array.
    """
    if not isinstance(n_trials, numbers.Integral) or n_trials < 1:
        raise ConfigurationError(f"n_trials must be an integer >= 1, got {n_trials!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigurationError(f"seed must be a nonnegative integer, got {seed!r}")
    modes = tuple(dict.fromkeys(modes))
    if not modes or not set(modes) <= set(MODES):
        raise ConfigurationError(f"modes must be a nonempty subset of {MODES}, got {modes!r}")
    aods = np.asarray(aods, dtype=float)
    if aods.shape != (config.num_paths,):
        raise ValueError(f"expected {config.num_paths} AoDs, got shape {aods.shape}")
    distinct: dict[tuple[int, ...], PanelAllocation] = {}
    for alloc in allocs:
        validate_allocation(alloc, config)
        distinct.setdefault(alloc.q, alloc)
    if not distinct:
        raise ConfigurationError("run_batches needs at least one allocation")

    keys = [(mode, q) for mode in modes for q in distinct]
    samples = [np.empty(n_trials) if keep_samples else None for _ in keys]
    # per mode and distinct blocked values: (conj(a_eq), result index) of each allocation
    targets = {mode: {} for mode in modes}
    for k, (mode, q) in enumerate(keys):
        conj_a_eq, blocked_values = _responses(config, distinct[q], aods, mode)
        group = targets[mode].setdefault(blocked_values.tobytes(), (blocked_values, []))
        group[1].append((conj_a_eq, k))
    variances = path_variances(config.rician_k, config.num_paths)
    L = config.num_paths
    sizes = _chunk_sizes(n_trials)
    workers = min(_usable_cpus(), len(sizes))
    sub = min(SUB_ROWS, sizes[0])
    # the RSNR and SE sums of each result's sub-blocks, in trial order
    partials = np.empty((len(keys), 2, -(-n_trials // sub)))
    grid = None if se_grid is None else np.asarray(se_grid, dtype=float)
    counts = np.zeros((workers, len(keys), 0 if grid is None else grid.size), dtype=np.int64)
    # Scratch, one set per worker: the chunk's gain planes and, in realistic
    # mode, its p_hat, sized to its first (largest) chunk, and the
    # sub-block's draws (then weights), blocked and clear patterns, gains
    # and SE column. It is allocated here, not in the threads, whose
    # per-thread malloc arenas would raise the peak RSS.
    scratch = [
        (np.empty((rows, L)), np.empty((rows, L)), np.empty(rows if "realistic" in modes else 0),
         np.empty((sub, L)), np.empty((sub, L), bool), np.empty((sub, L), bool),
         np.empty((sub, L), complex), np.empty(sub))
        for rows in sizes[:workers]
    ]

    def fill(worker: int) -> None:
        re_all, im_all, p_hat_all, weights_all, mask_all, keep_all, gains_all, column_all = (
            scratch[worker]
        )
        for chunk_index in range(worker, len(sizes), workers):
            size = sizes[chunk_index]
            re, im = re_all[:size], im_all[:size]
            rng = _chunk_rng(seed, chunk_index)
            _fill_gains(variances, rng, re, im)
            # every mode draws its blockage from the state right after the gains
            after_gains = rng.bit_generator.state
            start = chunk_index * CHUNK_TRIALS
            for m, mode in enumerate(modes):
                if m:
                    rng.bit_generator.state = after_gains
                if mode == "realistic":
                    p_block = _shared_blockage_probability(config, rng, p_hat_all[:size])
                else:  # independent blockage: every frame has the marginal p_blk
                    p_block = np.broadcast_to(config.p_blk, (size, 1))
                for a in range(0, size, sub):
                    rows = min(sub, size - a)
                    weights, mask, keep = weights_all[:rows], mask_all[:rows], keep_all[:rows]
                    gains, column = gains_all[:rows], column_all[:rows]
                    block = (start + a) // sub
                    _block(rng, p_block[a : a + rows], weights, mask)
                    np.logical_not(mask, out=keep)
                    for blocked_values, responses in targets[mode].values():
                        # the draws are spent: 1 on a clear path, the blocked value on a
                        # blocked one, exactly, as blocked values are >= 0
                        np.multiply(mask, blocked_values, out=weights)
                        np.maximum(weights, keep, out=weights)
                        for conj_a_eq, k in responses:
                            # h_eq's conjugate, which has the same modulus
                            np.multiply(re[a : a + rows], weights, out=gains.real)
                            np.multiply(im[a : a + rows], weights, out=gains.imag)
                            gains *= conj_a_eq
                            # |h_eq|^2, then the RSNR, then the SE, in place: in the
                            # kept samples, or else in the SE column
                            kept = samples[k]
                            se = column if kept is None else kept[start + a : start + a + rows]
                            np.abs(_row_sum(gains), out=se)
                            se **= 2
                            se *= config.tx_snr
                            partials[k, 0, block] = np.sum(se)
                            se += 1.0
                            np.log2(se, out=se)
                            partials[k, 1, block] = np.sum(se)
                            if grid is not None:
                                if kept is not None:  # the samples stay in trial order
                                    column[:] = se
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
_KS_CELLS = 1 << 15  # about this many value cells it counts them into
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
    evaluated exactly; the others are counted into about 2^15 cells by the
    exact key floor(x 2^e). A cell holds the samples of [E, E') at sorted
    positions [a, b), so its runs deviate by at most max(b/n - F(E),
    F(E') - a/n). Gather passes sort the cells in descending bound, up to
    2^15 samples a pass, and evaluate their runs until no bound left reaches
    the largest deviation; a larger cell is counted again over [E, E']. D is
    bit for bit that of evaluating every run. Raises ValueError if the model
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
    e = _KS_CELLS.bit_length() - 1 - int(np.frexp(hi - lo)[1])

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
