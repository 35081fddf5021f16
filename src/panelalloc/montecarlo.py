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
random numbers: one seed gives every design the same frames. Each chunk
draws its path gains once; each mode's blockage is drawn once, from the
generator state right after the gains, so a mode's frames do not depend on
which other modes or allocations share the call. Every allocation's
|h_eq|^2 is then formed in row sub-blocks of ``SUB_ROWS``: the spent
blockage draws become a weight plane, 1 on a clear path and the blocked
value on a blocked one; the gains times the weights times conj(a_eq) give
the conjugate of h_eq's terms, and ``_row_sum`` adds them in numpy's own
order, so |h_eq|^2 is bit for bit sum(omega h^* a_eq) of the model. The
worker writes that column into the kept samples, or else into its own SE
column, turns it into the RSNR and then the SE in place and stores the
two sums of the sub-block; given an SE grid, it sorts the sub-block's SE
in its column and adds the counts at the grid to its own. So ``cdf``,
which needs only the counts and the means, holds no trial-length array.
``run_trials`` is its one-allocation, one-mode call.

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
"""

from __future__ import annotations

import os
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
        np.random.Philox(np.random.SeedSequence(entropy=(seed, chunk_index)))
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
    """Sums of the rows of complex g (rows, L), in place: returns the column g[:, 0].

    Bit for bit ``np.sum(g, axis=1)`` (but for the sign of a zero sum),
    with a few column adds instead of one call per row. It replays numpy's
    pairwise sum of a complex row, unrolled by 8 floats (4 complex
    accumulators) in blocks of 128 floats: with L < 4 the columns are added
    in turn; with 4 <= L <= 64 columns 0-3 accumulate columns i..i+3 for
    i = 4, 8, ... below L - L % 4, then give (c0 + c1) + (c2 + c3), and the
    last L % 4 columns are added in turn; a wider g is split after
    (L - L % 8) / 2 columns and the halves' sums are added. Should a numpy
    release sum differently, ``tests/test_montecarlo.py::TestRowSum`` fails
    first, then the bytewise fill tests against ``np.sum`` in
    ``tests/util.serial_channel_power``.
    """
    L = g.shape[1]
    if L > 64:
        half = (L - L % 8) // 2
        total = _row_sum(g[:, :half])
        total += _row_sum(g[:, half:])
        return total
    total = g[:, 0]
    if L < 4:
        for j in range(1, L):
            total += g[:, j]
        return total
    c = [g[:, j] for j in range(4)]
    end = L - L % 4
    for i in range(4, end, 4):
        for j in range(4):
            c[j] += g[:, i + j]
    total += c[1]
    c[2] += c[3]
    total += c[2]
    for j in range(end, L):
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

    The SE of a frame is log2(1 + tx_snr |h_eq|^2). The means are the
    ``np.sum`` of the per-sub-block ``np.sum``s, in trial order, over
    n_trials. The samples are kept only if ``keep_samples``; with an
    ``se_grid``, ``cdf_counts`` holds the number of samples <= each of its
    points, so a call that keeps no samples holds no trial-length array.
    """
    if n_trials < 1:
        raise ConfigurationError(f"n_trials must be >= 1, got {n_trials}")
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

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        # reading every result re-raises a worker's exception here
        list(pool.map(fill, range(workers)))
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
    """Fraction of trials with SE strictly below the target."""
    return int(np.count_nonzero(result.se_samples < target_se)) / result.trials


# ks_distance sorts the samples one value slab at a time, so it never holds
# a sorted copy of them all: slabs of about max(_KS_SLAB, n / _KS_SLABS)
# samples, plus one per heavy value, so it reads the samples a bounded
# number of times whatever their count.
_KS_SLAB = 1 << 17
_KS_SLABS = 16
# ks_distance gathers a slab from this many samples at a time
_KS_PIECE = 1 << 16
# ks_distance walks each sorted slab in blocks of about this many, so it
# holds a few block-sized arrays instead of several slab-length ones.
_KS_BLOCK = 128
# blocks evaluated per se_cdf call
_KS_BATCH = 8
# rounding may make a model CDF fall by a few ulps; more than this is a fault
_KS_SLACK = 1e-12


def ks_distance(result: TrialBatchResult, se_cdf) -> float:
    """Kolmogorov-Smirnov distance between the sample set and an SE CDF.

    ``se_cdf`` is a vectorized callable returning the model CDF at given SE
    values; it must be a CDF, nondecreasing in SE. The model may carry a
    point mass at SE = 0 (the all-blocked atom) and must be continuous
    elsewhere; tied zero samples are collapsed so the atom is compared
    jump-against-jump.

    The samples are cut by value into slabs of about max(131,072, n/16)
    samples, so at most 16 (``_ks_edges``); a value that fills half a slab
    alone, like the atom, gets a slab of its own, which is only counted.
    A first pass gathers and sorts each slab in turn and cuts it into
    blocks of about 128, each ending at the end of its run of ties. One
    model call on every block's first and last sample bounds the block's
    deviation by max(b/n - F(first), F(last) - a/n) for block [a, b) in
    sorted positions. A second pass visits the slabs in descending largest
    bound, gathers each again and evaluates its blocks run by run in
    descending bound, until no bound left reaches the largest deviation
    found. So the samples are read at most twice per slab, and memory is
    about two slabs plus a few values per block, where a sorted copy would
    take n. The distance is bit for bit that of evaluating every run.
    Raises ValueError if the model falls by more than 1e-12 between block
    endpoints, or if a sample is NaN.
    """
    x, n = result.se_samples, result.trials
    edges = _ks_edges(x)
    slabs = list(zip(np.r_[-np.inf, edges].tolist(), np.r_[edges, np.inf].tolist()))
    # first pass, in value order: each slab's blocks in its own positions
    cuts = [_ks_cut(_ks_take(x, lo, hi)) for lo, hi in slabs]
    sizes = np.array([ends[-1] if ends.size else 0 for _, ends, _ in cuts], dtype=np.int64)
    if sizes.sum() != n:  # only a NaN falls in no slab
        raise ValueError("samples must not be NaN")
    offsets = np.cumsum(sizes) - sizes
    starts = np.concatenate([offset + c[0] for offset, c in zip(offsets, cuts)])
    ends = np.concatenate([offset + c[1] for offset, c in zip(offsets, cuts)])
    slab_of = np.repeat(np.arange(len(slabs)), [c[1].size for c in cuts])
    endpoints = np.asarray(se_cdf(np.concatenate([c[2] for c in cuts])), dtype=float)
    if not np.all(np.diff(endpoints) >= -_KS_SLACK):
        raise ValueError("se_cdf must be a CDF: it decreases between sorted samples")
    first, last = endpoints.reshape(-1, 2).T
    bound = np.maximum(ends / n - first, last - starts / n)
    tops = np.full(len(slabs), -np.inf)
    np.maximum.at(tops, slab_of, bound)
    # second pass, in descending largest bound
    best = 0.0
    for j in np.argsort(-tops, kind="stable").tolist():
        if tops[j] < best - _KS_SLACK:
            break
        mine = slab_of == j
        # gathered in the call, so one slab is held at a time
        best = _ks_walk(
            _ks_take(x, *slabs[j]), int(offsets[j]), n, starts[mine], ends[mine], bound[mine],
            se_cdf, best,
        )
    return float(best)


def _ks_edges(x: np.ndarray) -> np.ndarray:
    """Inner slab edges of x: quantiles of a strided subsample, 64 points per slab.

    A value that fills half a slab of the subsample gets [v, nextafter(v)).
    """
    slabs = min(_KS_SLABS, -(-x.size // _KS_SLAB))
    if slabs == 1:
        return np.empty(0)
    sub = np.sort(x[:: max(1, x.size // (64 * slabs))])
    values, hits = np.unique(sub, return_counts=True)
    heavy = values[hits >= max(1, sub.size // (2 * slabs))]
    pivots = sub[np.arange(1, slabs) * sub.size // slabs]
    edges = np.unique(np.r_[pivots, heavy, np.nextafter(heavy, np.inf)])
    return edges[edges < np.inf]  # the top slab holds +inf


def _ks_take(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The samples in [lo, hi), sorted; a one-value slab as a view that holds no copy."""
    pieces = (x[a : a + _KS_PIECE] for a in range(0, x.size, _KS_PIECE))
    if np.nextafter(lo, np.inf) == hi:
        return np.broadcast_to(lo, (sum(np.count_nonzero(p == lo) for p in pieces),))
    # np.compress gathers a few times faster than a boolean index
    s = np.concatenate(
        [np.compress((p >= lo) & (p < hi) if hi < np.inf else p >= lo, p) for p in pieces]
    )
    s.sort()
    return s


def _ks_cut(s: np.ndarray):
    """(starts, ends, first and last samples) of blocks of sorted s that end runs of ties."""
    if s.size and s[0] == s[-1]:  # one run: no search, and s may be a view of one value
        ends = np.array([s.size])
    else:
        ends = np.union1d(np.searchsorted(s, s[_KS_BLOCK - 1 :: _KS_BLOCK], side="right"), s.size)
        ends = ends[ends > 0]
    starts = np.r_[0, ends][:-1]
    return starts, ends, np.column_stack((s[starts], s[ends - 1])).ravel()


def _ks_walk(s: np.ndarray, offset: int, n: int, starts, ends, bound, se_cdf, best: float):
    """best, raised by the blocks of slab s (s[0] at position offset) whose bound reaches it."""
    order = np.argsort(-bound, kind="stable")
    for i in range(0, order.size, _KS_BATCH):
        group = order[i : i + _KS_BATCH]
        group = group[bound[group] >= best - _KS_SLACK]
        if group.size == 0:
            break
        best = max(best, _ks_blocks(s, offset, n, starts[group], ends[group], se_cdf))
    return best


def _ks_blocks(s: np.ndarray, offset: int, n: int, starts, ends, se_cdf) -> float:
    """Largest deviation over the runs of ties in blocks [a, b) of slab s, s[0] at offset."""
    run_starts, run_ends = [], []
    for a, b in zip(starts.tolist(), ends.tolist()):
        block = s[a - offset : b - offset]
        first = a + np.flatnonzero(np.r_[True, block[1:] != block[:-1]])
        run_starts.append(first)
        run_ends.append(np.r_[first[1:], b])
    lo, hi = np.concatenate(run_starts), np.concatenate(run_ends)
    xs = s[lo - offset]
    fn_hi = hi / n  # empirical CDF at xs
    fn_lo = fn_hi - (hi - lo) / n  # empirical CDF just below xs
    model = np.asarray(se_cdf(xs), dtype=float)
    # the atom at SE = 0 jumps from 0, so the model just below it is 0
    model_left = np.where((lo == 0) & (xs == 0.0), 0.0, model)
    return max(np.max(fn_hi - model), np.max(model_left - fn_lo))
