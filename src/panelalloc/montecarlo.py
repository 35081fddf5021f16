"""Dual-mode Monte Carlo engine for the post-beamforming SE distribution.

Idealized mode reproduces the assumptions behind the closed-form analysis:
main-lobe-only equivalent response (N_a/sqrt(N_t)) q, binary blockage drawn
independently per path at the marginal probability p_blk. It is the oracle
the analytic module is validated against.

Realistic mode keeps the exact array responses (side lobes included), draws
one blockage probability per frame shared by all paths, and attenuates
blocked served paths by 1/eta instead of nulling them; unserved paths have
no beam and are nulled when blocked.

``run_trials`` fills its chunks on all usable cores: min(len(
os.sched_getaffinity(0)), chunks) threads, since numpy's generators and
ufuncs release the interpreter lock. Each worker owns scratch arrays sized
to one chunk, (CHUNK_TRIALS, L) complex gains, float draws and bool mask
plus a complex h_eq column: about 7.6 MB at L = 4, on top of the
8 n_trials-byte result. Worker threads call only numpy and the private
in-place helpers of ``channel``. The samples are bit-identical to a serial
pass over the chunks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .beamforming import (
    PanelAllocation,
    beam_hpbw_deg,
    build_beamformer,
    equivalent_array_response_approx,
    equivalent_array_response_exact,
    validate_allocation,
)
from .channel import _block, _fill_gains, _shared_blockage, blockage_attenuation, path_variances
from .config import SystemConfig
from .errors import ConfigurationError

# Trials are generated in fixed-size chunks, each with its own generator
# keyed by (seed, chunk index) and its own slice of the result, so the
# sample sequence is reproducible no matter how chunks are scheduled.
CHUNK_TRIALS = 1 << 16

MODES = ("idealized", "realistic")


@dataclass
class TrialBatchResult:
    """Per-trial SE samples plus summary statistics for one simulation batch."""

    se_samples: np.ndarray
    mean_se: float
    mean_rsnr: float
    trials: int
    seed: int
    mode: str
    _sorted: np.ndarray = field(repr=False, default=None)

    def __post_init__(self) -> None:
        if self._sorted is None:
            self._sorted = np.sort(self.se_samples)

    def empirical_cdf(self, se_bits: np.ndarray) -> np.ndarray:
        """Fraction of samples <= se_bits (right-continuous empirical CDF)."""
        idx = np.searchsorted(self._sorted, np.asarray(se_bits, dtype=float), side="right")
        return idx / self.trials


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


def _channel_power(
    config: SystemConfig,
    alloc: PanelAllocation,
    aods: np.ndarray,
    mode: str,
    n_trials: int,
    seed: int,
) -> np.ndarray:
    """Per-frame unit-SNR channel power |h_eq|^2 of n_trials frames.

    Every frame resamples the path gains and the blockage state; the AoDs
    (and hence the beamformer in realistic mode) stay fixed for the batch.
    Deterministic for a fixed (mode, seed) regardless of chunk scheduling:
    min(usable CPUs, chunks) threads fill the chunks, worker w taking chunks
    w, w + W, ..., each into its own slice of the result.
    """
    if n_trials < 1:
        raise ConfigurationError(f"n_trials must be >= 1, got {n_trials}")
    if mode not in MODES:
        raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    aods = np.asarray(aods, dtype=float)
    if aods.shape != (config.num_paths,):
        raise ValueError(f"expected {config.num_paths} AoDs, got shape {aods.shape}")
    validate_allocation(alloc, config)

    variances = path_variances(config.rician_k, config.num_paths)

    if mode == "idealized":
        a_eq = equivalent_array_response_approx(alloc, config)
    else:
        a_eq = equivalent_array_response_exact(aods, build_beamformer(alloc, aods, config))
        hpbw = beam_hpbw_deg(alloc, config.n_a)
        served = alloc.as_array() > 0
        # complex, like a_eq below, so the in-place products need no buffered cast
        blocked_values = np.zeros(config.num_paths, complex)
        blocked_values[served] = blockage_attenuation(hpbw[served])

    L = config.num_paths
    a_eq = a_eq.astype(complex)
    sizes = _chunk_sizes(n_trials)
    workers = min(_usable_cpus(), len(sizes))
    power = np.empty(n_trials)
    # Scratch for gains, uniform draws, blocked pattern and h_eq, one set per
    # worker sized to its first (largest) chunk. It is allocated here, not in
    # the threads, whose per-thread malloc arenas would raise the peak RSS.
    scratch = [
        (np.empty((rows, L), complex), np.empty((rows, L)), np.empty((rows, L), bool),
         np.empty(rows, complex))
        for rows in sizes[:workers]
    ]

    def fill(worker: int) -> None:
        for chunk_index in range(worker, len(sizes), workers):
            size = sizes[chunk_index]
            gains, draws, mask, h_eq = (buf[:size] for buf in scratch[worker])
            rng = _chunk_rng(seed, chunk_index)
            _fill_gains(variances, rng, gains, draws)
            np.conjugate(gains, out=gains)
            if mode == "idealized":
                # independent binary blockage at the marginal probability p_blk
                _block(gains, 0.0, config.p_blk, rng, draws, mask)
            else:
                # one blockage probability per frame, shared by all paths
                _shared_blockage(config, blocked_values, rng, gains, draws, mask)
            gains *= a_eq
            np.sum(gains, axis=1, out=h_eq)
            start = chunk_index * CHUNK_TRIALS
            out = power[start : start + size]
            np.abs(h_eq, out=out)
            out **= 2

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        # reading every result re-raises a worker's exception here
        list(pool.map(fill, range(workers)))
    return power


def run_trials(
    config: SystemConfig,
    alloc: PanelAllocation,
    aods: np.ndarray,
    mode: str,
    n_trials: int,
    seed: int,
) -> TrialBatchResult:
    """Simulate n_trials transmission frames and record the SE of each.

    The frames are those of ``_channel_power``; the RSNR of a frame is
    tx_snr |h_eq|^2. The power buffer becomes the RSNR and then the SE in
    place, so the batch holds no array beyond the samples and their sorted
    copy; the bytes equal log2(1 + tx_snr |h_eq|^2).
    """
    se = _channel_power(config, alloc, aods, mode, n_trials, seed)
    se *= config.tx_snr
    mean_rsnr = float(se.mean())
    se += 1.0
    np.log2(se, out=se)
    return TrialBatchResult(
        se_samples=se,
        mean_se=float(se.mean()),
        mean_rsnr=mean_rsnr,
        trials=n_trials,
        seed=seed,
        mode=mode,
    )


def empirical_outage(result: TrialBatchResult, target_se: float) -> float:
    """Fraction of trials with SE strictly below the target."""
    idx = np.searchsorted(result._sorted, target_se, side="left")
    return idx / result.trials


# ks_distance walks the sorted samples in blocks of about this many, so it
# holds a few block-sized arrays instead of several sample-length ones.
_KS_BLOCK = 256
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

    The sorted samples are cut into blocks of about 256, each ending at the
    end of its run of ties. One model call on every block's first and last
    sample bounds the block's deviation by
    max(b/n - F(first), F(last) - a/n) for block [a, b); blocks are then
    evaluated run by run in descending bound until no bound left reaches
    the largest deviation found. Memory is a few block-sized arrays, and the
    distance is bit for bit that of evaluating every run. Raises ValueError
    if the model falls by more than 1e-12 between block endpoints.
    """
    s, n = result._sorted, result.trials
    ends = np.union1d(np.searchsorted(s, s[_KS_BLOCK - 1 :: _KS_BLOCK], side="right"), n)
    starts = np.r_[0, ends[:-1]]
    endpoints = np.asarray(se_cdf(np.column_stack((s[starts], s[ends - 1])).ravel()), dtype=float)
    if not np.all(np.diff(endpoints) >= -_KS_SLACK):
        raise ValueError("se_cdf must be a CDF: it decreases between sorted samples")
    first, last = endpoints.reshape(-1, 2).T
    bound = np.maximum(ends / n - first, last - starts / n)
    order = np.argsort(-bound, kind="stable")
    best = 0.0
    for i in range(0, order.size, _KS_BATCH):
        group = order[i : i + _KS_BATCH]
        group = group[bound[group] >= best - _KS_SLACK]
        if group.size == 0:
            break
        best = max(best, _ks_blocks(s, n, starts[group], ends[group], se_cdf))
    return float(best)


def _ks_blocks(s: np.ndarray, n: int, starts, ends, se_cdf) -> float:
    """Largest deviation over the runs of ties in blocks s[a:b] that start and end runs."""
    run_starts, run_ends = [], []
    for a, b in zip(starts.tolist(), ends.tolist()):
        block = s[a:b]
        first = a + np.flatnonzero(np.r_[True, block[1:] != block[:-1]])
        run_starts.append(first)
        run_ends.append(np.r_[first[1:], b])
    lo, hi = np.concatenate(run_starts), np.concatenate(run_ends)
    xs = s[lo]
    fn_hi = hi / n  # empirical CDF at xs
    fn_lo = fn_hi - (hi - lo) / n  # empirical CDF just below xs
    model = np.asarray(se_cdf(xs), dtype=float)
    # the atom at SE = 0 jumps from 0, so the model just below it is 0
    model_left = np.where((lo == 0) & (xs == 0.0), 0.0, model)
    return max(np.max(fn_hi - model), np.max(model_left - fn_lo))
