"""Dual-mode Monte Carlo engine for the post-beamforming SE distribution.

Idealized mode reproduces the assumptions behind the closed-form analysis:
main-lobe-only equivalent response (N_a/sqrt(N_t)) q, binary blockage drawn
independently per path at the marginal probability p_blk. It is the oracle
the analytic module is validated against.

Realistic mode keeps the exact array responses (side lobes included), draws
one blockage probability per frame shared by all paths, and attenuates
blocked served paths by 1/eta instead of nulling them; unserved paths have
no beam and are nulled when blocked.

``channel_power`` fills its chunks on all usable cores: min(len(
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


def channel_power(
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
    The draws do not depend on the transmit SNR, so one array serves every
    tx_snr. Deterministic for a fixed (mode, seed) regardless of chunk
    scheduling: min(usable CPUs, chunks) threads fill the chunks, worker w
    taking chunks w, w + W, ..., each into its own slice of the result.
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

    The frames are those of ``channel_power``; the RSNR of a frame is
    tx_snr |h_eq|^2.
    """
    gamma = config.tx_snr * channel_power(config, alloc, aods, mode, n_trials, seed)
    se = np.log2(1.0 + gamma)
    return TrialBatchResult(
        se_samples=se,
        mean_se=float(se.mean()),
        mean_rsnr=float(gamma.mean()),
        trials=n_trials,
        seed=seed,
        mode=mode,
    )


def empirical_outage(result: TrialBatchResult, target_se: float) -> float:
    """Fraction of trials with SE strictly below the target."""
    idx = np.searchsorted(result._sorted, target_se, side="left")
    return idx / result.trials


def ks_distance(result: TrialBatchResult, se_cdf) -> float:
    """Kolmogorov-Smirnov distance between the sample set and an SE CDF.

    ``se_cdf`` is a vectorized callable returning the model CDF at given SE
    values. The model may carry a point mass at SE = 0 (the all-blocked
    atom) and must be continuous elsewhere; tied zero samples are collapsed
    so the atom is compared jump-against-jump.
    """
    # runs of equal values in the sorted samples, as np.unique finds them without sorting again
    s = result._sorted
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    xs, counts = s[starts], np.diff(np.r_[starts, s.size])
    n = result.trials
    fn_hi = np.cumsum(counts) / n  # empirical CDF at xs
    fn_lo = fn_hi - counts / n  # empirical CDF just below xs
    model = np.asarray(se_cdf(xs), dtype=float)
    model_left = model.copy()
    if xs.size and xs[0] == 0.0:
        model_left[0] = 0.0
    d_plus = np.max(fn_hi - model)
    d_minus = np.max(model_left - fn_lo)
    return float(max(d_plus, d_minus, 0.0))
