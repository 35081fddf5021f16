"""Closed-form distributions of the post-beamforming channel and RSNR.

Under the main-lobe approximation, the equivalent channel is a sum of
Bernoulli-Gaussian terms, one per served path: with probability p_blk the
term vanishes (path blocked), otherwise it is complex Gaussian of RSNR scale
rho_l^2 = gamma_tx (N_a^2/N_t) sigma_l^2 q_l^2. Conditioning on which paths
of positive scale survive gives a mixture: a point mass at zero (all blocked)
plus one exponential RSNR per nonempty subset of those paths.

One mask table and one blocked CDF sum serve every caller. ``rsnr_mixture``
is the one-row table; ``score_allocations``, the candidate-scoring kernel,
scores a (C, L) array of allocations at one target SE or a grid of them, and
``outage_probability`` is its one-row call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .beamforming import PanelAllocation, validate_allocation
from .channel import path_variances
from .config import SystemConfig
from .errors import ConfigurationError


@dataclass(frozen=True)
class RsnrMixture:
    """Point mass at zero plus weighted exponential components of the RSNR."""

    zero_mass: float
    weights: np.ndarray
    scales: np.ndarray


def _profile(q: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Ascending RSNR scales rho_l^2 of each allocation row of q (C, L), gain applied first."""
    gain = config.tx_snr * config.n_a**2 / config.n_t
    variances = path_variances(config.rician_k, config.num_paths)
    q2 = np.asarray(q, dtype=float) ** 2
    power = gain * variances * q2
    # a subnormal scale (kappa near 5e-324) is rounded once, sigma^2 last: gain sigma^2
    # would keep only a few bits, and q^2 would scale their error
    return np.sort(np.where(power < np.finfo(float).tiny, variances * (gain * q2), power), axis=1)


def _survival_masks(profiles: np.ndarray, p_blk: float):
    """Mask tables of sorted profiles (R, L), one per count n of positive entries.

    Yields the group's row indices, its atom p_blk^n, and the weights (2^n - 1,) and
    scales (rows, 2^n - 1) of the other masks of its positive entries: mask m (the
    surviving paths) has scale sum_{l in m} rho_l^2 and weight p_blk^(n - |m|) (1 - p_blk)^|m|.
    Masks are built by doubling, path by path, so mask 0 is the empty one, the atom.
    """
    served = np.count_nonzero(profiles > 0.0, axis=1)
    for n in np.flatnonzero(np.bincount(served)).tolist():
        rows = np.flatnonzero(served == n)
        scales, survivors = np.zeros((rows.size, 1)), np.zeros(1)
        for rho2_l in profiles[rows, profiles.shape[1] - n :].T:
            scales = np.hstack((scales, scales + rho2_l[:, None]))
            survivors = np.concatenate((survivors, survivors + 1.0))
        weights = p_blk ** (n - survivors) * (1.0 - p_blk) ** survivors
        yield rows, weights[0], weights[1:], scales[:, 1:]


def rsnr_mixture(alloc: PanelAllocation, config: SystemConfig) -> RsnrMixture:
    """Closed-form RSNR distribution of an allocation: its one-row mask table.

    Components come in the mask order of the ascending profile. Unserved paths, and the
    LoS path when kappa = 0 makes its gain degenerate, only enlarge the point mass at zero.
    """
    validate_allocation(alloc, config)
    profile = _profile(alloc.as_array()[None, :], config)
    [(_, zero_mass, weights, scales)] = _survival_masks(profile, config.p_blk)
    return RsnrMixture(zero_mass=float(zero_mass), weights=weights, scales=scales[0])


# Elements of one (points, rows, K) block of a mixture sum: 512 KB temporaries,
# which stay in cache, whatever the number of points. At 10^6 points and K = 15,
# blocks of 2^16 elements evaluate about 1.5x faster than blocks of 2^20.
_BLOCK_ELEMENTS = 1 << 16


def _cdf_table(zero_mass, weights, scales: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(N, R) table of zero_mass + sum_k w_k (1 - exp(-gamma_i / s_rk)), points gamma (N,).

    Runs in blocks of about 2^16 elements of points x rows x K. Each entry is one numpy
    reduction along the contiguous last axis of scales (R, K), so it does not depend on R
    or on the blocking, bit for bit.
    """
    out = np.empty((gamma.size, len(scales)))
    k = max(1, scales.shape[1])
    rows = max(1, min(len(scales), _BLOCK_ELEMENTS // k))
    points = max(1, _BLOCK_ELEMENTS // (rows * k))
    # a subnormal scale (kappa near 5e-324) sends the ratio to -inf: the term is w_k
    with np.errstate(over="ignore"):
        for i, j in itertools.product(range(0, gamma.size, points), range(0, len(scales), rows)):
            ratio = -gamma[i : i + points, None, None] / scales[j : j + rows]
            np.sum(weights * -np.expm1(ratio), axis=-1, out=out[i : i + points, j : j + rows])
    out += zero_mass
    return out


def rsnr_cdf(mix: RsnrMixture, gamma: np.ndarray) -> np.ndarray:
    """CDF of the RSNR: zero_mass + sum_i w_i (1 - exp(-gamma / scale_i)).

    The one-row call of the blocked CDF sum. Returns gamma's shape, or a float for a
    scalar gamma.
    """
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0.0):
        raise ValueError("RSNR CDF argument must be nonnegative")
    out = _cdf_table(mix.zero_mass, mix.weights, mix.scales[None, :], gamma.ravel())[:, 0]
    return out.reshape(gamma.shape) if gamma.shape else float(out[0])


def _rsnr_at(se_bits) -> np.ndarray:
    """gamma = 2^SE - 1: expm1(SE ln 2) below SE = 1, where 2^SE - 1 loses digits (all of
    them below 2^-53), else exp2(SE) - 1, which overflows to inf from SE = 1024."""
    se = np.asarray(se_bits, dtype=float)
    with np.errstate(over="ignore"):
        return np.where(se < 1.0, np.expm1(se * np.log(2.0)), np.exp2(se) - 1.0)


def se_cdf(mix: RsnrMixture, se_bits: np.ndarray) -> np.ndarray:
    """CDF of the spectral efficiency log2(1 + gamma) at the given SE values."""
    return rsnr_cdf(mix, _rsnr_at(se_bits))  # 1 at SE >= 1024, where gamma = inf


_FRACTION_DEPTH = 80


def _exp_e1(x: np.ndarray) -> np.ndarray:
    """e^x E1(x) for an array x > 0, relative error below 1e-14 on [1e-12, 700].

    For x <= 1, 24 terms of E1(x) = -gamma - ln x - sum_k (-x)^k / (k k!)
    (Abramowitz & Stegun 5.1.11); above 1, the continued fraction
    e^x E1(x) = 1/(x+1 - 1/(x+3 - 4/(x+5 - ...))) (even part of A&S 5.1.22),
    evaluated from its tail at a depth set where it converges slowest, x near 1.
    """
    out = np.empty_like(x)
    small = x <= 1.0
    xs, xl = x[small], x[~small]
    term, total = np.ones_like(xs), np.zeros_like(xs)
    for k in range(1, 25):
        term *= -xs / k
        total += term / k
    out[small] = np.exp(xs) * (-np.euler_gamma - np.log(xs) - total)
    t = xl + (2 * _FRACTION_DEPTH + 1)
    for k in range(_FRACTION_DEPTH, 0, -1):
        t = xl + (2 * k - 1) - k * k / t
    out[~small] = 1.0 / t
    return out


def _se_means(mixtures) -> list[float]:
    """Exact mean SE E[log2(1 + gamma)] of each RSNR mixture, one ``_exp_e1`` call for all.

    An exponential RSNR of scale s has E[ln(1 + gamma)] = e^{1/s} E1(1/s)
    (Abramowitz & Stegun 5.1), so the mean is sum_k w_k e^{1/s_k} E1(1/s_k) / ln 2;
    the zero atom adds nothing.
    """
    # a subnormal scale (kappa near 5e-324) sends 1/s to inf, whose term is 0
    with np.errstate(over="ignore"):
        inverse = 1.0 / np.concatenate([mix.scales for mix in mixtures])
    ends = np.cumsum([mix.scales.size for mix in mixtures])
    terms = np.split(_exp_e1(inverse), ends[:-1])
    return [float(mix.weights @ term / np.log(2.0)) for mix, term in zip(mixtures, terms)]


def se_mean(mix: RsnrMixture) -> float:
    """Exact mean SE E[log2(1 + gamma)] of an RSNR mixture: its one-mixture ``_se_means``."""
    return _se_means([mix])[0]


def score_allocations(
    q: np.ndarray, config: SystemConfig, target_se: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outage probability at target_se and mean RSNR of every allocation row.

    Row q (of a (C, L) array) has outage se_cdf(rsnr_mixture(q), target_se), bit for bit,
    and mean RSNR (1 - p_blk) sum_l rho_l^2, with one blocked CDF sum per count of positive
    scales. Both depend only on the sorted profile, and each table entry is one reduction
    whatever the row count, so rows with equal profiles (e.g. permuted NLoS entries) score
    bit-identically. Rows are not validated.

    A scalar target_se gives (C,) outages; an array of G targets gives (C, G), each
    column bit-identical to the scalar call.
    """
    targets = np.asarray(target_se, dtype=float)
    if not np.all(targets >= 0.0):
        raise ConfigurationError(f"target SE must be nonnegative, got {target_se}")
    gamma = _rsnr_at(targets.ravel())
    profiles = _profile(q, config)
    outage = np.empty((len(profiles), gamma.size))
    for rows, zero_mass, weights, scales in _survival_masks(profiles, config.p_blk):
        outage[rows] = _cdf_table(zero_mass, weights, scales, gamma).T
    mean = (1.0 - config.p_blk) * profiles.sum(axis=1)
    return (outage if targets.ndim else outage[:, 0]), mean


def outage_probability(alloc: PanelAllocation, config: SystemConfig, target_se: float) -> float:
    """Probability that the SE falls below target_se bits/s/Hz."""
    validate_allocation(alloc, config)
    return float(score_allocations(alloc.as_array()[None, :], config, target_se)[0][0])


def average_rsnr(alloc: PanelAllocation, config: SystemConfig) -> float:
    """Mean RSNR in closed form, from the allocation's profile.

    E[gamma] = gamma_tx N_a^2 (1 - p_blk) / (N_t (kappa+1)(L-1))
               * (kappa (L-1) q_1^2 + q_2^2 + ... + q_L^2)
    """
    validate_allocation(alloc, config)
    return float((1.0 - config.p_blk) * _profile(alloc.as_array()[None, :], config).sum(axis=1)[0])


def average_se_upper_bound(alloc: PanelAllocation, config: SystemConfig) -> float:
    """Jensen bound on the mean SE: log2(1 + E[gamma])."""
    return float(np.log2(1.0 + average_rsnr(alloc, config)))
