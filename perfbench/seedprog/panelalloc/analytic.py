"""Closed-form distributions of the post-beamforming channel and RSNR.

Under the main-lobe approximation, the equivalent channel is a sum of
Bernoulli-Gaussian terms, one per served path: with probability p_blk the
term vanishes (path blocked), otherwise it is complex Gaussian with variance
rho_l^2 = sigma_l^2 q_l^2. Conditioning on which served paths survive gives a
mixture: a point mass at zero (all served paths blocked) plus one complex
Gaussian per nonempty subset of the allocation support. Squaring turns each
Gaussian component into an exponential, which yields the RSNR distribution
in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .beamforming import PanelAllocation
from .channel import path_variances
from .config import SystemConfig
from .errors import ConfigurationError


@dataclass(frozen=True)
class RsnrMixture:
    """Point mass at zero plus weighted exponential components of the RSNR."""

    zero_mass: float
    weights: np.ndarray
    scales: np.ndarray

    @property
    def components(self) -> list[tuple[float, float]]:
        return list(zip(self.weights.tolist(), self.scales.tolist()))

    def mean(self) -> float:
        return float(np.dot(self.weights, self.scales))


def mixture_components(
    q: np.ndarray, variances: np.ndarray, p_blk: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Survival-pattern weights and per-component variance sums.

    Enumerates the nonempty subsets S of the allocation support. Subset S
    (the surviving paths) has weight p_blk^(N_b - |S|) (1 - p_blk)^|S| and
    carries total variance sum_{l in S} sigma_l^2 q_l^2. Zero-variance
    components (possible when kappa = 0 makes the LoS gain degenerate) are
    folded into the zero mass. Returns (zero_mass, weights, variance_sums).
    """
    q = np.asarray(q, dtype=float)
    variances = np.asarray(variances, dtype=float)
    support = np.flatnonzero(q)
    n_b = support.size
    if n_b == 0:
        raise ConfigurationError("allocation must serve at least one path")
    rho2 = variances[support] * q[support] ** 2

    zero_mass = p_blk**n_b
    weights, var_sums = [], []
    for t in range(1, n_b + 1):
        w = p_blk ** (n_b - t) * (1.0 - p_blk) ** t
        for subset in combinations(range(n_b), t):
            total = float(rho2[list(subset)].sum())
            if total > 0.0:
                weights.append(w)
                var_sums.append(total)
            else:
                zero_mass += w
    return zero_mass, np.asarray(weights), np.asarray(var_sums)


def rsnr_mixture(alloc: PanelAllocation, config: SystemConfig) -> RsnrMixture:
    """Closed-form RSNR distribution for an allocation under a scenario.

    Exponential scales carry the beamforming gain and transmit SNR:
    scale(S) = gamma_tx * (N_a^2 / N_t) * sum_{l in S} sigma_l^2 q_l^2.
    """
    if alloc.num_panels != config.n_p or len(alloc.q) != config.num_paths:
        raise ConfigurationError(
            f"allocation {alloc.q} does not match n_p={config.n_p}, L={config.num_paths}"
        )
    stats = path_variances(config.rician_k, config.num_paths)
    zero_mass, weights, var_sums = mixture_components(
        alloc.as_array(), stats.variances, config.p_blk
    )
    gain = config.tx_snr * config.n_a**2 / config.n_t
    return RsnrMixture(zero_mass=zero_mass, weights=weights, scales=gain * var_sums)


def heq_pdf_real(
    alloc: PanelAllocation, config: SystemConfig, x: np.ndarray
) -> tuple[np.ndarray, float]:
    """Density of the real part of the equivalent channel (continuous part).

    Each complex-Gaussian mixture component of variance v contributes a real
    Gaussian of variance v/2. The point mass at zero is excluded from the
    density and returned separately; the continuous part integrates to
    1 - zero_mass.
    """
    if alloc.num_panels != config.n_p or len(alloc.q) != config.num_paths:
        raise ConfigurationError(
            f"allocation {alloc.q} does not match n_p={config.n_p}, L={config.num_paths}"
        )
    x = np.asarray(x, dtype=float)
    stats = path_variances(config.rician_k, config.num_paths)
    zero_mass, weights, var_sums = mixture_components(
        alloc.as_array(), stats.variances, config.p_blk
    )
    v = config.n_a**2 / config.n_t * var_sums  # complex variance per component
    density = np.zeros_like(x, dtype=float)
    for w, vc in zip(weights, v):
        density += w * np.exp(-(x**2) / vc) / np.sqrt(np.pi * vc)
    return density, zero_mass


def rsnr_cdf(mix: RsnrMixture, gamma: np.ndarray) -> np.ndarray:
    """CDF of the RSNR: zero_mass + sum_i w_i (1 - exp(-gamma / scale_i))."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0.0):
        raise ValueError("RSNR CDF argument must be nonnegative")
    g = np.atleast_1d(gamma)[..., None]
    cdf = mix.zero_mass + np.sum(mix.weights * (1.0 - np.exp(-g / mix.scales)), axis=-1)
    return cdf.reshape(gamma.shape) if gamma.shape else float(cdf[0])


def rsnr_pdf(mix: RsnrMixture, gamma: np.ndarray) -> np.ndarray:
    """Density of the continuous part of the RSNR (point mass excluded)."""
    gamma = np.asarray(gamma, dtype=float)
    if np.any(gamma < 0.0):
        raise ValueError("RSNR PDF argument must be nonnegative")
    g = np.atleast_1d(gamma)[..., None]
    pdf = np.sum(mix.weights / mix.scales * np.exp(-g / mix.scales), axis=-1)
    return pdf.reshape(gamma.shape) if gamma.shape else float(pdf[0])


def se_cdf(mix: RsnrMixture, se_bits: np.ndarray) -> np.ndarray:
    """CDF of the spectral efficiency log2(1 + gamma) at the given SE values."""
    se_bits = np.asarray(se_bits, dtype=float)
    return rsnr_cdf(mix, np.exp2(se_bits) - 1.0)


def outage_probability(
    alloc: PanelAllocation, config: SystemConfig, target_se: float
) -> float:
    """Probability that the SE falls below target_se bits/s/Hz."""
    if target_se < 0.0:
        raise ValueError(f"target SE must be nonnegative, got {target_se}")
    gamma_th = 2.0**target_se - 1.0
    return float(rsnr_cdf(rsnr_mixture(alloc, config), gamma_th))


def average_rsnr(alloc: PanelAllocation, config: SystemConfig) -> float:
    """Mean RSNR in closed form.

    E[gamma] = gamma_tx N_a^2 (1 - p_blk) / (N_t (kappa+1)(L-1))
               * (kappa (L-1) q_1^2 + q_2^2 + ... + q_L^2)
    """
    if alloc.num_panels != config.n_p or len(alloc.q) != config.num_paths:
        raise ConfigurationError(
            f"allocation {alloc.q} does not match n_p={config.n_p}, L={config.num_paths}"
        )
    q = alloc.as_array().astype(float)
    kappa, L = config.rician_k, config.num_paths
    prefactor = (
        config.tx_snr
        * config.n_a**2
        * (1.0 - config.p_blk)
        / (config.n_t * (kappa + 1.0) * (L - 1))
    )
    return float(prefactor * (kappa * (L - 1) * q[0] ** 2 + np.sum(q[1:] ** 2)))


def average_se_upper_bound(alloc: PanelAllocation, config: SystemConfig) -> float:
    """Jensen bound on the mean SE: log2(1 + E[gamma])."""
    return float(np.log2(1.0 + average_rsnr(alloc, config)))
