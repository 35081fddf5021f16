"""Path-gain statistics, AoD sampling and the stochastic blockage model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .errors import ConfigurationError, SamplingError

# ULA half-power beamwidth rule of thumb: HPBW ~ 102 deg / (number of elements).
HPBW_COEFF_DEG = 102.0

# Blockage attenuation model: eta = ETA_BASE + 180 deg / HPBW, amplitude factor 1/eta.
ETA_BASE = 9.8

_AOD_MAX_ATTEMPTS = 10_000


@dataclass
class ChannelRealization:
    """One training-phase draw of the path AoDs."""

    aods: np.ndarray


def path_variances(kappa: float, num_paths: int) -> np.ndarray:
    """Per-path gain variances for a Rician channel with K-factor ``kappa``.

    The LoS path carries kappa/(kappa+1) of the unit total power; the
    remaining power is split equally over the L-1 NLoS paths:

        sigma_1^2 = kappa / (kappa + 1)
        sigma_l^2 = 1 / ((kappa + 1) (L - 1)),  l > 1
    """
    if num_paths < 2:
        raise ConfigurationError(f"num_paths must be >= 2, got {num_paths}")
    if not kappa >= 0.0:
        raise ConfigurationError(f"kappa must be nonnegative, got {kappa}")
    variances = np.full(num_paths, 1.0 / ((kappa + 1.0) * (num_paths - 1)))
    variances[0] = kappa / (kappa + 1.0)
    return variances


def default_min_separation(config: SystemConfig) -> float:
    """Default minimum pairwise AoD spacing: four full-array beamwidths, radians."""
    return 4.0 * math.radians(HPBW_COEFF_DEG / config.n_t)


def _fill_gains(variances: np.ndarray, rng: np.random.Generator, out, buf) -> None:
    """Fill complex ``out`` (..., L) with path gains, in place.

    Each gain is zero-mean circularly-symmetric complex Gaussian,
    sqrt(sigma_l^2 / 2) (z1 + 1j z2): z1 then z2 are standard normal draws
    made through the float scratch ``buf`` of out's shape, bit for bit the
    values of scale * (z1 + 1j * z2).
    """
    rng.standard_normal(out=buf)
    out.real = buf
    rng.standard_normal(out=buf)
    out.imag = buf
    out *= np.sqrt(variances / 2.0)


def sample_aods(
    config: SystemConfig,
    min_separation: float | None = None,
    rng: np.random.Generator | None = None,
    max_attempts: int = _AOD_MAX_ATTEMPTS,
) -> np.ndarray:
    """Draw L AoDs uniformly on [0, pi) with pairwise spacing >= min_separation.

    Rejection sampling; raises SamplingError if no admissible draw is found
    within the retry budget (possible when the separation demand is close to
    the packing limit min_separation * L < pi).
    """
    if rng is None:
        rng = np.random.default_rng()
    if min_separation is None:
        min_separation = default_min_separation(config)
    L = config.num_paths
    if min_separation < 0.0:
        raise ConfigurationError("min_separation must be nonnegative")
    if min_separation * L >= math.pi:
        raise ConfigurationError(
            f"min_separation {min_separation:.4g} rad is infeasible for {L} paths on [0, pi)"
        )
    for _ in range(max_attempts):
        aods = rng.uniform(0.0, math.pi, size=L)
        gaps = np.diff(np.sort(aods))
        if min_separation == 0.0 or np.all(gaps >= min_separation):
            return aods
    raise SamplingError(
        f"could not draw {L} AoDs with spacing {min_separation:.4g} rad "
        f"in {max_attempts} attempts"
    )


def sample_channel(
    config: SystemConfig,
    min_separation: float | None = None,
    rng: np.random.Generator | None = None,
) -> ChannelRealization:
    """Draw one training-phase channel: the AoDs the beamformers are steered to.

    Path gains and blockage are redrawn per transmission frame by the Monte
    Carlo engine (``montecarlo.run_trials``), not here.
    """
    return ChannelRealization(aods=sample_aods(config, min_separation, rng))


def blockage_attenuation(hpbw_deg: np.ndarray) -> np.ndarray:
    """Amplitude factor 1/eta applied to a blocked path, eta = 9.8 + 180/HPBW."""
    hpbw = np.asarray(hpbw_deg, dtype=float)
    if np.any(~(hpbw > 0.0)):
        raise ConfigurationError("hpbw_deg entries must be positive")
    return 1.0 / (ETA_BASE + 180.0 / hpbw)


def _block(out, blocked_values, p_block, rng: np.random.Generator, buf, mask) -> None:
    """Block each entry of ``out`` (n, L) with probability p_block, in place.

    A blocked entry in column l is multiplied by blocked_values[l]. p_block
    broadcasts against (n, L): a scalar blocks every path independently, a
    column (n, 1) gives each frame its own probability. The draws go through
    the float scratch ``buf``, the blocked pattern through the bool ``mask``.
    """
    rng.random(out=buf)
    np.less(buf, p_block, out=mask)
    np.multiply(out, blocked_values, out=out, where=mask)


def _shared_blockage(config: SystemConfig, blocked_values, rng, out, buf, mask) -> None:
    """Apply per-frame shared blockage to ``out`` (n_frames, L), in place.

    One blockage probability p_hat ~ U(p_min, p_max) is drawn per frame and
    shared by all paths; each path is then blocked independently with
    probability p_hat. A blocked path l is multiplied by blocked_values[l],
    a clear path is left as it is. Marginally each path is blocked with
    probability p_blk, but blockage events within a frame are positively
    correlated.
    """
    p_hat = rng.uniform(config.p_min, config.p_max, size=len(out))
    _block(out, blocked_values, p_hat[:, None], rng, buf, mask)
