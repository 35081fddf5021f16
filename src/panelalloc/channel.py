"""Path-gain variances, AoD sampling and the stochastic blockage model.

Blockage has one law per Monte Carlo mode, both drawn by ``_block``.
Idealized, the law of the paper's outage analysis: each path of a frame is
blocked independently with the marginal probability p_blk. Realistic: each
frame draws one p_hat ~ U(p_min, p_max), shared by its paths, each then
blocked independently with probability p_hat, so the marginal is still
p_blk but a frame's blockage events are positively correlated. A blocked
path keeps amplitude 0 in idealized mode; in realistic mode it keeps what
``_blocked_amplitudes``, the one blocked-path law, gives: 1/eta on a
served path, from its beam's beamwidth, and 0 on an unserved one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig
from .errors import ConfigurationError, SamplingError

# ULA half-power beamwidth rule of thumb, HPBW ~ 102 deg / (number of elements), and the
# blocked-path attenuation eta = ETA_BASE + 180 deg / HPBW of the serving beam's HPBW.
HPBW_COEFF_DEG = 102.0
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


def sample_channel(config: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one training-phase channel: the AoDs the beamformers are steered to.

    The L AoDs are uniform on [0, pi), redrawn until every pair is at least four
    full-array beamwidths apart; raises SamplingError if no draw is admissible in
    ``_AOD_MAX_ATTEMPTS`` (possible when the spacing nears the packing limit pi / L).
    Blockage and the path gains' Exp(1) RSNR factor are redrawn per
    transmission frame by the Monte Carlo engine (``montecarlo.run_batches``),
    not here.
    """
    L = config.num_paths
    spacing = 4.0 * math.radians(HPBW_COEFF_DEG / config.n_t)
    if spacing * L >= math.pi:
        raise ConfigurationError(
            f"AoD spacing {spacing:.4g} rad is infeasible for {L} paths on [0, pi)"
        )
    for _ in range(_AOD_MAX_ATTEMPTS):
        aods = rng.uniform(0.0, math.pi, size=L)
        if np.all(np.diff(np.sort(aods)) >= spacing):
            return ChannelRealization(aods=aods)
    raise SamplingError(
        f"could not draw {L} AoDs with spacing {spacing:.4g} rad in {_AOD_MAX_ATTEMPTS} attempts"
    )


def _blocked_amplitudes(q, n_a: int) -> np.ndarray:
    """Blocked amplitude of each path of ``q`` in realistic mode: 1/eta if served, else 0."""
    q = np.asarray(q)
    with np.errstate(divide="ignore"):
        return np.where(q > 0, 1.0 / (ETA_BASE + 180.0 / (HPBW_COEFF_DEG / (q * n_a))), 0.0)


def _block(config: SystemConfig, mode: str, rng: np.random.Generator, draws, mask, p_hat) -> None:
    """Draw one chunk's blocked pattern ``mask`` (L, rows), path-major, under a mode's law.

    Realistic mode first draws the frames' p_hat into the float buffer
    ``p_hat`` (rows,), bit for bit ``rng.uniform(p_min, p_max, rows)``, which
    is p_min + (p_max - p_min) u; idealized mode draws none and leaves
    ``p_hat``, which may be empty, alone. Then the uniforms, one per path and
    frame in path-major order, are drawn into the float scratch ``draws``
    (L, rows) and compared with p_blk or the (1, rows) p_hat row. The draws
    are then spent: the Monte Carlo fill reuses their bytes for its squared
    weights.
    """
    p_block = config.p_blk
    if mode == "realistic":
        rng.random(out=p_hat)
        p_hat *= config.p_max - config.p_min
        p_hat += config.p_min
        p_block = p_hat[None, :]
    rng.random(out=draws)
    np.less(draws, p_block, out=mask)
