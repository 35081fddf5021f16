"""Path-gain variances, AoD sampling and the stochastic blockage model.

Blockage has one law per Monte Carlo mode. Idealized, the law of the paper's
outage analysis: each path of a frame is blocked independently with the
marginal probability p_blk. Realistic: each frame draws one p_hat ~
U(p_min, p_max), shared by its paths, each then blocked independently with
probability p_hat, so the marginal is still p_blk but a frame's blockage
events are positively correlated. A blocked path keeps amplitude 0 in
idealized mode; in realistic mode it keeps what ``_blocked_amplitudes``, the
one blocked-path law, gives: 1/eta on a served path, from its beam's
beamwidth, and 0 on an unserved one.

A pattern's probability depends on p_hat only through E[p_hat^j (1 - p_hat)^(L - j)],
j <= L, so each law is nodes with weights (``_pattern_nodes``). Paths go in groups of
8, path l as bit l % 8 of group l // 8's sub-pattern, each with a Walker/Vose alias
table per node (``_pattern_tables``); with one group the nodes are summed into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

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


_GROUP = 8  # paths per group, so a group's table has at most 2^8 entries


def _pattern_nodes(config: SystemConfig, mode: str):
    """(nodes, weights), exact for E[p_hat^j (1 - p_hat)^(L - j)]: p_blk alone in idealized
    mode or if p_min = p_max, else the L // 2 + 1 Gauss-Legendre nodes on [p_min, p_max], the
    roots x of P_n by Newton's method on its recurrence, weighted (1 - x^2) / (n P_(n-1)(x))^2."""
    if mode == "idealized" or config.p_min == config.p_max:
        return np.array([config.p_blk]), np.ones(1)
    n = config.num_paths // 2 + 1
    x, close, done = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5)), False, False
    while not done:  # quadratic: once a step is below 1e-14, one more reaches the roots
        p, prev = x, np.ones_like(x)
        for k in range(2, n + 1):
            p, prev = ((2 * k - 1) * x * p - (k - 1) * prev) / k, p
        step = p * (1.0 - x) * (1.0 + x) / (n * (prev - x * p))
        x, close, done = x - step, bool(np.max(np.abs(step)) < 1e-14), close
    half = (config.p_max - config.p_min) / 2.0
    return config.p_blk + half * x, (1.0 - x) * (1.0 + x) / (n * prev) ** 2


def _alias_table(pmf: np.ndarray):
    """Walker/Vose (threshold, alias) of a pmf on n = 2^B entries: a draw keeps k = floor(n u)
    if n u < threshold[k] = k + prob[k], else takes alias[k]. The masses, in units of 2^-53 from
    the exact cumulative pmf over its exact total, are worked exactly: k + prob[k] is exact."""
    n, ratios = pmf.size, [m.as_integer_ratio() for m in pmf.tolist()]
    den = max(d for _, d in ratios)
    ends = [0, *accumulate(a * (den // d) for a, d in ratios)]
    mass = [(b << 53) // ends[-1] - (a << 53) // ends[-1] for a, b in zip(ends, ends[1:])]
    unit = (1 << 53) // n  # the mass of one entry's column
    prob, alias, small, large = [unit] * n, list(range(n)), [], []
    for k in range(n):
        (small if mass[k] < unit else large).append(k)
    while small and large:
        k, big = small.pop(), large[-1]
        prob[k], alias[k], mass[big] = mass[k], big, mass[big] - unit + mass[k]
        if mass[big] < unit:
            small.append(large.pop())
    return np.arange(n) + np.array(prob) / unit, np.array(alias)


def _pick(alias: np.ndarray) -> np.ndarray:
    """Choices (..., n, 2) of alias tables (..., n): [..., k, a] is k if a, else alias[..., k]."""
    return np.stack((alias, np.broadcast_to(np.arange(alias.shape[-1]), alias.shape)), axis=-1)


def _pattern_tables(config: SystemConfig, mode: str):
    """(node, groups): groups[g] = (threshold, alias, resolve), group g's tables (nodes, n =
    2^min(L, 8)) at each drawn node (one row, the nodes summed, if none is), zero-padded, and
    resolve from a draw 2 (i n + k) + a to 2 K + 1 for the K it picks; node, the weights'
    table padded to 2^b, is None unless a frame draws its node i (several groups and nodes)."""
    nodes, weights = _pattern_nodes(config, mode)
    sizes = [min(_GROUP, config.num_paths - a) for a in range(0, config.num_paths, _GROUP)]
    drawn, tables = len(sizes) > 1 and nodes.size > 1, {}
    for size in set(sizes):
        blocked = np.array([bin(k).count("1") for k in range(1 << size)])
        pmf = np.zeros((nodes.size, 1 << sizes[0]))
        pmf[:, : 1 << size] = nodes[:, None] ** blocked * (1.0 - nodes[:, None]) ** (size - blocked)
        rows = pmf if drawn else [np.sum(weights[:, None] * pmf, axis=0)]
        threshold, alias = map(np.array, zip(*map(_alias_table, rows)))
        tables[size] = threshold, alias, 2 * _pick(alias).ravel() + 1
    padded = np.pad(weights, (0, (1 << (nodes.size - 1).bit_length()) - nodes.size))
    return _alias_table(padded) if drawn else None, [tables[size] for size in sizes]


def _alias_draw(rng, threshold, u, out, probe, accept, base=None) -> None:
    """out = 2 (base + k) + [n u < threshold[base + k]], k = floor(n u), one uniform u a row:
    n = threshold.shape[-1] is a power of 2, so n u, k and the test are exact."""
    rng.random(out=u)
    u *= threshold.shape[-1]
    np.copyto(out, u, casting="unsafe")
    if base is not None:
        out += base
    np.take(threshold, out, out=probe, mode="clip")
    np.less(u, probe, out=accept)
    out += out
    out += accept


def _draw_patterns(tables, rng: np.random.Generator, u, index, probe, accept) -> None:
    """A chunk's patterns: a uniform row draws each frame's node i if a node is drawn, then a
    row per group, in order, gives index[g] 2 K + 1 for sub-pattern K, or 2 k where a frame takes
    alias[0, k] of a one-row table: its entry in ``_pattern_scales``' table. u, probe, accept
    and index[G:] (two more rows if a node is drawn) are scratch."""
    node, groups = tables
    spare = base = None
    if node is not None:
        spare, base = index[len(groups)], index[len(groups) + 1]
        _alias_draw(rng, node[0], u, spare, probe, accept)
        np.take(_pick(node[1]).ravel() * groups[0][0].shape[1], spare, out=base, mode="clip")
    for (threshold, _, resolve), row in zip(groups, index):
        _alias_draw(rng, threshold, u, row if base is None else spare, probe, accept, base)
        if base is not None:
            np.take(resolve, spare, out=row, mode="clip")


def _row_sum(g: np.ndarray) -> np.ndarray:
    """Per-column sums of g (paths, columns) in path order, in place: the row g[0]."""
    total = g[0]
    for path in g[1:]:
        total += path
    return total


def _pattern_scales(tables, power: np.ndarray, blocked_powers: np.ndarray) -> list:
    """A result's table per group of ``_draw_patterns``' entries: 2 k + 1 holds S_g[k], of
    group g's paths l in path order the sum of (blocked_powers[l] if bit l % 8 of k is set,
    else 1) times power[l], and 2 k holds S_g[alias[0, k]]."""
    scales = []
    for start, (threshold, alias, _) in zip(range(0, power.size, _GROUP), tables[1]):
        paths = slice(start, start + _GROUP)
        bits = (np.arange(threshold.shape[1]) >> np.arange(power[paths].size)[:, None]) & 1
        sums = _row_sum(np.where(bits == 1, blocked_powers[paths, None], 1.0) * power[paths, None])
        scales.append(sums[_pick(alias[0])].ravel())
    return scales
