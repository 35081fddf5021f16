"""Independent oracles shared by the test modules."""

from itertools import product

import numpy as np

from panelalloc import (
    PanelAllocation,
    allocation_array,
    beam_hpbw_deg,
    build_beamformer,
    equivalent_array_response_exact,
    score_allocations,
    validate_allocation,
)
from panelalloc.channel import blockage_attenuation
from panelalloc.montecarlo import CHUNK_TRIALS


def array_response(n: int, theta: float) -> np.ndarray:
    """ULA array response a(n, theta), entry k = exp(j pi k cos(theta))."""
    return np.exp(1j * np.pi * np.arange(n) * np.cos(theta))


def composition_count(total: int, parts: int, head_min: int = 1) -> int:
    """Count integer vectors q >= 0 with sum(q) = total and q[0] >= head_min.

    Plain recursion, independent of the closed form under test.
    """
    if parts == 1:
        return 1 if total >= head_min else 0
    return sum(
        composition_count(total - head, parts - 1, 0)
        for head in range(head_min, total + 1)
    )


def partition_count(total: int, parts: int) -> int:
    """Partitions of total into at most ``parts`` positive parts.

    Plain recursion p(n, k) = p(n, k - 1) + p(n - k, k): either no part
    equals k in the conjugate, or subtract one from each of k parts.
    """
    if total == 0:
        return 1
    if total < 0 or parts == 0:
        return 0
    return partition_count(total, parts - 1) + partition_count(total - parts, parts)


def profile_count(n_p: int, num_paths: int, require_los: bool = True) -> int:
    """Allocation profiles: q_1 plus a partition of n_p - q_1 into at most L - 1 parts."""
    return sum(
        partition_count(n_p - q1, num_paths - 1) for q1 in range(int(require_los), n_p + 1)
    )


def exhaustive_outmin(config, target_se, epsilon, require_los=True):
    """The outage designs by exhaustive search over every composition.

    Scores the whole ``allocation_array`` table with ``score_allocations`` and
    picks the row with the lexsort on (infeasible, -mean, allocation order).
    Returns (chosen q, outage, mean RSNR).
    """
    q = allocation_array(config.n_p, config.num_paths, require_los)
    outages, avgs = score_allocations(q, config, target_se)
    best = int(np.lexsort((-avgs, outages > outages.min() + epsilon))[0])
    return PanelAllocation(tuple(q[best].tolist())), float(outages[best]), float(avgs[best])


def unique_ks_distance(samples, se_cdf) -> float:
    """KS distance of samples to a model CDF, evaluating the model at every distinct sample.

    np.unique gives the distinct values and their counts; the empirical CDF
    at and just below each one is compared with the model there. A tied run
    at SE = 0 is the atom, so the model just below it is 0. No blocks, no
    pruning.
    """
    xs, counts = np.unique(samples, return_counts=True)
    n = np.size(samples)
    fn_hi = np.cumsum(counts) / n
    model = np.asarray(se_cdf(xs), dtype=float)
    model_left = model.copy()
    if xs[0] == 0.0:
        model_left[0] = 0.0
    return float(max(np.max(fn_hi - model), np.max(model_left - (fn_hi - counts / n)), 0.0))


def pattern_energy(f: np.ndarray, npts: int = 40001) -> float:
    """(N_t / 2) * integral of |a(u)^H f|^2 over u = cos(theta) in [-1, 1]."""
    n_t = f.size
    u = np.linspace(-1.0, 1.0, npts)
    values = np.empty(npts)
    step = 4000
    for i in range(0, npts, step):
        block = np.exp(1j * np.pi * np.outer(u[i : i + step], np.arange(n_t)))
        values[i : i + step] = np.abs(block.conj() @ f) ** 2
    return n_t / 2.0 * np.trapezoid(values, u)


def _path_variances(kappa: float, num_paths: int) -> np.ndarray:
    """sigma_1^2 = kappa/(kappa+1); sigma_l^2 = 1/((kappa+1)(L-1)) for l > 1."""
    variances = np.full(num_paths, 1.0 / ((kappa + 1.0) * (num_paths - 1)))
    variances[0] = kappa / (kappa + 1.0)
    return variances


def blockage_pattern_se_cdf(config, a_eq, blocked_values, se_bits) -> np.ndarray:
    """Exact SE CDF for fixed equivalent responses under the shared-p_hat blockage law.

    Every frame draws one p_hat ~ U(p_min, p_max) and blocks each path
    independently with probability p_hat; a blocked path l is scaled by
    blocked_values[l], a clear one by 1. Given the blocked set B, the
    equivalent channel sum_l omega_l conj(g_l) a_eq[l] is CN(0, v_B) with
    v_B = sum_l omega_l^2 sigma_l^2 |a_eq[l]|^2, so the RSNR is exponential
    with scale gamma_tx v_B (a point mass at 0 when v_B = 0). The pattern
    weight E[p_hat^|B| (1 - p_hat)^(L - |B|)] is a degree-L polynomial in
    p_hat, integrated exactly by Gauss-Legendre with L // 2 + 1 nodes; with
    p_min == p_max it is the plain binomial weight at that probability.

    Plain enumeration of all 2^L patterns, independent of the mixture code.
    """
    L = config.num_paths
    variances = _path_variances(config.rician_k, L)
    clear_power = variances * np.abs(np.asarray(a_eq)) ** 2
    blocked_power = clear_power * np.asarray(blocked_values, dtype=float) ** 2
    nodes, weights = np.polynomial.legendre.leggauss(L // 2 + 1)
    half = (config.p_max - config.p_min) / 2.0
    p_hat = (config.p_min + config.p_max) / 2.0 + half * nodes
    weights = weights / 2.0
    gamma = np.exp2(np.atleast_1d(np.asarray(se_bits, dtype=float))) - 1.0
    cdf = np.zeros_like(gamma)
    for pattern in product((False, True), repeat=L):
        blocked = np.array(pattern)
        k = int(blocked.sum())
        weight = float(np.sum(weights * p_hat**k * (1.0 - p_hat) ** (L - k)))
        scale = config.tx_snr * float(np.where(blocked, blocked_power, clear_power).sum())
        cdf += weight * (1.0 if scale == 0.0 else -np.expm1(-gamma / scale))
    return cdf.reshape(np.shape(se_bits))


def realistic_se_cdf(config, alloc, aods, se_bits) -> np.ndarray:
    """Exact SE CDF of realistic-mode frames for fixed AoDs.

    Exact array responses of the allocation's beamformer; a blocked served
    path keeps amplitude 1/eta with eta = 9.8 + 180 / HPBW and
    HPBW = 102 deg / (q_l N_a); a blocked unserved path is nulled.
    """
    a_eq = equivalent_array_response_exact(aods, build_beamformer(alloc, aods, config))
    q = alloc.as_array().astype(float)
    served = q > 0
    blocked_values = np.zeros(config.num_paths)
    hpbw = 102.0 / (q[served] * config.n_a)
    blocked_values[served] = 1.0 / (9.8 + 180.0 / hpbw)
    return blockage_pattern_se_cdf(config, a_eq, blocked_values, se_bits)


def serial_channel_power(config, alloc, aods, mode, n_trials, seed) -> np.ndarray:
    """``montecarlo._channel_power`` as one serial loop over the chunks,
    concatenated at the end.

    The single-threaded chunk loop the threaded fill replaced, with the gain
    law (scale * (z1 + 1j z2)) and the shared-p_hat blockage law
    (np.where over the blocked pattern) written out instead of called, so
    the reference shares no sampling code with the library.
    """
    aods = np.asarray(aods, dtype=float)
    validate_allocation(alloc, config)
    L = config.num_paths
    variances = _path_variances(config.rician_k, L)
    q = alloc.as_array().astype(float)

    if mode == "idealized":
        a_eq = config.n_a / np.sqrt(config.n_t) * q
    else:
        a_eq = equivalent_array_response_exact(aods, build_beamformer(alloc, aods, config))
        hpbw = beam_hpbw_deg(alloc, config.n_a)
        served = q > 0
        blocked_values = np.zeros(L)
        blocked_values[served] = blockage_attenuation(hpbw[served])

    full, rem = divmod(n_trials, CHUNK_TRIALS)
    power_chunks = []
    for chunk_index, size in enumerate([CHUNK_TRIALS] * full + ([rem] if rem else [])):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=(seed, chunk_index)))
        )
        scale = np.sqrt(variances / 2.0)
        gains = scale * (rng.standard_normal((size, L)) + 1j * rng.standard_normal((size, L)))
        if mode == "idealized":
            omega = (rng.random((size, L)) >= config.p_blk).astype(float)
        else:
            p_hat = rng.uniform(config.p_min, config.p_max, size=size)
            blocked = rng.random((size, L)) < p_hat[:, None]
            omega = np.where(blocked, blocked_values[None, :], 1.0)
        h_eq = np.sum(omega * gains.conj() * a_eq[None, :], axis=1)
        power_chunks.append(np.abs(h_eq) ** 2)
    return np.concatenate(power_chunks)
