"""Independent oracles shared by the test modules."""

import functools
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np

from panelalloc import (
    PanelAllocation,
    allocation_array,
    build_beamformer,
    equivalent_array_response_exact,
    rsnr_mixture,
    run_trials,
    sample_channel,
    score_allocations,
    se_cdf,
    validate_allocation,
)
from panelalloc import cli
from panelalloc.channel import _pattern_tables
from panelalloc.export import write_csv
from panelalloc.montecarlo import CHUNK_TRIALS

SRC = Path(cli.__file__).resolve().parents[1]


def fresh_python(*args: str) -> str:
    """Standard output of ``python *args`` in a fresh interpreter importing this panelalloc."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout


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


def profile_count(n_p: int, num_paths: int) -> int:
    """Allocation profiles: q_1 >= 1 plus a partition of n_p - q_1 into at most L - 1 parts."""
    return sum(partition_count(n_p - q1, num_paths - 1) for q1 in range(1, n_p + 1))


def exhaustive_outmin(config, target_se, epsilon):
    """The outage designs by exhaustive search over every composition.

    Scores the whole ``allocation_array`` table with ``score_allocations`` and
    picks the row with the lexsort on (infeasible, -mean, allocation order).
    Returns (chosen q, outage, mean RSNR).
    """
    q = allocation_array(config.n_p, config.num_paths)
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
    # sigma^2 multiplied last, so a scale below the normal range (kappa near 5e-324)
    # is rounded once, not once per factor
    received = config.tx_snr * np.abs(np.asarray(a_eq)) ** 2
    clear_power = variances * received
    blocked_power = variances * (received * np.asarray(blocked_values, dtype=float) ** 2)
    nodes, weights = np.polynomial.legendre.leggauss(L // 2 + 1)
    half = (config.p_max - config.p_min) / 2.0
    p_hat = (config.p_min + config.p_max) / 2.0 + half * nodes
    weights = weights / 2.0
    # 2^SE - 1 as expm1, which keeps every SE > 0 at a gamma > 0, below 2^-53 too
    gamma = np.expm1(np.atleast_1d(np.asarray(se_bits, dtype=float)) * np.log(2.0))
    cdf = np.zeros_like(gamma)
    for pattern in product((False, True), repeat=L):
        blocked = np.array(pattern)
        k = int(blocked.sum())
        weight = float(np.sum(weights * p_hat**k * (1.0 - p_hat) ** (L - k)))
        scale = float(np.where(blocked, blocked_power, clear_power).sum())
        # a subnormal scale (kappa near 5e-324) sends gamma / scale to inf: the CDF is 1
        with np.errstate(over="ignore"):
            cdf += weight * (1.0 if scale == 0.0 else -np.expm1(-gamma / scale))
    return cdf.reshape(np.shape(se_bits))


def _mode_law(config, alloc, aods, mode):
    """(a_eq, blocked_values) of one allocation in one mode, from literals.

    Idealized: main-lobe responses (N_a / sqrt(N_t)) q and blocked paths
    nulled. Realistic: exact responses; a blocked served path keeps 1/eta,
    eta = 9.8 + 180 deg / HPBW with the serving beam's HPBW = 102 deg / (q_l N_a),
    and a blocked unserved one is nulled.
    """
    aods = np.asarray(aods, dtype=float)
    validate_allocation(alloc, config)
    q = alloc.as_array().astype(float)
    blocked_values = np.zeros(config.num_paths)
    if mode == "idealized":
        return config.n_a / np.sqrt(config.n_t) * q, blocked_values
    a_eq = equivalent_array_response_exact(aods, build_beamformer(alloc, aods, config))
    served = q > 0
    blocked_values[served] = 1.0 / (9.8 + 180.0 / (102.0 / (q[served] * config.n_a)))
    return a_eq, blocked_values


def realistic_se_cdf(config, alloc, aods, se_bits) -> np.ndarray:
    """Exact SE CDF of realistic-mode frames for fixed AoDs: ``_mode_law``'s
    exact responses and blocked amplitudes under the shared-p_hat law."""
    a_eq, blocked_values = _mode_law(config, alloc, aods, "realistic")
    return blockage_pattern_se_cdf(config, a_eq, blocked_values, se_bits)


def _stream(*key):
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=key)))


def _chunk_rows(n_trials):
    """(chunk index, rows) of each chunk of CHUNK_TRIALS frames, the last shorter."""
    full, rem = divmod(n_trials, CHUNK_TRIALS)
    return enumerate([CHUNK_TRIALS] * full + ([rem] if rem else []))


def _serial_chunks(config, mode, n_trials, seed, blocked_values):
    """(stream 0, omega) of each chunk: the SFC64 stream keyed (seed, c), left undrawn,
    and the per-path factors (L, rows) drawn from the one keyed (seed, c, 1 + mode
    index), 1 on a clear path and blocked_values[l] on a blocked one. The independent
    (idealized) and shared-p_hat (realistic) blockage laws are written out with
    np.where: realistic frames draw p_hat, then every frame L uniforms, path-major."""
    L = config.num_paths
    for chunk_index, rows in _chunk_rows(n_trials):
        block_rng = _stream(seed, chunk_index, 1 + ["idealized", "realistic"].index(mode))
        if mode == "idealized":
            blocked = block_rng.random((L, rows)) < config.p_blk
        else:
            p_hat = block_rng.uniform(config.p_min, config.p_max, size=rows)
            blocked = block_rng.random((L, rows)) < p_hat[None, :]
        yield _stream(seed, chunk_index), np.where(blocked, blocked_values[:, None], 1.0)


def serial_channel_power(config, alloc, aods, mode, n_trials, seed) -> np.ndarray:
    """|h_eq|^2 of one allocation in one mode from the physical law: per frame
    2L standard normals, as path gains, and the complex sum of the paths.

    Chunk c draws its gains from the SFC64 stream keyed (seed, c),
    sqrt(sigma_l^2 / 2) (z1 + 1j z2) path-major, and its blockage as
    ``_serial_chunks`` gives it. Each frame's terms omega_l conj(g_l) a_eq[l]
    are added in path order, l = 1, ..., L. This is the law the library's
    conditional sampler must agree with in distribution, not in bytes: it
    shares no sampling code with the library.
    """
    a_eq, blocked_values = _mode_law(config, alloc, aods, mode)
    L = config.num_paths
    scale = np.sqrt(_path_variances(config.rician_k, L) / 2.0)[:, None]
    power_blocks = []
    for gain_rng, omega in _serial_chunks(config, mode, n_trials, seed, blocked_values):
        shape = omega.shape
        gains = scale * (gain_rng.standard_normal(shape) + 1j * gain_rng.standard_normal(shape))
        h_eq = functools.reduce(np.add, omega * gains.conj() * a_eq[:, None])
        power_blocks.append(np.abs(h_eq) ** 2)
    return np.concatenate(power_blocks)


def serial_patterns(config, mode, rng, rows) -> np.ndarray:
    """Blocked flags (L, rows) of ``rows`` frames drawn from ``rng`` as the library's
    alias-table draw, written out: with a node table, a uniform row first picks each
    frame's node; then one uniform row per group of 8 paths, in order, picks its
    sub-pattern K, whose bit l % 8 blocks path l. Each pick from a table
    (threshold, alias) of n entries is k = floor(n u), kept if n u < threshold[k], else
    alias[k]. The (threshold, alias) tables are the library's
    ``channel._pattern_tables``."""

    def pick(threshold, alias, node):
        u = rng.random(rows) * threshold.shape[-1]
        k = np.floor(u).astype(int)
        return np.where(u < threshold[node, k], k, alias[node, k])

    node_table, groups = _pattern_tables(config, mode)
    node = np.zeros(rows, dtype=int)
    if node_table is not None:
        node = pick(node_table[0][None], node_table[1][None], node)
    subpatterns = [pick(threshold, alias, node) for threshold, alias, _ in groups]
    paths = np.arange(config.num_paths)
    return (np.array(subpatterns)[paths // 8] >> (paths % 8)[:, None]) & 1 == 1


def serial_rsnr(config, alloc, aods, mode, n_trials, seed) -> np.ndarray:
    """The RSNR of one allocation in one mode as the library's conditional law
    gives it, replayed bytewise as one serial loop over the chunks.

    Given a frame's blockage, h_eq is CN(0, v), so its RSNR is E times
    sum_l omega_l^2 P_l, with P_l = tx_snr |a_eq[l]|^2 sigma_l^2 and
    E ~ Exp(1). Chunk c draws one ``standard_exponential`` row E from the
    stream keyed (seed, c) and its patterns from the one keyed (seed, c,
    1 + mode index) as ``serial_patterns`` draws them; the terms
    omega_l^2 P_l are added in path order within each group of 8 paths, the
    group sums in group order, and the sum is multiplied by E. Written out,
    not called.
    """
    a_eq, blocked_values = _mode_law(config, alloc, aods, mode)
    power = config.tx_snr * np.abs(a_eq) ** 2 * _path_variances(config.rician_k, config.num_paths)
    rsnr_blocks = []
    for chunk_index, rows in _chunk_rows(n_trials):
        rng = _stream(seed, chunk_index, 1 + ["idealized", "realistic"].index(mode))
        blocked = serial_patterns(config, mode, rng, rows)
        terms = np.where(blocked, blocked_values[:, None], 1.0) ** 2 * power[:, None]
        groups = [functools.reduce(np.add, terms[a : a + 8]) for a in range(0, len(terms), 8)]
        exp_row = _stream(seed, chunk_index).standard_exponential(rows)
        rsnr_blocks.append(functools.reduce(np.add, groups) * exp_row)
    return np.concatenate(rsnr_blocks)


def fill_se(rsnr) -> np.ndarray:
    """The fill's SE of each RSNR, log2(1 + rsnr) as log1p(rsnr) times the rounded 1 / ln 2."""
    return np.log1p(rsnr) * (1.0 / np.log(2.0))


def reference_cdf(argv) -> None:
    """``panelalloc cdf <argv>`` from one ``run_trials`` call per method and mode.

    The per-method loop the one-pass kernel replaced: the same spec and
    allocations, each method simulated on its own in each mode, written by
    ``export.write_csv`` with the CLI's summary columns.
    """
    spec = cli._spec_from_args(cli.build_parser().parse_args(["cdf", *argv]))
    aods = sample_channel(spec.config, rng=np.random.default_rng(spec.seed)).aods
    for method, alloc in cli.resolve_allocations(spec).items():
        ideal = run_trials(spec.config, alloc, aods, "idealized", spec.trials, spec.seed)
        real = run_trials(spec.config, alloc, aods, "realistic", spec.trials, spec.seed)
        comment = spec.comment(
            "cdf", method=method, q="/".join(map(str, alloc.q)), target_se=spec.target_se
        )
        grid = spec.se_grid
        columns = {"se_bits": grid, "cdf_analytic": se_cdf(rsnr_mixture(alloc, spec.config), grid)}
        for result in (ideal, real):
            below = np.searchsorted(np.sort(result.se_samples), grid, side="right")
            columns[f"cdf_mc_{result.mode}"] = below / spec.trials
        write_csv(spec.output_dir / f"cdf_{method}.csv", comment, columns)
        summary = cli._summary_columns([ideal, real])
        write_csv(spec.output_dir / f"summary_{method}.csv", comment, summary)
        if spec.dump_samples:
            for result in (ideal, real):
                samples = {"trial": range(result.trials), "se_bits": result.se_samples}
                write_csv(spec.output_dir / f"samples_{method}_{result.mode}.csv", comment, samples)
