import functools
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from panelalloc import (
    ConfigurationError,
    PanelAllocation,
    SamplingError,
    SystemConfig,
    build_beamformer,
    equivalent_array_response_exact,
    los_concentration,
    path_variances,
    sample_channel,
    uniform_allocation,
)
from panelalloc import montecarlo
from panelalloc.channel import (
    _blocked_amplitudes,
    _draw_patterns,
    _pattern_nodes,
    _pattern_tables,
)
from util import fill_se, serial_patterns


def gain_draws(config, alloc, mode, size=None, aods=None):
    """The library's path-gain law at p_blk = 0, where every weight is 1: the
    power column P of ``montecarlo._responses`` and the seed-5 ``run_trials``
    result of ``size`` unblocked frames (one when size is None), whose RSNR is
    E sum_l P_l. Idealized mode reads no AoDs; they default to a fixed spread."""
    clear = replace(config, p_min=0.0, p_max=0.0)
    aods = np.linspace(0.3, 2.8, config.num_paths) if aods is None else aods
    power, _ = montecarlo._responses(clear, alloc, aods, mode)
    return power, montecarlo.run_trials(clear, alloc, aods, mode, size or 1, 5)


def stream_zero_row(size):
    """The first ``size`` standard exponentials of seed 5's chunk 0 stream 0, SFC64 keyed (5, 0)."""
    rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=(5, 0))))
    return rng.standard_exponential(size)


def drawn_patterns(config, mode, rng, n_frames):
    """Blocked flags (L, n_frames) of frames drawn by ``channel._draw_patterns`` under a
    mode's law: group g's index row reads 2 K + 1, or 2 k where the frame takes
    alias[0, k], for its sub-pattern K, whose bit l % 8 blocks path l."""
    tables = _pattern_tables(config, mode)
    node, groups = tables
    index = np.empty((len(groups) + 2 * (node is not None), n_frames), np.intp)
    shape = (n_frames,)
    _draw_patterns(tables, rng, np.empty(shape), index, np.empty(shape), np.empty(shape, bool))
    k = index[: len(groups)] // 2
    chosen = np.array([np.where(row % 2 == 1, kk, alias[0][kk])
                       for row, kk, (_, alias, _) in zip(index, k, groups)])
    paths = np.arange(config.num_paths)
    return (chosen[paths // 8] >> (paths % 8)[:, None]) & 1 == 1


def blockage_frames(config, blocked_values, rng, n_frames):
    """Per-frame factors (L, n_frames) of the realistic shared-p_hat law, applied to ones."""
    blocked = drawn_patterns(config, "realistic", rng, n_frames)
    return np.where(blocked, np.asarray(blocked_values)[:, None], 1.0)


def independent_frames(config, rng, n_frames):
    """Per-frame factors (L, n_frames) of idealized blockage: independent at p_blk, nulled."""
    return np.where(drawn_patterns(config, "idealized", rng, n_frames), 0.0, 1.0)


def exact_moment(p_min, p_max, blocked, clear) -> Fraction:
    """E[p^blocked (1 - p)^clear] for p ~ U(p_min, p_max), or at p = p_min if they are equal,
    exactly: the binomial expansion of (1 - p)^clear integrated term by term, in Fractions."""
    a, b = Fraction(p_min), Fraction(p_max)
    if a == b:
        return a**blocked * (1 - a) ** clear
    total = sum(
        math.comb(clear, m) * (-1) ** m * (b ** (blocked + m + 1) - a ** (blocked + m + 1))
        / (blocked + m + 1)
        for m in range(clear + 1)
    )
    return total / (b - a)


def implied_pmf(threshold, alias) -> np.ndarray:
    """The pmf an alias table (threshold, alias) of n entries draws: prob[k] / n to k and
    (1 - prob[k]) / n to alias[k], with prob[k] = threshold[k] - k."""
    n = threshold.size
    prob = threshold - np.arange(n)
    return (prob + np.bincount(alias, weights=1.0 - prob, minlength=n)) / n


class TestPathVariances:
    def test_k10_four_paths(self):
        np.testing.assert_allclose(
            path_variances(10.0, 4), [10 / 11, 1 / 33, 1 / 33, 1 / 33], rtol=1e-14
        )

    def test_zero_k_limit(self):
        np.testing.assert_allclose(path_variances(0.0, 2), [0.0, 1.0])

    def test_symmetric_split(self):
        np.testing.assert_allclose(path_variances(1.0, 3), [0.5, 0.25, 0.25])

    def test_single_path_rejected(self):
        with pytest.raises(ConfigurationError):
            path_variances(10.0, 1)
        with pytest.raises(ConfigurationError):
            path_variances(-1.0, 4)

    @given(kappa=st.floats(0.0, 1e3), num_paths=st.integers(2, 16))
    def test_unit_total_power(self, kappa, num_paths):
        assert abs(path_variances(kappa, num_paths).sum() - 1.0) < 1e-12


class TestAodSampling:
    def test_pairwise_separation_enforced(self, baseline, rng):
        sep = 4.0 * math.radians(102.0 / baseline.n_t)  # four full-array beamwidths
        for _ in range(300):
            aods = sample_channel(baseline, rng).aods
            gaps = np.diff(np.sort(aods))
            assert np.all(gaps >= sep)
            assert np.all((aods >= 0) & (aods < math.pi))

    def test_infeasible_separation_rejected(self):
        # a one-element array needs 4 x 102 = 408 deg gaps, more than [0, 180) holds
        with pytest.raises(ConfigurationError):
            sample_channel(SystemConfig(n_a=1, n_p=1, num_paths=3), np.random.default_rng(0))

    def test_retry_budget_exhausted(self):
        # 10 AoDs 17.7 deg apart on [0, 180): an admissible draw has probability
        # ~3e-10, so rejection sampling exhausts its budget
        crowded = SystemConfig(n_a=23, n_p=1, num_paths=10)
        with pytest.raises(SamplingError):
            sample_channel(crowded, np.random.default_rng(0))

    def test_sample_channel_draws_only_aods(self, baseline):
        # the training-phase draw is the AoDs alone: seed 3's first draw is
        # admissible, so it is one uniform draw and leaves the generator there
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        aods = sample_channel(baseline, rng=ours).aods
        np.testing.assert_array_equal(aods, theirs.uniform(0.0, math.pi, baseline.num_paths))
        assert ours.random() == theirs.random()


class TestGainStatistics:
    """The per-path Gaussian gains as the fill keeps them: one Exp(1) row E per
    chunk and a power column P_l = tx_snr |a_eq,l|^2 sigma_l^2 per result."""

    def test_los_power_matches_k_factor(self, baseline):
        # LoS concentration: |a_1|^2 = (32 / 16 * 8)^2 = 256, so at tx_snr = 1/256
        # P = (sigma_1^2, 0, 0, 0) and the unblocked RSNR is sigma_1^2 E
        config = replace(baseline, tx_snr=1.0 / 256.0)
        variances = path_variances(config.rician_k, config.num_paths)
        n = 10**6
        power, result = gain_draws(config, los_concentration(config), "idealized", n)
        assert power.tolist() == [variances[0], 0.0, 0.0, 0.0]
        # the RSNR is exponential with mean sigma_1^2 and std sigma_1^2
        band = 3.0 * variances[0] / math.sqrt(n)
        assert abs(result.mean_rsnr - config.rician_k / (config.rician_k + 1)) < band

    def test_total_power_is_unit(self, baseline):
        # uniform allocation: |a_l|^2 = 16 on every path, so at tx_snr = 1/16 P = sigma^2
        config = replace(baseline, tx_snr=1.0 / 16.0)
        variances = path_variances(config.rician_k, config.num_paths)
        n = 10**6
        power, result = gain_draws(config, uniform_allocation(config), "idealized", n)
        assert power.tobytes() == variances.tobytes()
        # the unblocked RSNR is (sum_l sigma_l^2) E = E, with mean 1 and std 1
        assert abs(result.mean_rsnr - 1.0) < 3.0 / math.sqrt(n)

    @pytest.mark.parametrize("size", [None, 1000])
    def test_stream_zero_row_is_standard_exponential_bitwise(self, baseline, size):
        # kappa = 1 and tx_snr = 1/128 give LoS concentration P = (1, 0, 0, 0), so
        # the unblocked RSNR is the stream-0 row E itself
        config = replace(baseline, rician_k=1.0, tx_snr=1.0 / 128.0)
        power, result = gain_draws(config, los_concentration(config), "idealized", size)
        assert power.tolist() == [1.0, 0.0, 0.0, 0.0]
        expected = stream_zero_row(size or 1)
        if size is None:
            assert np.float64(result.mean_rsnr).tobytes() == expected[0].tobytes()
        else:
            assert result.se_samples.tobytes() == fill_se(expected).tobytes()

    @pytest.mark.parametrize("num_paths", [2, 3, 33, 64])
    @pytest.mark.parametrize("size", [None, 1, 127, 2049, 3000])
    def test_scale_repeated_over_frames_equals_formula_bitwise(self, num_paths, size):
        # P equals tx_snr |a_eq|^2 sigma^2 in both modes, and the (L, 1) column,
        # repeated over the frames, sums to the unblocked RSNR per E: in path order
        # within each group of 8 paths, and the group sums in group order
        q = tuple(1 + path % 3 for path in range(num_paths))
        config = SystemConfig(n_a=4, n_p=sum(q), num_paths=num_paths, rician_k=4.0)
        alloc, aods = PanelAllocation(q), np.linspace(0.1, 3.0, num_paths)
        variances = path_variances(config.rician_k, num_paths)
        responses = {
            "idealized": config.n_a / np.sqrt(config.n_t) * np.array(q, dtype=float),
            "realistic": equivalent_array_response_exact(
                aods, build_beamformer(alloc, aods, config)
            ),
        }
        for mode, a_eq in responses.items():
            power, result = gain_draws(config, alloc, mode, size, aods)
            expected = config.tx_snr * np.abs(a_eq) ** 2 * variances
            assert power.tobytes() == expected.tobytes(), mode
            groups = [functools.reduce(np.add, expected[a : a + 8]) for a in range(0, num_paths, 8)]
            rsnr = functools.reduce(np.add, groups) * stream_zero_row(size or 1)
            if size is None:
                assert np.float64(result.mean_rsnr).tobytes() == rsnr[0].tobytes(), mode
            else:
                assert result.se_samples.tobytes() == fill_se(rsnr).tobytes(), mode


class TestBlockage:
    @given(
        bounds=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
        n=st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50)
    def test_shared_probability_equals_uniform_draws_bitwise(self, bounds, n, seed):
        # 12 paths, two groups: a node row (the shared p_hat's node) when p_min < p_max,
        # then one uniform row per group, as the written-out draw takes them
        cfg = SystemConfig(num_paths=12, p_min=bounds[0], p_max=bounds[1])
        draws = np.random.default_rng(seed)
        expected = serial_patterns(cfg, "realistic", draws, n)
        rng = np.random.default_rng(seed)
        assert drawn_patterns(cfg, "realistic", rng, n).tobytes() == expected.tobytes()
        assert rng.random() == draws.random()  # the same number of draws

    def test_idealized_draws_no_p_hat(self, baseline):
        # no node row: one uniform row per group, two at 12 paths
        n, cfg = 5000, replace(baseline, num_paths=12)
        rng, draws = np.random.default_rng(3), np.random.default_rng(3)
        blocked = drawn_patterns(cfg, "idealized", rng, n)
        draws.random(2 * n)
        assert rng.random() == draws.random()
        assert blocked.tobytes() == serial_patterns(
            cfg, "idealized", np.random.default_rng(3), n
        ).tobytes()

    def test_frames_equal_shared_probability_formula_bitwise(self, baseline):
        # one group of 4 paths: k = floor(16 u), kept if 16 u < threshold[k], else alias[k]
        n, L = 5000, baseline.num_paths
        blocked_values = np.array([0.05, 0.0, 0.07, 0.02])
        _, [(threshold, alias, _)] = _pattern_tables(baseline, "realistic")
        u = np.random.default_rng(8).random(n) * 16.0
        k = u.astype(int)
        pattern = np.where(u < threshold[0, k], k, alias[0, k])
        blocked = (pattern >> np.arange(L)[:, None]) & 1 == 1
        expected = np.where(blocked, blocked_values[:, None], 1.0)
        factors = blockage_frames(baseline, blocked_values, np.random.default_rng(8), n)
        assert factors.tobytes() == expected.tobytes()

    def test_certain_blockage_idealized(self, rng):
        cfg = SystemConfig(p_min=1.0, p_max=1.0)
        np.testing.assert_array_equal(independent_frames(cfg, rng, 100), 0.0)

    def test_realistic_attenuation_value(self, rng):
        # 180 deg beamwidth: eta = 9.8 + 180/180 = 10.8
        cfg = SystemConfig(p_min=1.0, p_max=1.0)
        attenuation = np.full(cfg.num_paths, 1.0 / 10.8)
        np.testing.assert_allclose(blockage_frames(cfg, attenuation, rng, 100), 1.0 / 10.8)

    def test_never_blocked(self, rng):
        cfg = SystemConfig(p_min=0.0, p_max=0.0)
        np.testing.assert_array_equal(independent_frames(cfg, rng, 100), 1.0)
        np.testing.assert_array_equal(blockage_frames(cfg, np.zeros(cfg.num_paths), rng, 100), 1.0)

    def test_mode_validation(self, baseline):
        alloc, aods = los_concentration(baseline), np.linspace(0.3, 2.8, baseline.num_paths)
        with pytest.raises(ConfigurationError):
            montecarlo.run_batches(baseline, [alloc], aods, 10, 0, ("exact",))

    def test_blocked_amplitudes(self):
        # served paths keep 1/eta, eta = 9.8 + 180 deg / (102 deg / (q_l N_a)); unserved keep 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            amplitudes = _blocked_amplitudes((2, 0, 1, 5), 32)
        for path, q in ((0, 2), (2, 1), (3, 5)):
            expected = 1.0 / (9.8 + 180.0 * q * 32 / 102.0)
            assert amplitudes[path] == pytest.approx(expected, rel=1e-15)
        assert amplitudes[1] == 0.0

    def test_marginal_blockage_probability(self, baseline, rng):
        n = 10**6
        factors = blockage_frames(baseline, np.zeros(baseline.num_paths), rng, n)
        blocked_freq = np.mean(factors[0] == 0.0)
        band = 3.0 * math.sqrt(baseline.p_blk * (1 - baseline.p_blk) / n)
        assert abs(blocked_freq - baseline.p_blk) < band

    def test_joint_blockage_is_correlated(self, baseline, rng):
        # frames share one p_hat, so P(all blocked) = E[p_hat^L] > p_blk^L
        n = 10**6
        L = baseline.num_paths
        factors = blockage_frames(baseline, np.zeros(L), rng, n)
        all_blocked = np.mean(np.all(factors == 0.0, axis=0))
        width = baseline.p_max - baseline.p_min
        expected, _ = quad(lambda p: p**L / width, baseline.p_min, baseline.p_max)
        band = 3.0 * math.sqrt(expected * (1 - expected) / n)
        assert abs(all_blocked - expected) < band
        assert all_blocked - baseline.p_blk**L > 10.0 * math.sqrt(expected / n)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_factor_ranges(self, baseline, seed):
        gen = np.random.default_rng(seed)
        ideal = independent_frames(baseline, gen, 1)
        assert set(np.unique(ideal)) <= {0.0, 1.0}
        attenuation = np.full(baseline.num_paths, 1.0 / (9.8 + 180.0 / 25.0))
        real = blockage_frames(baseline, attenuation, gen, 1)
        assert set(np.unique(real)) <= {1.0, 1.0 / (9.8 + 180.0 / 25.0)}


class TestPatternLaw:
    """The blockage law as nodes and alias tables, against exact forms in Fractions."""

    @pytest.mark.parametrize("mode", ["idealized", "realistic"])
    @pytest.mark.parametrize("num_paths", [2, 4, 8, 9, 17, 64])
    @pytest.mark.parametrize("bounds", [(0.2, 0.6), (0.0, 1.0), (0.05, 0.1)])
    def test_alias_tables_imply_exact_pmf(self, mode, num_paths, bounds):
        # one group: the nodes' mixture, the exact moments of U(p_min, p_max) (or of
        # p_blk); more: at each node p_i its own binomial pmf, and the node table the weights
        cfg = SystemConfig(num_paths=num_paths, p_min=bounds[0], p_max=bounds[1])
        nodes, weights = _pattern_nodes(cfg, mode)
        node, groups = _pattern_tables(cfg, mode)
        sizes = [min(8, num_paths - a) for a in range(0, num_paths, 8)]
        width = 2 ** sizes[0]
        assert len(groups) == len(sizes) and (node is None) == (len(sizes) == 1 or nodes.size == 1)
        if node is not None:
            implied = implied_pmf(*node[:2])
            assert np.max(np.abs(implied[: nodes.size] - weights)) < 1e-15
            assert np.all(implied[nodes.size :] == 0.0)
        laws = [bounds if mode == "realistic" else (cfg.p_blk,) * 2] if node is None else [
            (p, p) for p in nodes.tolist()]
        for size, (threshold, alias, _) in zip(sizes, groups):
            assert threshold.shape == alias.shape == (len(laws), width)
            blocked = np.bitwise_count(np.arange(width))
            for row, law in enumerate(laws):
                moments = [float(exact_moment(*law, j, size - j)) for j in range(size + 1)]
                exact = np.where(np.arange(width) < 2**size, np.take(moments, blocked, mode="clip"), 0.0)
                assert np.max(np.abs(implied_pmf(threshold[row], alias[row]) - exact)) < 1e-15

    @pytest.mark.parametrize("num_paths", [4, 12, 17])
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_certain_probabilities_are_exact(self, num_paths, p):
        # p_blk = 0 blocks no path and p_blk = 1 every path, in every frame
        cfg = SystemConfig(num_paths=num_paths, p_min=p, p_max=p)
        for mode in ("idealized", "realistic"):
            for seed in range(3):
                blocked = drawn_patterns(cfg, mode, np.random.default_rng(seed), 20_000)
                assert np.all(blocked == bool(p)), (mode, seed)

    @pytest.mark.parametrize("num_paths", [2, 4, 9, 17, 64])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_equal_bounds_give_idealized_tables_bitwise(self, num_paths, p):
        cfg = SystemConfig(num_paths=num_paths, p_min=p, p_max=p)
        ideal, real = _pattern_tables(cfg, "idealized"), _pattern_tables(cfg, "realistic")
        assert ideal[0] is None and real[0] is None
        for a, b in zip(ideal[1], real[1], strict=True):
            assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    @pytest.mark.parametrize("num_paths", range(2, 13))
    @pytest.mark.parametrize("bounds", [(0.2, 0.6), (0.0, 1.0), (0.1, 0.9), (0.4, 0.4 + 1e-9)])
    def test_nodes_reproduce_uniform_moments(self, num_paths, bounds):
        cfg = SystemConfig(num_paths=num_paths, p_min=bounds[0], p_max=bounds[1])
        nodes, weights = _pattern_nodes(cfg, "realistic")
        assert nodes.size == num_paths // 2 + 1 and np.all(weights > 0.0)
        for j in range(num_paths + 1):
            got = np.sum(weights * nodes**j * (1.0 - nodes) ** (num_paths - j))
            assert abs(got - float(exact_moment(*bounds, j, num_paths - j))) < 1e-14, j

    @pytest.mark.parametrize("count", [2, 3, 5, 8, 17, 33, 65])
    def test_legendre_nodes_equal_leggauss(self, count):
        # a node within an ulp of its root moves a weight near +-1 by about ulp / (1 - |x|)
        # relative: 2.7e-13 for leggauss and 5.8e-13 here at 65 nodes, against 40-digit roots
        cfg = SystemConfig(num_paths=2 * count - 1, p_min=0.0, p_max=1.0)
        nodes, weights = _pattern_nodes(cfg, "realistic")
        x, w = np.polynomial.legendre.leggauss(count)
        np.testing.assert_allclose(nodes, (1.0 + x) / 2.0, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(weights, w / 2.0, rtol=2e-12, atol=0.0)

    def test_two_groups_share_the_frame_probability(self):
        # paths 1 and 12 sit in different groups: given the node they are independent,
        # so both are blocked with probability E[p_hat^2], not p_blk^2
        cfg = SystemConfig(num_paths=12, p_min=0.2, p_max=0.6)
        n = 10**6
        blocked = drawn_patterns(cfg, "realistic", np.random.default_rng(12), n)
        both = np.mean(blocked[0] & blocked[11])
        expected = (cfg.p_min**2 + cfg.p_min * cfg.p_max + cfg.p_max**2) / 3.0
        band = 4.0 * math.sqrt(expected * (1.0 - expected) / n)
        assert abs(both - expected) < band
        assert expected - cfg.p_blk**2 > 5.0 * band
