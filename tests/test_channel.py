import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from panelalloc import (
    ConfigurationError,
    SamplingError,
    SystemConfig,
    default_min_separation,
    path_variances,
    sample_blockage,
    sample_channel,
)
from panelalloc.channel import blockage_factor_frames, sample_aods, sample_gains


class TestPathVariances:
    def test_k10_four_paths(self):
        stats = path_variances(10.0, 4)
        np.testing.assert_allclose(stats.variances, [10 / 11, 1 / 33, 1 / 33, 1 / 33], rtol=1e-14)

    def test_zero_k_limit(self):
        np.testing.assert_allclose(path_variances(0.0, 2).variances, [0.0, 1.0])

    def test_symmetric_split(self):
        np.testing.assert_allclose(path_variances(1.0, 3).variances, [0.5, 0.25, 0.25])

    def test_single_path_rejected(self):
        with pytest.raises(ConfigurationError):
            path_variances(10.0, 1)
        with pytest.raises(ConfigurationError):
            path_variances(-1.0, 4)

    @given(kappa=st.floats(0.0, 1e3), num_paths=st.integers(2, 16))
    def test_unit_total_power(self, kappa, num_paths):
        assert abs(path_variances(kappa, num_paths).variances.sum() - 1.0) < 1e-12


class TestAodSampling:
    def test_pairwise_separation_enforced(self, baseline, rng):
        sep = default_min_separation(baseline)
        for _ in range(300):
            aods = sample_aods(baseline, sep, rng)
            gaps = np.diff(np.sort(aods))
            assert np.all(gaps >= sep)
            assert np.all((aods >= 0) & (aods < math.pi))

    def test_infeasible_separation_rejected(self, baseline):
        with pytest.raises(ConfigurationError):
            sample_aods(baseline, math.pi / baseline.num_paths)

    def test_retry_budget_exhausted(self, baseline):
        # demanding separation plus a tiny retry budget: rejection must surface
        sep = 0.995 * math.pi / baseline.num_paths
        with pytest.raises(SamplingError):
            sample_aods(baseline, sep, np.random.default_rng(0), max_attempts=2)

    def test_sample_channel_blockage_all_clear(self, baseline, rng):
        ch = sample_channel(baseline, rng=rng)
        np.testing.assert_array_equal(ch.blockage, np.ones(baseline.num_paths))
        assert ch.gains.shape == (baseline.num_paths,)


class TestGainStatistics:
    def test_los_power_matches_k_factor(self, baseline, rng):
        stats = path_variances(baseline.rician_k, baseline.num_paths)
        n = 10**6
        g = sample_gains(stats, rng, size=n)
        # |g_1|^2 is exponential with mean sigma_1^2 and std sigma_1^2
        band = 3.0 * stats.variances[0] / math.sqrt(n)
        assert abs(np.mean(np.abs(g[:, 0]) ** 2) - baseline.rician_k / (baseline.rician_k + 1)) < band

    def test_total_power_is_unit(self, baseline, rng):
        stats = path_variances(baseline.rician_k, baseline.num_paths)
        n = 10**6
        g = sample_gains(stats, rng, size=n)
        total = np.sum(np.abs(g) ** 2, axis=1)
        band = 3.0 * math.sqrt(np.sum(stats.variances**2)) / math.sqrt(n)
        assert abs(total.mean() - 1.0) < band


    @pytest.mark.parametrize("size", [None, 1000])
    def test_equals_complex_gaussian_formula_bitwise(self, baseline, size):
        stats = path_variances(baseline.rician_k, baseline.num_paths)
        shape = (baseline.num_paths,) if size is None else (size, baseline.num_paths)
        draws = np.random.default_rng(21)
        expected = np.sqrt(stats.variances / 2.0) * (
            draws.standard_normal(shape) + 1j * draws.standard_normal(shape)
        )
        gains = sample_gains(stats, np.random.default_rng(21), size)
        assert gains.shape == shape
        assert gains.tobytes() == expected.tobytes()


class TestBlockage:
    def test_frames_equal_shared_probability_formula_bitwise(self, baseline):
        n, L = 5000, baseline.num_paths
        blocked_values = np.array([0.05, 0.0, 0.07, 0.02])
        draws = np.random.default_rng(8)
        p_hat = draws.uniform(baseline.p_min, baseline.p_max, size=n)
        expected = np.where(draws.random((n, L)) < p_hat[:, None], blocked_values[None, :], 1.0)
        factors = blockage_factor_frames(baseline, blocked_values, np.random.default_rng(8), n)
        assert factors.tobytes() == expected.tobytes()

    def test_certain_blockage_idealized(self, rng):
        cfg = SystemConfig(p_min=1.0, p_max=1.0)
        np.testing.assert_array_equal(
            sample_blockage(cfg, "idealized", rng=rng), np.zeros(cfg.num_paths)
        )

    def test_realistic_attenuation_value(self, rng):
        # 180 deg beamwidth: eta = 9.8 + 180/180 = 10.8
        cfg = SystemConfig(p_min=1.0, p_max=1.0)
        factors = sample_blockage(cfg, "realistic", np.full(cfg.num_paths, 180.0), rng)
        np.testing.assert_allclose(factors, 1.0 / 10.8)

    def test_never_blocked(self, baseline, rng):
        cfg = SystemConfig(p_min=0.0, p_max=0.0)
        np.testing.assert_array_equal(
            sample_blockage(cfg, "idealized", rng=rng), np.ones(cfg.num_paths)
        )

    def test_mode_and_hpbw_validation(self, baseline, rng):
        with pytest.raises(ConfigurationError):
            sample_blockage(baseline, "exact", rng=rng)
        with pytest.raises(ConfigurationError):
            sample_blockage(baseline, "realistic", rng=rng)
        with pytest.raises(ConfigurationError):
            sample_blockage(baseline, "realistic", np.zeros(baseline.num_paths), rng)

    def test_marginal_blockage_probability(self, baseline, rng):
        n = 10**6
        factors = blockage_factor_frames(baseline, np.zeros(baseline.num_paths), rng, n)
        blocked_freq = np.mean(factors[:, 0] == 0.0)
        band = 3.0 * math.sqrt(baseline.p_blk * (1 - baseline.p_blk) / n)
        assert abs(blocked_freq - baseline.p_blk) < band

    def test_joint_blockage_is_correlated(self, baseline, rng):
        # frames share one p_hat, so P(all blocked) = E[p_hat^L] > p_blk^L
        n = 10**6
        L = baseline.num_paths
        factors = blockage_factor_frames(baseline, np.zeros(L), rng, n)
        all_blocked = np.mean(np.all(factors == 0.0, axis=1))
        width = baseline.p_max - baseline.p_min
        expected, _ = quad(lambda p: p**L / width, baseline.p_min, baseline.p_max)
        band = 3.0 * math.sqrt(expected * (1 - expected) / n)
        assert abs(all_blocked - expected) < band
        assert all_blocked - baseline.p_blk**L > 10.0 * math.sqrt(expected / n)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_factor_ranges(self, baseline, seed):
        gen = np.random.default_rng(seed)
        ideal = sample_blockage(baseline, "idealized", rng=gen)
        assert set(np.unique(ideal)) <= {0.0, 1.0}
        hpbw = np.full(baseline.num_paths, 25.0)
        real = sample_blockage(baseline, "realistic", hpbw, gen)
        assert set(np.unique(real)) <= {1.0, 1.0 / (9.8 + 180.0 / 25.0)}
