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
    los_concentration,
    path_variances,
    sample_channel,
)
from panelalloc import montecarlo
from panelalloc.channel import (
    _block,
    _fill_gains,
    _shared_blockage,
    blockage_attenuation,
    sample_aods,
)


def gain_draws(variances, rng, size=None):
    """Gains from the library's in-place law, one row per frame when size is set."""
    shape = (variances.size,) if size is None else (size, variances.size)
    gains = np.empty(shape, dtype=complex)
    _fill_gains(variances, rng, gains, np.empty(shape))
    return gains


def blockage_frames(config, blocked_values, rng, n_frames):
    """Per-frame factors (n_frames, L) of the shared-p_hat law, applied to ones."""
    shape = (n_frames, config.num_paths)
    omega = np.ones(shape)
    _shared_blockage(config, blocked_values, rng, omega, np.empty(shape), np.empty(shape, bool))
    return omega


def independent_frames(config, p_block, rng, n_frames):
    """Per-frame factors (n_frames, L) of idealized blockage: independent, nulled."""
    shape = (n_frames, config.num_paths)
    omega = np.ones(shape)
    _block(omega, 0.0, p_block, rng, np.empty(shape), np.empty(shape, bool))
    return omega


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

    def test_sample_channel_draws_only_aods(self, baseline):
        # the training-phase draw is the AoDs alone: the generator is left
        # exactly where sample_aods leaves it
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        aods = sample_channel(baseline, rng=ours).aods
        np.testing.assert_array_equal(aods, sample_aods(baseline, rng=theirs))
        assert ours.random() == theirs.random()


class TestGainStatistics:
    def test_los_power_matches_k_factor(self, baseline, rng):
        variances = path_variances(baseline.rician_k, baseline.num_paths)
        n = 10**6
        g = gain_draws(variances, rng, size=n)
        # |g_1|^2 is exponential with mean sigma_1^2 and std sigma_1^2
        band = 3.0 * variances[0] / math.sqrt(n)
        assert abs(np.mean(np.abs(g[:, 0]) ** 2) - baseline.rician_k / (baseline.rician_k + 1)) < band

    def test_total_power_is_unit(self, baseline, rng):
        variances = path_variances(baseline.rician_k, baseline.num_paths)
        n = 10**6
        g = gain_draws(variances, rng, size=n)
        total = np.sum(np.abs(g) ** 2, axis=1)
        band = 3.0 * math.sqrt(np.sum(variances**2)) / math.sqrt(n)
        assert abs(total.mean() - 1.0) < band

    @pytest.mark.parametrize("size", [None, 1000])
    def test_equals_complex_gaussian_formula_bitwise(self, baseline, size):
        variances = path_variances(baseline.rician_k, baseline.num_paths)
        shape = (baseline.num_paths,) if size is None else (size, baseline.num_paths)
        draws = np.random.default_rng(21)
        expected = np.sqrt(variances / 2.0) * (
            draws.standard_normal(shape) + 1j * draws.standard_normal(shape)
        )
        gains = gain_draws(variances, np.random.default_rng(21), size)
        assert gains.shape == shape
        assert gains.tobytes() == expected.tobytes()


class TestBlockage:
    def test_frames_equal_shared_probability_formula_bitwise(self, baseline):
        n, L = 5000, baseline.num_paths
        blocked_values = np.array([0.05, 0.0, 0.07, 0.02])
        draws = np.random.default_rng(8)
        p_hat = draws.uniform(baseline.p_min, baseline.p_max, size=n)
        expected = np.where(draws.random((n, L)) < p_hat[:, None], blocked_values[None, :], 1.0)
        factors = blockage_frames(baseline, blocked_values, np.random.default_rng(8), n)
        assert factors.tobytes() == expected.tobytes()

    def test_certain_blockage_idealized(self, rng):
        cfg = SystemConfig(p_min=1.0, p_max=1.0)
        np.testing.assert_array_equal(independent_frames(cfg, cfg.p_blk, rng, 100), 0.0)

    def test_realistic_attenuation_value(self, rng):
        # 180 deg beamwidth: eta = 9.8 + 180/180 = 10.8
        cfg = SystemConfig(p_min=1.0, p_max=1.0)
        attenuation = blockage_attenuation(np.full(cfg.num_paths, 180.0))
        np.testing.assert_allclose(blockage_frames(cfg, attenuation, rng, 100), 1.0 / 10.8)

    def test_never_blocked(self, rng):
        cfg = SystemConfig(p_min=0.0, p_max=0.0)
        np.testing.assert_array_equal(independent_frames(cfg, cfg.p_blk, rng, 100), 1.0)
        np.testing.assert_array_equal(blockage_frames(cfg, np.zeros(cfg.num_paths), rng, 100), 1.0)

    def test_mode_and_hpbw_validation(self, baseline):
        alloc, aods = los_concentration(baseline), np.linspace(0.3, 2.8, baseline.num_paths)
        with pytest.raises(ConfigurationError):
            montecarlo._channel_power(baseline, alloc, aods, "exact", 10, 0)
        with pytest.raises(ConfigurationError):
            blockage_attenuation(np.zeros(baseline.num_paths))
        with pytest.raises(ConfigurationError):
            blockage_attenuation([25.0, np.nan])

    def test_marginal_blockage_probability(self, baseline, rng):
        n = 10**6
        factors = blockage_frames(baseline, np.zeros(baseline.num_paths), rng, n)
        blocked_freq = np.mean(factors[:, 0] == 0.0)
        band = 3.0 * math.sqrt(baseline.p_blk * (1 - baseline.p_blk) / n)
        assert abs(blocked_freq - baseline.p_blk) < band

    def test_joint_blockage_is_correlated(self, baseline, rng):
        # frames share one p_hat, so P(all blocked) = E[p_hat^L] > p_blk^L
        n = 10**6
        L = baseline.num_paths
        factors = blockage_frames(baseline, np.zeros(L), rng, n)
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
        ideal = independent_frames(baseline, baseline.p_blk, gen, 1)
        assert set(np.unique(ideal)) <= {0.0, 1.0}
        attenuation = blockage_attenuation(np.full(baseline.num_paths, 25.0))
        real = blockage_frames(baseline, attenuation, gen, 1)
        assert set(np.unique(real)) <= {1.0, 1.0 / (9.8 + 180.0 / 25.0)}
