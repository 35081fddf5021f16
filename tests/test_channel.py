import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from panelalloc import (
    ConfigurationError,
    SamplingError,
    SystemConfig,
    los_concentration,
    path_variances,
    sample_channel,
)
from panelalloc import montecarlo
from panelalloc.channel import _block, _blocked_amplitudes, _fill_gains


def gain_draws(variances, rng, size=None):
    """Gains from the library's in-place law, path-major (L, size) when size is set."""
    shape = (variances.size, 1 if size is None else size)
    re, im = np.empty(shape), np.empty(shape)
    _fill_gains(variances, rng, re, im)
    gains = np.empty(shape, dtype=complex)
    gains.real, gains.imag = re, im
    return gains[:, 0] if size is None else gains


def blockage_frames(config, blocked_values, rng, n_frames):
    """Per-frame factors (L, n_frames) of the realistic shared-p_hat law, applied to ones."""
    shape = (config.num_paths, n_frames)
    mask = np.empty(shape, bool)
    _block(config, "realistic", rng, np.empty(shape), mask, np.empty(n_frames))
    return np.where(mask, np.asarray(blocked_values)[:, None], 1.0)


def independent_frames(config, rng, n_frames):
    """Per-frame factors (L, n_frames) of idealized blockage: independent at p_blk, nulled."""
    shape = (config.num_paths, n_frames)
    mask = np.empty(shape, bool)
    _block(config, "idealized", rng, np.empty(shape), mask, np.empty(0))
    return np.where(mask, 0.0, 1.0)


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
    def test_los_power_matches_k_factor(self, baseline, rng):
        variances = path_variances(baseline.rician_k, baseline.num_paths)
        n = 10**6
        g = gain_draws(variances, rng, size=n)
        # |g_1|^2 is exponential with mean sigma_1^2 and std sigma_1^2
        band = 3.0 * variances[0] / math.sqrt(n)
        assert abs(np.mean(np.abs(g[0]) ** 2) - baseline.rician_k / (baseline.rician_k + 1)) < band

    def test_total_power_is_unit(self, baseline, rng):
        variances = path_variances(baseline.rician_k, baseline.num_paths)
        n = 10**6
        g = gain_draws(variances, rng, size=n)
        total = np.sum(np.abs(g) ** 2, axis=0)
        band = 3.0 * math.sqrt(np.sum(variances**2)) / math.sqrt(n)
        assert abs(total.mean() - 1.0) < band

    @pytest.mark.parametrize("size", [None, 1000])
    def test_equals_complex_gaussian_formula_bitwise(self, baseline, size):
        variances = path_variances(baseline.rician_k, baseline.num_paths)
        shape = (baseline.num_paths,) if size is None else (baseline.num_paths, size)
        scale = np.sqrt(variances / 2.0) if size is None else np.sqrt(variances / 2.0)[:, None]
        draws = np.random.default_rng(21)
        expected = scale * (
            draws.standard_normal(shape) + 1j * draws.standard_normal(shape)
        )
        gains = gain_draws(variances, np.random.default_rng(21), size)
        assert gains.shape == shape
        assert gains.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("num_paths", [2, 3, 33, 64])
    @pytest.mark.parametrize("size", [None, 1, 127, 2049, 3000])
    def test_scale_repeated_over_frames_equals_formula_bitwise(self, num_paths, size):
        # the (L, 1) scale column multiplies each path's row of frames
        variances = path_variances(4.0, num_paths)
        shape = (num_paths,) if size is None else (num_paths, size)
        scale = np.sqrt(variances / 2.0) if size is None else np.sqrt(variances / 2.0)[:, None]
        draws = np.random.default_rng(5)
        expected = scale * (
            draws.standard_normal(shape) + 1j * draws.standard_normal(shape)
        )
        assert gain_draws(variances, np.random.default_rng(5), size).tobytes() == expected.tobytes()


class TestBlockage:
    @given(
        bounds=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
        n=st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50)
    def test_shared_probability_equals_uniform_draws_bitwise(self, bounds, n, seed):
        cfg = SystemConfig(p_min=bounds[0], p_max=bounds[1])
        draws = np.random.default_rng(seed)
        expected = draws.uniform(cfg.p_min, cfg.p_max, size=n)
        shape = (cfg.num_paths, n)
        draws.random(shape)  # the blockage uniforms follow p_hat
        rng, p_hat = np.random.default_rng(seed), np.empty(n)
        _block(cfg, "realistic", rng, np.empty(shape), np.empty(shape, bool), p_hat)
        assert p_hat.tobytes() == expected.tobytes()
        assert rng.random() == draws.random()  # the same number of draws

    def test_idealized_draws_no_p_hat(self, baseline):
        n, L = 5000, baseline.num_paths
        draws = np.random.default_rng(3)
        expected = draws.random((L, n)) < baseline.p_blk
        rng, mask = np.random.default_rng(3), np.empty((L, n), bool)
        _block(baseline, "idealized", rng, np.empty((L, n)), mask, np.empty(0))
        assert mask.tobytes() == expected.tobytes()
        assert rng.random() == draws.random()  # the same number of draws

    def test_frames_equal_shared_probability_formula_bitwise(self, baseline):
        n, L = 5000, baseline.num_paths
        blocked_values = np.array([0.05, 0.0, 0.07, 0.02])
        draws = np.random.default_rng(8)
        p_hat = draws.uniform(baseline.p_min, baseline.p_max, size=n)
        expected = np.where(draws.random((L, n)) < p_hat[None, :], blocked_values[:, None], 1.0)
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
