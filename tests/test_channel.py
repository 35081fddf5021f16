import functools
import math
import warnings
from dataclasses import replace

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
from panelalloc.channel import _block, _blocked_amplitudes
from util import fill_se


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
        # repeated over the frames, sums in path order to the unblocked RSNR per E
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
            rsnr = functools.reduce(np.add, expected) * stream_zero_row(size or 1)
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
