import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panelalloc import (
    ConfigurationError,
    PanelAllocation,
    SystemConfig,
    allocation_array,
    empirical_outage,
    ks_distance,
    los_concentration,
    optimize_outmin,
    outage_probability,
    rsnr_mixture,
    run_trials,
    sample_channel,
    se_cdf,
    uniform_allocation,
)
from panelalloc import montecarlo
from panelalloc.montecarlo import _KS_BLOCK, CHUNK_TRIALS, MODES, TrialBatchResult, _channel_power
from util import (
    blockage_pattern_se_cdf,
    realistic_se_cdf,
    serial_channel_power,
    unique_ks_distance,
)


@pytest.fixture(scope="module")
def aods(baseline):
    return sample_channel(baseline, rng=np.random.default_rng(7)).aods


class TestDeterminism:
    def test_equal_seeds_equal_samples(self, baseline, aods):
        n = CHUNK_TRIALS + 123  # force an uneven chunk split
        alloc = uniform_allocation(baseline)
        a = run_trials(baseline, alloc, aods, "idealized", n, 99)
        b = run_trials(baseline, alloc, aods, "idealized", n, 99)
        np.testing.assert_array_equal(a.se_samples, b.se_samples)

    def test_different_seeds_differ(self, baseline, aods):
        alloc = uniform_allocation(baseline)
        a = run_trials(baseline, alloc, aods, "idealized", 1000, 1)
        b = run_trials(baseline, alloc, aods, "idealized", 1000, 2)
        assert not np.array_equal(a.se_samples, b.se_samples)

    def test_realistic_mode_deterministic(self, baseline, aods):
        alloc = los_concentration(baseline)
        a = run_trials(baseline, alloc, aods, "realistic", 5000, 4)
        b = run_trials(baseline, alloc, aods, "realistic", 5000, 4)
        np.testing.assert_array_equal(a.se_samples, b.se_samples)


class TestIdealizedMode:
    def test_zero_se_atom_los(self, baseline, aods):
        result = run_trials(baseline, los_concentration(baseline), aods, "idealized", 10**5, 3)
        frac = np.mean(result.se_samples == 0.0)
        assert frac == pytest.approx(baseline.p_blk, abs=0.01)

    def test_zero_se_atom_uniform(self, baseline, aods):
        result = run_trials(baseline, uniform_allocation(baseline), aods, "idealized", 10**5, 3)
        frac = np.mean(result.se_samples == 0.0)
        assert frac == pytest.approx(baseline.p_blk**4, abs=0.004)

    def test_ks_against_analytic(self, baseline, aods):
        for alloc in (los_concentration(baseline), uniform_allocation(baseline)):
            result = run_trials(baseline, alloc, aods, "idealized", 10**5, 21)
            mix = rsnr_mixture(alloc, baseline)
            assert ks_distance(result, lambda x: se_cdf(mix, x)) < 0.01

    def test_summary_statistics_match_samples(self, baseline, aods):
        result = run_trials(baseline, uniform_allocation(baseline), aods, "idealized", 4000, 5)
        assert result.mean_se == pytest.approx(result.se_samples.mean())
        gamma = 2.0**result.se_samples - 1.0
        assert result.mean_rsnr == pytest.approx(gamma.mean(), rel=1e-9)
        assert result.trials == 4000 and result.seed == 5


class TestRealisticMode:
    def test_no_exact_zero_samples(self, baseline, aods):
        for alloc in (los_concentration(baseline), uniform_allocation(baseline)):
            result = run_trials(baseline, alloc, aods, "realistic", 10**5, 9)
            assert np.all(result.se_samples > 0.0)


class TestExactRealisticOracle:
    """Self-checks of the exact realistic-mode oracle in tests/util.py."""

    @pytest.mark.parametrize(
        "config",
        [
            SystemConfig(),
            SystemConfig(rician_k=0.0),
            SystemConfig(n_p=6, num_paths=3, p_min=0.1, p_max=0.9),
        ],
        ids=["baseline", "kappa0", "np6_L3"],
    )
    def test_reduces_to_analytic_mixture(self, config):
        # main-lobe responses, nulled blocked paths and a fixed p_hat = p_blk
        # are the idealized model, so the oracle must equal the closed form
        fixed = replace(config, p_min=config.p_blk, p_max=config.p_blk)
        se_points = np.array([0.0, 1e-3, 0.1, 1.0, 2.5, 6.0])
        for q in allocation_array(config.n_p, config.num_paths)[::7]:
            a_eq = config.n_a / np.sqrt(config.n_t) * q
            oracle = blockage_pattern_se_cdf(
                fixed, a_eq, np.zeros(config.num_paths), se_points
            )
            analytic = se_cdf(rsnr_mixture(PanelAllocation(tuple(q.tolist())), config), se_points)
            np.testing.assert_allclose(oracle, analytic, rtol=0.0, atol=1e-12)

    def test_ks_against_realistic_simulation(self, baseline, aods):
        for alloc in (los_concentration(baseline), uniform_allocation(baseline)):
            result = run_trials(baseline, alloc, aods, "realistic", 10**5, 41)
            exact = lambda x: realistic_se_cdf(baseline, alloc, aods, x)
            assert ks_distance(result, exact) < 0.01


class TestEmpiricalQueries:
    def test_outage_at_zero_target_counts_nothing(self, baseline, aods):
        result = run_trials(baseline, los_concentration(baseline), aods, "idealized", 10**4, 2)
        assert empirical_outage(result, 0.0) == 0.0

    def test_outage_at_huge_target_is_one(self, baseline, aods):
        result = run_trials(baseline, los_concentration(baseline), aods, "idealized", 10**4, 2)
        assert empirical_outage(result, 1e6) == 1.0

    def test_outage_matches_analytic_within_band(self, baseline, aods):
        alloc = uniform_allocation(baseline)
        n = 2 * 10**5
        result = run_trials(baseline, alloc, aods, "idealized", n, 17)
        for xi in (0.5, 1.0, 4.0):
            p = outage_probability(alloc, baseline, xi)
            band = 3.0 * math.sqrt(p * (1 - p) / n)
            assert abs(empirical_outage(result, xi) - p) < band

    def test_empirical_cdf_shape(self, baseline, aods):
        result = run_trials(baseline, uniform_allocation(baseline), aods, "idealized", 10**4, 23)
        grid = np.linspace(-1.0, 15.0, 300)
        values = result.empirical_cdf(grid)
        assert np.all(np.diff(values) >= 0)
        assert values[0] == 0.0 and values[-1] == 1.0


class TestChannelPower:
    @pytest.mark.parametrize("mode", ["idealized", "realistic"])
    def test_run_trials_is_log2_of_scaled_power(self, baseline, aods, mode):
        n = CHUNK_TRIALS + 17  # cross a chunk boundary
        alloc = PanelAllocation((2, 1, 2, 3))
        power = _channel_power(baseline, alloc, aods, mode, n, 41)
        expected = np.log2(1 + baseline.tx_snr * power)
        result = run_trials(baseline, alloc, aods, mode, n, 41)
        assert result.se_samples.tobytes() == expected.tobytes()
        assert result.mean_se == float(expected.mean())
        assert result.mean_rsnr == float((baseline.tx_snr * power).mean())
        # the draws ignore tx_snr; run_trials applies it
        louder = replace(baseline, tx_snr=40.0)
        assert _channel_power(louder, alloc, aods, mode, n, 41).tobytes() == power.tobytes()


class TestThreadedFill:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("q", [(8, 0, 0, 0), (4, 0, 2, 2), (1, 2, 2, 3)])
    def test_equals_serial_chunk_loop_bytewise(self, baseline, aods, mode, q):
        alloc = PanelAllocation(q)
        for n in (1, CHUNK_TRIALS, 3 * CHUNK_TRIALS + 5):
            for seed in (3, 2024):
                expected = serial_channel_power(baseline, alloc, aods, mode, n, seed)
                got = _channel_power(baseline, alloc, aods, mode, n, seed)
                assert got.tobytes() == expected.tobytes(), (n, seed)

    @pytest.mark.parametrize("mode", MODES)
    def test_traced_peak_is_output_plus_worker_scratch(self, baseline, aods, mode):
        n = 3 * CHUNK_TRIALS
        workers = min(montecarlo._usable_cpus(), 3)
        # per chunk row: complex gains, float draws and bool mask over L paths,
        # complex h_eq, and in realistic mode the frame's p_hat drawn by the generator
        row_bytes = baseline.num_paths * (16 + 8 + 1) + 16 + (8 if mode == "realistic" else 0)
        alloc = uniform_allocation(baseline)
        _channel_power(baseline, alloc, aods, mode, 10, 0)  # lazy imports happen outside the trace
        tracemalloc.start()
        try:
            _channel_power(baseline, alloc, aods, mode, n, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + workers * CHUNK_TRIALS * row_bytes + 2**20

    def test_worker_exception_reaches_caller(self, baseline, aods, monkeypatch):
        chunk_rng = montecarlo._chunk_rng

        def failing_rng(seed, chunk_index):
            if chunk_index == 1:
                raise RuntimeError("chunk 1 failed")
            return chunk_rng(seed, chunk_index)

        monkeypatch.setattr(montecarlo, "_chunk_rng", failing_rng)
        outcome = []

        def call():
            try:
                outcome.append(
                    _channel_power(
                        baseline, uniform_allocation(baseline), aods, "idealized",
                        3 * CHUNK_TRIALS, 5,
                    )
                )
            except RuntimeError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(outcome) == 1
        assert isinstance(outcome[0], RuntimeError) and str(outcome[0]) == "chunk 1 failed"


def _batch(samples) -> TrialBatchResult:
    samples = np.asarray(samples, dtype=float)
    return TrialBatchResult(samples, float(samples.mean()), 0.0, samples.size, 0, "idealized")


class TestKsDistance:
    def test_equals_unique_based_distance(self, baseline, aods):
        # the LoS beam's zero-SE atom gives one long run of tied samples
        alloc = los_concentration(baseline)
        result = run_trials(baseline, alloc, aods, "idealized", 20_000, 12)
        mix = rsnr_mixture(alloc, baseline)
        xs, counts = np.unique(result.se_samples, return_counts=True)
        fn_hi = np.cumsum(counts) / result.trials
        model = se_cdf(mix, xs)
        model_left = model.copy()
        model_left[0] = 0.0  # xs[0] is the atom at SE = 0
        expected = max(np.max(fn_hi - model), np.max(model_left - (fn_hi - counts / result.trials)))
        assert xs[0] == 0.0 and counts[0] > 1000
        assert ks_distance(result, lambda se: se_cdf(mix, se)) == float(expected)

    @given(
        seed=st.integers(0, 2**31),
        n=st.sampled_from([1, 2, _KS_BLOCK, _KS_BLOCK + 1]) | st.integers(1, 40 * _KS_BLOCK + 77),
        distinct=st.sampled_from([1, 2, 3, 40]) | st.integers(1, 2000),
        zero_share=st.sampled_from([0.0, 0.4]) | st.floats(0.0, 1.0),
        shift=st.sampled_from([0.0, 1.5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_unpruned_oracle_bitwise(self, baseline, seed, n, distinct, zero_share, shift):
        gen = np.random.default_rng(seed)
        # few distinct values make runs of ties that cross block boundaries
        pool = np.sort(gen.exponential(2.0, distinct)) + 1e-3
        samples = np.where(gen.random(n) < zero_share, 0.0, gen.choice(pool, n))
        q = allocation_array(baseline.n_p, baseline.num_paths)
        mix = rsnr_mixture(PanelAllocation(tuple(q[gen.integers(len(q))].tolist())), baseline)

        def model(se):  # shifting the mixture CDF right gives a large distance
            return se_cdf(mix, np.maximum(np.asarray(se) - shift, 0.0))

        assert ks_distance(_batch(samples), model) == unique_ks_distance(samples, model)

    @pytest.mark.parametrize("mode", MODES)
    def test_oracle_designs_at_scale_equal_unpruned_oracle(self, baseline, aods, mode):
        for alloc in (uniform_allocation(baseline), optimize_outmin(baseline, 1.0).chosen):
            result = run_trials(baseline, alloc, aods, mode, 2 * 10**5, 5)
            mix = rsnr_mixture(alloc, baseline)
            expected = unique_ks_distance(result.se_samples, lambda se: se_cdf(mix, se))
            assert ks_distance(result, lambda se: se_cdf(mix, se)) == expected

    def test_model_falling_between_blocks_is_rejected(self):
        samples = np.arange(3 * _KS_BLOCK) / (3 * _KS_BLOCK)
        edge = samples[_KS_BLOCK]  # first sample of the second block

        def falling(drop):
            return lambda se: np.asarray(se) - drop * (np.asarray(se) >= edge)

        with pytest.raises(ValueError, match="CDF"):
            ks_distance(_batch(samples), falling(0.25))
        # a fall within rounding slack is no fault
        assert ks_distance(_batch(samples), falling(1e-13)) == unique_ks_distance(
            samples, falling(1e-13)
        )

    @pytest.mark.parametrize("design", [los_concentration, uniform_allocation])
    def test_traced_peak_is_block_sized(self, baseline, aods, design):
        # the LoS beam holds a 400k-sample zero atom; the uniform one ~974k distinct values
        alloc = design(baseline)
        result = run_trials(baseline, alloc, aods, "idealized", 10**6, 8)
        mix = rsnr_mixture(alloc, baseline)
        tracemalloc.start()
        try:
            ks_distance(result, lambda se: se_cdf(mix, se))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestValidation:
    def test_bad_mode(self, baseline, aods):
        with pytest.raises(ConfigurationError):
            run_trials(baseline, los_concentration(baseline), aods, "exact", 10, 0)

    def test_bad_trial_count(self, baseline, aods):
        with pytest.raises(ConfigurationError):
            run_trials(baseline, los_concentration(baseline), aods, "idealized", 0, 0)

    def test_bad_aods(self, baseline):
        with pytest.raises(ValueError):
            run_trials(
                baseline, los_concentration(baseline), np.zeros(2), "idealized", 10, 0
            )

    def test_bad_allocation(self, baseline, aods):
        with pytest.raises(ConfigurationError):
            run_trials(baseline, PanelAllocation((1, 1, 1, 1)), aods, "idealized", 10, 0)
