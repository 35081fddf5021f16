import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import exp1

from panelalloc import (
    ConfigurationError,
    PanelAllocation,
    SystemConfig,
    allocation_array,
    average_rsnr,
    average_se_upper_bound,
    los_concentration,
    outage_probability,
    path_variances,
    rsnr_cdf,
    rsnr_mixture,
    run_trials,
    sample_channel,
    score_allocations,
    se_cdf,
    se_mean,
    uniform_allocation,
)
from panelalloc.analytic import _BLOCK_ELEMENTS, _exp_e1
from util import blockage_pattern_se_cdf


def random_allocation(rng, n_p, num_paths):
    cuts = np.sort(rng.integers(0, n_p + 1, size=num_paths - 1))
    q = np.diff(np.concatenate(([0], cuts, [n_p])))
    if q[0] == 0:  # keep at least one LoS panel, like the optimizer's candidates
        donor = int(np.argmax(q))
        q[donor] -= 1
        q[0] += 1
    return PanelAllocation(tuple(int(v) for v in q))


def mixture_mean(mix):
    """Mean RSNR of a mixture: the weighted sum of its exponential scales."""
    return float(np.dot(mix.weights, mix.scales))


class TestMixture:
    def test_single_beam_is_one_exponential(self, baseline):
        mix = rsnr_mixture(los_concentration(baseline), baseline)
        assert mix.zero_mass == pytest.approx(baseline.p_blk)
        assert len(mix.weights) == 1
        assert mix.weights[0] == pytest.approx(1 - baseline.p_blk)
        sigma1 = baseline.rician_k / (baseline.rician_k + 1)
        expected_scale = (
            baseline.tx_snr * baseline.n_a**2 / baseline.n_t * sigma1 * baseline.n_p**2
        )
        assert mix.scales[0] == pytest.approx(expected_scale, rel=1e-12)

    def test_uniform_allocation_components(self, baseline):
        mix = rsnr_mixture(uniform_allocation(baseline), baseline)
        assert mix.zero_mass == pytest.approx(0.4**4)
        assert len(mix.weights) == 2**4 - 1
        assert np.all(mix.scales > 0)

    def test_component_count_and_normalization(self, baseline, rng):
        for _ in range(20):
            alloc = random_allocation(rng, baseline.n_p, baseline.num_paths)
            mix = rsnr_mixture(alloc, baseline)
            assert len(mix.weights) == 2**alloc.n_b - 1
            assert mix.zero_mass + mix.weights.sum() == pytest.approx(1.0, abs=1e-12)

    @given(
        p_blk=st.floats(0.0, 1.0),
        kappa=st.floats(0.0, 100.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_normalization_property(self, p_blk, kappa, seed):
        gen = np.random.default_rng(seed)
        q = gen.integers(0, 4, size=4)
        q[gen.integers(4)] += 1  # nonempty support
        cfg = SystemConfig(n_p=int(q.sum()), rician_k=kappa, p_min=p_blk, p_max=p_blk)
        mix = rsnr_mixture(PanelAllocation(tuple(q.tolist())), cfg)
        assert mix.zero_mass + mix.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_los_variance_folds_into_zero_mass(self):
        # kappa = 0 makes the LoS gain identically zero: subsets containing
        # only the LoS path are zero-scale and merge with the atom
        cfg = SystemConfig(n_p=4, num_paths=2, rician_k=0.0)
        mix = rsnr_mixture(PanelAllocation((2, 2)), cfg)
        p = cfg.p_blk
        assert mix.zero_mass == pytest.approx(p**2 + p * (1 - p))
        assert np.all(mix.scales > 0)
        assert mix.zero_mass + mix.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_allocation_paths_do_not_matter(self, baseline):
        # only the two served paths' subsets appear, written out by hand
        mix = rsnr_mixture(PanelAllocation((3, 5, 0, 0)), baseline)
        p = baseline.p_blk
        s1, s2 = path_variances(baseline.rician_k, baseline.num_paths)[:2]
        gain = baseline.tx_snr * baseline.n_a**2 / baseline.n_t
        assert mix.zero_mass == pytest.approx(p**2, abs=1e-15)
        np.testing.assert_allclose(mix.weights, [p * (1 - p), p * (1 - p), (1 - p) ** 2])
        np.testing.assert_allclose(mix.scales, gain * np.array([9 * s1, 25 * s2, 9 * s1 + 25 * s2]))

    def test_four_pattern_weights(self):
        # two paths, two panels each: blockage patterns weigh
        # {0.16 atom, 0.24, 0.24, 0.36}
        cfg = SystemConfig(n_a=32, n_p=4, num_paths=2)
        mix = rsnr_mixture(PanelAllocation((2, 2)), cfg)
        assert mix.zero_mass == pytest.approx(0.16)
        np.testing.assert_allclose(np.sort(mix.weights), [0.24, 0.24, 0.36])

    def test_mismatched_allocation_rejected(self, baseline):
        with pytest.raises(ConfigurationError):
            rsnr_mixture(PanelAllocation((4, 4, 4, 4)), baseline)


class TestRsnrCdf:
    def test_value_at_zero_is_atom(self, baseline):
        for alloc in (los_concentration(baseline), uniform_allocation(baseline)):
            mix = rsnr_mixture(alloc, baseline)
            assert rsnr_cdf(mix, 0.0) == pytest.approx(baseline.p_blk**alloc.n_b)

    def test_limit_is_one(self, baseline):
        mix = rsnr_mixture(uniform_allocation(baseline), baseline)
        assert rsnr_cdf(mix, 1e9) == pytest.approx(1.0, abs=1e-9)

    def test_negative_argument_rejected(self, baseline):
        mix = rsnr_mixture(los_concentration(baseline), baseline)
        with pytest.raises(ValueError):
            rsnr_cdf(mix, -0.5)

    def test_nondecreasing_and_continuous_above_zero(self, baseline, rng):
        alloc = random_allocation(rng, baseline.n_p, baseline.num_paths)
        mix = rsnr_mixture(alloc, baseline)
        grid = np.linspace(0.0, 4000.0, 2000)
        values = rsnr_cdf(mix, grid)
        assert np.all(np.diff(values) >= 0)
        assert rsnr_cdf(mix, 1e-9) - rsnr_cdf(mix, 0.0) < 1e-6

    def test_matches_monte_carlo_at_unit_threshold(self, baseline, rng):
        # oracle: idealized simulation of the same model, 1e6 trials
        alloc = uniform_allocation(baseline)
        aods = sample_channel(baseline, rng=rng).aods
        result = run_trials(baseline, alloc, aods, "idealized", 10**6, 777)
        empirical = np.mean((2.0 ** result.se_samples - 1.0) <= 1.0)
        analytic = rsnr_cdf(rsnr_mixture(alloc, baseline), 1.0)
        assert analytic == pytest.approx(empirical, abs=0.005)

    def test_oracle_equivalence_over_allocation_grid(self, baseline, rng):
        # five allocations x five SE points, binomial 3-sigma band plus slack
        aods = sample_channel(baseline, rng=rng).aods
        n = 10**6
        allocations = [
            PanelAllocation(q)
            for q in [(8, 0, 0, 0), (2, 2, 2, 2), (1, 2, 2, 3), (4, 0, 2, 2), (5, 1, 1, 1)]
        ]
        se_points = np.array([0.25, 1.0, 2.0, 4.0, 8.0])
        for seed, alloc in enumerate(allocations, start=400):
            result = run_trials(baseline, alloc, aods, "idealized", n, seed)
            mix = rsnr_mixture(alloc, baseline)
            analytic = se_cdf(mix, se_points)
            empirical = result.empirical_cdf(se_points)
            band = 3.0 * np.sqrt(analytic * (1 - analytic) / n) + 0.002
            assert np.all(np.abs(analytic - empirical) <= band)

    def test_pdf_quadrature_matches_cdf(self, baseline):
        # the CDF against the integral of the exponential mixture's density
        alloc = PanelAllocation((2, 3, 2, 1))
        mix = rsnr_mixture(alloc, baseline)

        def pdf(g):
            return float(np.sum(mix.weights / mix.scales * np.exp(-g / mix.scales)))

        total, _ = quad(pdf, 0, np.inf, limit=500)
        assert total == pytest.approx(1.0 - mix.zero_mass, abs=1e-6)
        for gamma in np.linspace(0.5, 400.0, 15):
            running, _ = quad(pdf, 0, gamma, limit=500)
            assert running + mix.zero_mass == pytest.approx(
                float(rsnr_cdf(mix, gamma)), abs=1e-6
            )

    def test_se_cdf_is_change_of_variables(self, baseline):
        mix = rsnr_mixture(uniform_allocation(baseline), baseline)
        xi = np.linspace(0.0, 9.0, 41)
        np.testing.assert_allclose(se_cdf(mix, xi), rsnr_cdf(mix, 2.0**xi - 1.0))


class TestRowBlocks:
    """The mixture sums run in row blocks; each must equal one (N, K) broadcast."""

    @staticmethod
    def _inputs(baseline):
        mix = rsnr_mixture(uniform_allocation(baseline), baseline)
        rows = _BLOCK_ELEMENTS // mix.scales.size
        points = np.linspace(0.0, 60.0, 2 * rows + 6)  # crosses two block boundaries
        return mix, [points[rows], points, points.reshape(2, -1)]

    def test_rsnr_cdf_equals_unblocked_broadcast(self, baseline):
        mix, inputs = self._inputs(baseline)
        for gamma in inputs:
            g = np.atleast_1d(gamma)[..., None]
            expected = mix.zero_mass + np.sum(mix.weights * (1.0 - np.exp(-g / mix.scales)), axis=-1)
            got = rsnr_cdf(mix, gamma)
            if np.ndim(gamma) == 0:
                assert isinstance(got, float) and got == float(expected[0])
            else:
                assert got.shape == gamma.shape
                assert got.tobytes() == expected.reshape(gamma.shape).tobytes()

    def test_se_cdf_memory_does_not_scale_with_components(self, baseline):
        mix = rsnr_mixture(uniform_allocation(baseline), baseline)
        se = np.linspace(0.0, 10.0, 10**6)
        n, k = se.size, mix.scales.size
        assert k == 15
        tracemalloc.start()
        try:
            se_cdf(mix, se)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a few point-length arrays (RSNR, sums, result), not an (N, K) broadcast
        assert peak < 4 * n * 8 < n * k * 8 / 3


class TestOutage:
    def test_atom_reached_as_target_vanishes(self, baseline):
        assert outage_probability(los_concentration(baseline), baseline, 1e-12) == pytest.approx(
            0.4, abs=1e-9
        )
        assert outage_probability(uniform_allocation(baseline), baseline, 1e-12) == pytest.approx(
            0.0256, abs=1e-9
        )

    def test_zero_target_is_exactly_atom(self, baseline, rng):
        alloc = random_allocation(rng, baseline.n_p, baseline.num_paths)
        assert outage_probability(alloc, baseline, 0.0) == pytest.approx(
            baseline.p_blk**alloc.n_b, abs=1e-12
        )

    def test_negative_target_rejected(self, baseline):
        with pytest.raises(ValueError):
            outage_probability(los_concentration(baseline), baseline, -1.0)


class TestAverageRsnr:
    def test_fully_blocked_is_zero(self):
        cfg = SystemConfig(p_min=1.0, p_max=1.0)
        assert average_rsnr(los_concentration(cfg), cfg) == 0.0

    def test_baseline_los_value(self, baseline):
        # gamma_tx N_a^2 (1-p) kappa (L-1) N_p^2 / (N_t (kappa+1)(L-1)) = 15360/11
        assert average_rsnr(los_concentration(baseline), baseline) == pytest.approx(
            15360.0 / 11.0, rel=1e-12
        )

    def test_closed_form_equals_mixture_mean(self, baseline, rng):
        for _ in range(20):
            alloc = random_allocation(rng, baseline.n_p, baseline.num_paths)
            mix = rsnr_mixture(alloc, baseline)
            assert average_rsnr(alloc, baseline) == pytest.approx(mixture_mean(mix), rel=1e-9)

    def test_monte_carlo_confirms_mean(self, baseline, rng):
        aods = sample_channel(baseline, rng=rng).aods
        for seed, alloc in [
            (5, los_concentration(baseline)),
            (6, uniform_allocation(baseline)),
            (7, PanelAllocation((1, 3, 3, 1))),
        ]:
            result = run_trials(baseline, alloc, aods, "idealized", 10**6, seed)
            assert result.mean_rsnr == pytest.approx(average_rsnr(alloc, baseline), rel=0.01)


class TestAverageSeBound:
    def test_zero_rsnr_gives_zero_bound(self):
        cfg = SystemConfig(p_min=1.0, p_max=1.0)
        assert average_se_upper_bound(los_concentration(cfg), cfg) == 0.0

    def test_jensen_bound_dominates_simulation(self, baseline, rng):
        aods = sample_channel(baseline, rng=rng).aods
        for alloc in (
            los_concentration(baseline),
            uniform_allocation(baseline),
            PanelAllocation((4, 2, 1, 1)),
        ):
            result = run_trials(baseline, alloc, aods, "idealized", 10**5, 11)
            bound = average_se_upper_bound(alloc, baseline)
            assert bound >= result.mean_se
            if alloc.n_b >= 2:
                # strict gap: the SE distribution is far from degenerate
                assert bound - result.mean_se > 0.1


class TestSeMean:
    def test_exp_e1_matches_scipy(self):
        x = np.concatenate((
            [1e-12, 1e-6, 0.5, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 700.0],
            np.geomspace(1e-3, 1.0, 500), np.geomspace(1.0, 50.0, 500),
        ))
        expected = np.exp(x) * exp1(x)
        assert np.max(np.abs(_exp_e1(x) / expected - 1.0)) <= 1e-12

    def test_matches_quadrature_and_stays_below_jensen_bound(self, baseline):
        # E[log2(1 + gamma)] = int_0^inf P(gamma > g) / ((1 + g) ln 2) dg
        for row in allocation_array(baseline.n_p, baseline.num_paths):
            alloc = PanelAllocation(tuple(row.tolist()))
            mix = rsnr_mixture(alloc, baseline)
            expected, _ = quad(
                lambda g: (1.0 - rsnr_cdf(mix, g)) / ((1.0 + g) * np.log(2.0)),
                0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=500,
            )
            mean = se_mean(mix)
            assert abs(mean - expected) <= 1e-9, alloc.q
            assert mean <= average_se_upper_bound(alloc, baseline), alloc.q

    def test_no_served_power_gives_exactly_zero(self, baseline):
        blocked = SystemConfig(p_min=1.0, p_max=1.0)
        for alloc in (los_concentration(blocked), uniform_allocation(blocked)):
            assert se_mean(rsnr_mixture(alloc, blocked)) == 0.0
        no_los = replace(baseline, rician_k=0.0)
        assert se_mean(rsnr_mixture(los_concentration(no_los), no_los)) == 0.0


class TestScoreAllocations:
    """The vectorized kernel against per-allocation mixtures and an exact enumeration."""

    @given(
        seed=st.integers(0, 2**31),
        kappa=st.sampled_from([0.0, 10.0]) | st.floats(0.0, 50.0),
        p_range=st.sampled_from([(0.0, 0.0), (1.0, 1.0)])
        | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
        xi=st.sampled_from([0.0]) | st.floats(0.0, 9.0),
        require_los=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_mixture_and_pattern_oracle(self, seed, kappa, p_range, xi, require_los):
        gen = np.random.default_rng(seed)
        cfg = SystemConfig(
            n_a=int(gen.integers(2, 64)),
            n_p=int(gen.integers(1, 9)),  # n_p < L happens
            num_paths=int(gen.integers(2, 6)),
            rician_k=kappa,
            tx_snr=float(gen.uniform(0.5, 100.0)),
            p_min=float(p_range[0]),
            p_max=float(p_range[1]),
        )
        q = allocation_array(cfg.n_p, cfg.num_paths, require_los)
        outage, avg = score_allocations(q, cfg, xi)
        # the oracle's blockage law is the idealized one when p_hat is fixed at p_blk
        fixed = replace(cfg, p_min=cfg.p_blk, p_max=cfg.p_blk)
        blocked = np.zeros(cfg.num_paths)
        for i in gen.choice(len(q), size=min(len(q), 12), replace=False):
            mix = rsnr_mixture(PanelAllocation(tuple(q[i].tolist())), cfg)
            assert outage[i] == pytest.approx(float(se_cdf(mix, xi)), rel=0.0, abs=1e-12)
            assert avg[i] == pytest.approx(mixture_mean(mix), rel=1e-12, abs=1e-300)
            a_eq = cfg.n_a / np.sqrt(cfg.n_t) * q[i]
            exact = float(blockage_pattern_se_cdf(fixed, a_eq, blocked, xi))
            assert outage[i] == pytest.approx(exact, rel=0.0, abs=1e-12)

    @given(
        seed=st.integers(0, 2**31),
        xi=st.sampled_from([0.4, 1.5, 1.6]) | st.floats(0.0, 9.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_nlos_permutation_is_bit_identical(self, seed, xi):
        # NLoS paths share one variance, so permuting their entries keeps the
        # rho^2 multiset: table rows and one-row calls must score exactly alike
        gen = np.random.default_rng(seed)
        cfg = SystemConfig(
            n_p=int(gen.integers(2, 11)),
            num_paths=int(gen.integers(3, 7)),
            rician_k=float(gen.uniform(0.0, 30.0)),
            p_min=0.2,
            p_max=float(gen.uniform(0.2, 1.0)),
        )
        q = allocation_array(cfg.n_p, cfg.num_paths)
        permuted = np.column_stack((q[:, 0], gen.permuted(q[:, 1:], axis=1)))
        outage, avg = score_allocations(q, cfg, xi)
        outage_p, avg_p = score_allocations(permuted, cfg, xi)
        assert np.array_equal(outage, outage_p) and np.array_equal(avg, avg_p)
        i = int(gen.integers(len(q)))
        a, b = (PanelAllocation(tuple(r[i].tolist())) for r in (q, permuted))
        assert outage_probability(a, cfg, xi) == outage_probability(b, cfg, xi)
        assert average_rsnr(a, cfg) == average_rsnr(b, cfg)

    @given(
        seed=st.integers(0, 2**31),
        kappa=st.sampled_from([0.0, 10.0]) | st.floats(0.0, 50.0),
        p_range=st.sampled_from([(0.0, 0.0), (1.0, 1.0)])
        | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
        grid=st.lists(st.sampled_from([0.0]) | st.floats(0.0, 9.0), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_columns_equal_scalar_calls(self, seed, kappa, p_range, grid):
        gen = np.random.default_rng(seed)
        cfg = SystemConfig(
            n_p=int(gen.integers(1, 9)),
            num_paths=int(gen.integers(2, 6)),
            rician_k=kappa,
            p_min=float(p_range[0]),
            p_max=float(p_range[1]),
        )
        q = allocation_array(cfg.n_p, cfg.num_paths)
        outage, avg = score_allocations(q, cfg, np.array(grid))
        assert outage.shape == (len(q), len(grid))
        for j, xi in enumerate(grid):
            outage_j, avg_j = score_allocations(q, cfg, xi)
            assert outage_j.shape == (len(q),)
            assert np.array_equal(outage[:, j], outage_j) and np.array_equal(avg, avg_j)

    def test_subnormal_kappa_scores_quietly_as_kappa_zero(self, baseline):
        # a subnormal LoS scale overflows gamma_th / scale to inf: outage term 1, as at
        # kappa = 0 for any positive target (at target 0 only kappa = 0 makes it an atom)
        tiny, zero = replace(baseline, rician_k=5e-324), replace(baseline, rician_k=0.0)
        q = allocation_array(tiny.n_p, tiny.num_paths)
        targets = np.array([0.5, 1.0, 4.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outage, avg = score_allocations(q, tiny, targets)
            scalar = [outage_probability(PanelAllocation(tuple(r)), tiny, 1.0) for r in q.tolist()]
        outage_zero, avg_zero = score_allocations(q, zero, targets)
        assert np.array_equal(outage, outage_zero)
        assert scalar == [outage_probability(PanelAllocation(tuple(r)), zero, 1.0) for r in q.tolist()]
        # the mean RSNR differs from kappa = 0 only by the subnormal LoS term
        np.testing.assert_allclose(avg, avg_zero, rtol=0.0, atol=1e-300)

    @pytest.mark.parametrize("target", [-1.0, float("nan"), [1.0, -0.5], [0.0, float("nan")]])
    def test_rejects_negative_or_nan_targets(self, baseline, target):
        with pytest.raises(ConfigurationError):
            score_allocations(allocation_array(8, 4), baseline, target)
