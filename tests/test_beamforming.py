import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from panelalloc import (
    ConfigurationError,
    PanelAllocation,
    SystemConfig,
    allocation_array,
    average_rsnr,
    beam_hpbw_deg,
    beam_pattern,
    build_beamformer,
    equivalent_array_response_approx,
    equivalent_array_response_exact,
    los_concentration,
    outage_probability,
    rsnr_mixture,
    run_trials,
    sample_channel,
    uniform_allocation,
    validate_allocation,
)
from util import array_response, pattern_energy


class TestArrayResponse:
    """The steering-vector oracle of tests/util.py."""

    def test_single_element(self):
        np.testing.assert_array_equal(array_response(1, 1.234), [1.0 + 0j])

    def test_broadside_two_elements(self):
        np.testing.assert_allclose(array_response(2, np.pi / 2), [1.0, 1.0], atol=1e-12)

    def test_endfire_alternating(self):
        np.testing.assert_allclose(array_response(4, 0.0), [1, -1, 1, -1], atol=1e-12)


class TestPanelAllocation:
    def test_beam_count(self):
        assert PanelAllocation((3, 0, 5, 0)).n_b == 2
        assert PanelAllocation((1, 1, 1, 1)).n_b == 4

    @pytest.mark.parametrize("q", [(), (0, 0, 0), (-1, 9), (1.5, 2)])
    def test_invalid_allocations(self, q):
        with pytest.raises(ConfigurationError):
            PanelAllocation(q)


class TestValidateAllocation:
    @pytest.mark.parametrize("q", [(4, 4), (4, 1, 1, 1), (2, 2, 2, 1, 1)], ids=str)
    def test_every_entry_point_raises_configuration_error(self, baseline, q):
        # one check, one exception type, whichever way the allocation is off
        alloc = PanelAllocation(q)
        aods = np.linspace(0.3, 2.8, baseline.num_paths)
        calls = [
            lambda: validate_allocation(alloc, baseline),
            lambda: build_beamformer(alloc, aods, baseline),
            lambda: rsnr_mixture(alloc, baseline),
            lambda: outage_probability(alloc, baseline, 1.0),
            lambda: average_rsnr(alloc, baseline),
            lambda: run_trials(baseline, alloc, aods, "idealized", 10, 0),
        ]
        for call in calls:
            with pytest.raises(ConfigurationError, match="does not match"):
                call()


class TestBuildBeamformer:
    def test_los_concentration_is_full_array_steering(self, baseline, rng):
        aods = sample_channel(baseline, rng=rng).aods
        f = build_beamformer(los_concentration(baseline), aods, baseline)
        expected = array_response(baseline.n_t, aods[0]) / np.sqrt(baseline.n_t)
        np.testing.assert_allclose(f, expected, atol=1e-12)

    def test_entries_have_unit_modulus(self, baseline, rng):
        aods = sample_channel(baseline, rng=rng).aods
        f = build_beamformer(PanelAllocation((3, 1, 2, 2)), aods, baseline)
        np.testing.assert_allclose(np.abs(f), 1 / np.sqrt(baseline.n_t), atol=1e-12)

    def test_coherent_gain(self, baseline, rng):
        aods = sample_channel(baseline, rng=rng).aods
        f = build_beamformer(los_concentration(baseline), aods, baseline)
        gain = np.abs(array_response(baseline.n_t, aods[0]).conj() @ f)
        assert gain == pytest.approx(np.sqrt(baseline.n_t), rel=1e-12)

    def test_length_and_sum_mismatch(self, baseline, rng):
        aods = sample_channel(baseline, rng=rng).aods
        with pytest.raises(ConfigurationError):
            build_beamformer(PanelAllocation((4, 4)), aods, baseline)
        with pytest.raises(ConfigurationError):
            build_beamformer(PanelAllocation((4, 1, 1, 1)), aods, baseline)

    @given(
        q=st.lists(st.integers(0, 4), min_size=2, max_size=5),
        n_a=st.sampled_from([2, 4, 8]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_unit_norm_for_any_allocation(self, q, n_a, seed):
        total = sum(q)
        if total == 0 or q[0] == 0:
            q = [1] + q[1:]
            total = sum(q)
        cfg = SystemConfig(n_a=n_a, n_p=total, num_paths=len(q))
        aods = np.random.default_rng(seed).uniform(0, np.pi, len(q))
        f = build_beamformer(PanelAllocation(tuple(q)), aods, cfg)
        assert np.vdot(f, f).real == pytest.approx(1.0, abs=1e-12)


class TestBeamPattern:
    def test_peak_at_los_equals_sqrt_nt(self, baseline, rng):
        aods = sample_channel(baseline, rng=rng).aods
        f = build_beamformer(los_concentration(baseline), aods, baseline)
        assert beam_pattern(f, aods[:1])[0] == pytest.approx(np.sqrt(baseline.n_t), rel=1e-12)

    def test_three_lobe_pattern(self):
        # 6 panels of 32 split over 3 paths: each lobe reaches q_l N_a / sqrt(N_t)
        cfg = SystemConfig(n_a=32, n_p=6, num_paths=3)
        aods = np.radians([60.0, 90.0, 120.0])
        f = build_beamformer(PanelAllocation((2, 2, 2)), aods, cfg)
        expected = 2 * 32 / np.sqrt(192)
        np.testing.assert_allclose(beam_pattern(f, aods), expected, rtol=1e-12)
        grid = np.linspace(0, np.pi, 4001)
        pat = beam_pattern(f, grid)
        for theta in aods:
            near = np.abs(grid - theta) < np.radians(3.0)
            assert pat[near].max() == pytest.approx(expected, rel=2e-3)
        assert pat.max() < 1.02 * expected

    def test_matches_steering_oracle(self, baseline, rng):
        aods = sample_channel(baseline, rng=rng).aods
        f = build_beamformer(PanelAllocation((3, 1, 2, 2)), aods, baseline)
        grid = np.linspace(0.0, np.pi, 181)
        expected = [abs(array_response(baseline.n_t, theta).conj() @ f) for theta in grid]
        np.testing.assert_allclose(beam_pattern(f, grid), expected, rtol=1e-12, atol=1e-12)

    def test_empty_grid_rejected(self, baseline, rng):
        aods = sample_channel(baseline, rng=rng).aods
        f = build_beamformer(los_concentration(baseline), aods, baseline)
        with pytest.raises(ValueError):
            beam_pattern(f, np.array([]))

    def test_pattern_energy_equals_total_elements(self, baseline, rng):
        # quadrature over u = cos(theta): (N_t/2) int |a^H f|^2 du = N_t ||f||^2
        aods = sample_channel(baseline, rng=rng).aods
        f = build_beamformer(PanelAllocation((3, 1, 2, 2)), aods, baseline)
        assert pattern_energy(f) == pytest.approx(baseline.n_t, rel=1e-6)


class TestEquivalentResponse:
    def test_single_path_concentration(self, baseline, rng):
        aods = sample_channel(baseline, rng=rng).aods
        f = build_beamformer(los_concentration(baseline), aods, baseline)
        a_eq = equivalent_array_response_exact(aods, f)
        assert np.abs(a_eq[0]) == pytest.approx(np.sqrt(baseline.n_t), rel=1e-12)

    def test_beamspace_offsets_are_exact_nulls(self, baseline):
        # angles spaced by multiples of 2/N_t in cos(theta) are DFT-orthogonal
        cos0 = 0.21
        offsets = np.array([0, 5, -9, 40]) * 2.0 / baseline.n_t
        aods = np.arccos(cos0 + offsets)
        f = build_beamformer(los_concentration(baseline), aods, baseline)
        a_eq = equivalent_array_response_exact(aods, f)
        assert np.abs(a_eq[0]) == pytest.approx(np.sqrt(baseline.n_t), rel=1e-12)
        np.testing.assert_allclose(np.abs(a_eq[1:]), 0.0, atol=1e-9)

    def test_null_aligned_multibeam_matches_approximation(self, baseline):
        # cos spacing at multiples of 2/(q_l N_a) nulls every cross-lobe term
        alloc = uniform_allocation(baseline)
        spacing = 2.0 / (2 * baseline.n_a)
        aods = np.arccos(np.array([-1.5, -0.5, 0.5, 1.5]) * spacing)
        f = build_beamformer(alloc, aods, baseline)
        a_eq = equivalent_array_response_exact(aods, f)
        approx = equivalent_array_response_approx(alloc, baseline)
        np.testing.assert_allclose(np.abs(a_eq), approx, atol=1e-9)

    def test_error_statistics_over_random_geometries(self, baseline):
        # frozen oracle values: exact inner products vs the main-lobe
        # approximation over 1000 seeded geometries and random allocations.
        # Side-lobe leakage keeps the worst-case error at O(1) times
        # N_a/sqrt(N_t); the median is a stable regression quantity.
        rng = np.random.default_rng(2024)
        allocs = allocation_array(baseline.n_p, baseline.num_paths)
        unit = baseline.n_a / np.sqrt(baseline.n_t)
        errs = []
        for _ in range(1000):
            aods = sample_channel(baseline, rng=rng).aods
            alloc = PanelAllocation(tuple(allocs[rng.integers(len(allocs))].tolist()))
            f = build_beamformer(alloc, aods, baseline)
            a_eq = equivalent_array_response_exact(aods, f)
            approx = equivalent_array_response_approx(alloc, baseline)
            errs.append(np.max(np.abs(a_eq - approx)) / unit)
        errs = np.asarray(errs)
        assert np.median(errs) < 0.25
        assert errs.max() < 9.0

    def test_error_decreases_with_separation(self, baseline):
        # sweep of equally cos-spaced geometries at off-null spacings
        alloc = uniform_allocation(baseline)
        unit = baseline.n_a / np.sqrt(baseline.n_t)
        approx = equivalent_array_response_approx(alloc, baseline)
        errors = []
        for mult in (1, 3, 7, 15, 31, 63):
            spacing = mult * 2.0 / baseline.n_t
            aods = np.arccos((np.arange(4) - 1.5) * spacing)
            f = build_beamformer(alloc, aods, baseline)
            a_eq = equivalent_array_response_exact(aods, f)
            errors.append(np.max(np.abs(a_eq - approx)) / unit)
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert errors[0] > 1.0 and errors[-1] < 0.1


class TestCannedAllocations:
    def test_los_concentration(self, baseline):
        assert los_concentration(baseline).q == (8, 0, 0, 0)

    def test_uniform_even_split(self, baseline):
        assert uniform_allocation(baseline).q == (2, 2, 2, 2)

    def test_uniform_remainder_goes_first(self):
        assert uniform_allocation(SystemConfig(n_p=6, num_paths=4)).q == (2, 2, 1, 1)
        # fewer panels than paths: the first n_p paths get one panel each
        assert uniform_allocation(SystemConfig(n_p=2, num_paths=3)).q == (1, 1, 0)

    def test_beam_hpbw(self, baseline):
        hpbw = beam_hpbw_deg(PanelAllocation((2, 0, 1, 5)), baseline.n_a)
        assert hpbw[0] == pytest.approx(102.0 / 64)
        assert np.isnan(hpbw[1])
        assert hpbw[3] == pytest.approx(102.0 / 160)
