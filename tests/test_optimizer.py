import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from panelalloc import (
    CapacityError,
    ConfigurationError,
    SystemConfig,
    allocation_array,
    g_los,
    los_concentration,
    maximize_average_se,
    optimize_outmin,
    optimize_outmin_ase,
    outage_probability,
    pattern_count,
    profile_array,
    rsnr_mixture,
    score_allocations,
    se_cdf,
    uniform_allocation,
)
from panelalloc import optimizer
from panelalloc.beamforming import PanelAllocation
from panelalloc.optimizer import outmin_reports
from util import composition_count, exhaustive_outmin, profile_count


def allocations(n_p, num_paths):
    """The candidate rows as PanelAllocation objects, in lexicographic order."""
    return [PanelAllocation(tuple(row)) for row in allocation_array(n_p, num_paths).tolist()]

class TestEnumeration:
    def test_single_panel(self):
        assert allocation_array(1, 2).tolist() == [[1, 0]]
        assert pattern_count(1, 2) == 1

    def test_baseline_count(self):
        assert pattern_count(8, 4) == 120
        assert allocation_array(8, 4).shape == (120, 4)

    @pytest.mark.parametrize("n_p", [1, 3, 7, 12])
    def test_two_paths_collapse(self, n_p):
        assert pattern_count(n_p, 2) == n_p
        assert len(allocation_array(n_p, 2)) == n_p

    def test_closed_form_matches_recursion_everywhere(self):
        for n_p in range(1, 17):
            for L in range(2, 9):
                assert pattern_count(n_p, L) == composition_count(n_p, L, 1)

    def test_lexicographic_order_and_constraints(self):
        qs = [tuple(row) for row in allocation_array(6, 3).tolist()]
        assert qs == sorted(qs)
        assert len(set(qs)) == len(qs)
        assert all(sum(q) == 6 and q[0] >= 1 for q in qs)

    @given(n_p=st.integers(1, 14), num_paths=st.integers(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_array_matches_recursion_and_is_sorted(self, n_p, num_paths):
        q = allocation_array(n_p, num_paths)
        assert q.shape == (composition_count(n_p, num_paths, 1), num_paths)
        rows = [tuple(row) for row in q.tolist()]
        assert rows == sorted(set(rows))  # lexicographic and free of duplicates
        assert np.all(q >= 0) and np.all(q.sum(axis=1) == n_p)
        assert np.all(q[:, 0] >= 1)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            allocation_array(64, 8)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            pattern_count(0, 4)
        with pytest.raises(ConfigurationError):
            pattern_count(8, 1)


class TestProfiles:
    def test_counts(self):
        for (n_p, L), count in {(8, 4): 31, (16, 6): 408, (16, 8): 564}.items():
            assert profile_array(n_p, L).shape == (count, L)
            assert profile_count(n_p, L) == count

    @given(n_p=st.integers(1, 14), num_paths=st.integers(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_one_ascending_row_per_profile(self, n_p, num_paths):
        q = profile_array(n_p, num_paths)
        rows = [tuple(row) for row in q.tolist()]
        assert all(a < b for a, b in zip(rows, rows[1:]))  # strictly lexicographic
        assert np.all(np.diff(q[:, 1:], axis=1) >= 0)
        assert np.all(q >= 0) and np.all(q.sum(axis=1) == n_p)
        assert np.all(q[:, 0] >= 1)
        compositions = allocation_array(n_p, num_paths).tolist()
        assert set(rows) == {(c[0], *sorted(c[1:])) for c in compositions}
        assert len(rows) == profile_count(n_p, num_paths)

    def test_capacity_guard_covers_profiles(self):
        with pytest.raises(CapacityError):
            profile_array(64, 8)


class TestMaximizeAverageSe:
    def test_baseline_concentrates_on_los(self, baseline):
        # p_blk = 1 zeroes every mean RSNR: the scan ties exactly, and the
        # closed form still holds as one of the tied maximizers
        for config in (baseline, SystemConfig(p_min=1.0, p_max=1.0)):
            assert maximize_average_se(config).q == (8, 0, 0, 0)

    def test_brute_force_agrees(self, baseline):
        from panelalloc.analytic import average_rsnr

        best = max(
            allocations(baseline.n_p, baseline.num_paths),
            key=lambda a: average_rsnr(a, baseline),
        )
        assert best.q == maximize_average_se(baseline).q

    @pytest.mark.parametrize("n_p, num_paths", [(64, 8), (32, 12)])
    def test_closed_form_past_the_search_limit(self, n_p, num_paths):
        # 1.2e9 and 4.3e9 compositions: a search there raises CapacityError
        config = SystemConfig(n_p=n_p, num_paths=num_paths)
        with pytest.raises(CapacityError):
            profile_array(n_p, num_paths)
        assert maximize_average_se(config) == los_concentration(config)
        assert maximize_average_se(config).q == (n_p,) + (0,) * (num_paths - 1)

    def test_dominant_los_builds_no_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("kappa (L-1) > 1 needs no scored table")

        monkeypatch.setattr(optimizer, "outmin_reports", no_table)
        grid = itertools.product((1, 2, 7, 16, 64), (2, 3, 4, 8, 12), (0.3, 0.6, 1.01, 3.0, 1e6))
        cases = [(n_p, L, kappa) for n_p, L, kappa in grid if kappa * (L - 1) > 1.0]
        assert len(cases) == 5 * (3 + 4 + 4 + 5 + 5)  # n_p x the dominant (L, kappa)
        for (n_p, num_paths, kappa), p_blk in itertools.product(cases, (0.0, 0.4, 1.0)):
            config = SystemConfig(
                n_p=n_p, num_paths=num_paths, rician_k=kappa, p_min=p_blk, p_max=p_blk
            )
            assert maximize_average_se(config) == los_concentration(config)

    @pytest.mark.parametrize("n_p", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("num_paths", [2, 3, 4, 5])
    def test_bound_holds_just_past_the_regime_edge(self, n_p, num_paths):
        # kappa (L-1) = 1 + 1e-9: every composition's mean RSNR, scored by brute
        # force, is strictly below LoS concentration's, the last lexicographic row
        config = SystemConfig(n_p=n_p, num_paths=num_paths, rician_k=(1 + 1e-9) / (num_paths - 1))
        q = allocation_array(n_p, num_paths)
        means = score_allocations(q, config, 0.0)[1]
        assert np.all(means[:-1] < means[-1])
        assert q[-1].tolist() == list(maximize_average_se(config).q)

    def test_weak_los_falls_back_to_scan(self):
        cfg = SystemConfig(rician_k=0.2)
        with pytest.warns(UserWarning, match="better of the two endpoint allocations"):
            chosen = maximize_average_se(cfg)
        # objective 0.6 q1^2 + sum q_l^2: best is one LoS panel plus a single
        # 7-panel NLoS beam; ties resolve to the lexicographically smallest
        assert chosen.q == (1, 0, 0, 7)

    @pytest.mark.parametrize("n_p, num_paths, kappa", [(64, 8, 0.1), (32, 12, 0.05)])
    def test_weak_los_past_the_search_limit(self, n_p, num_paths, kappa):
        # kappa (L-1) = 0.7 and 0.55: the spread (1, 0, ..., 0, N_p - 1) wins, with no table
        config = SystemConfig(n_p=n_p, num_paths=num_paths, rician_k=kappa)
        with pytest.warns(UserWarning, match="better of the two endpoint allocations"):
            chosen = maximize_average_se(config)
        assert chosen.q == (1,) + (0,) * (num_paths - 2) + (n_p - 1,)

    def test_weak_los_builds_no_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("the mean-RSNR maximizer scores two endpoints, not a table")

        monkeypatch.setattr(optimizer, "outmin_reports", no_table)
        grid = itertools.product((1, 2, 3, 5, 8), (2, 3, 4, 5), (0.0, 0.4, 1.0))
        for n_p, num_paths, p_blk in grid:
            edge = np.nextafter(1.0 / (num_paths - 1), 0.0)  # just below the regime edge
            for kappa in (0.0, 1e-300, 0.3 * edge, edge):
                config = SystemConfig(
                    n_p=n_p, num_paths=num_paths, rician_k=kappa, p_min=p_blk, p_max=p_blk
                )
                q = allocation_array(n_p, num_paths)
                means = score_allocations(q, config, 0.0)[1]
                best = q[np.flatnonzero(means == means.max())[0]]  # smallest argmax
                with pytest.warns(UserWarning, match="better of the two endpoint allocations"):
                    chosen = maximize_average_se(config)
                assert chosen.q == tuple(best.tolist()), (n_p, num_paths, kappa, p_blk)


class TestOutMin:
    def test_high_target_single_sharp_beam(self, baseline):
        assert optimize_outmin(baseline, 8.0).chosen.q == (8, 0, 0, 0)

    def test_low_target_favors_nlos(self, baseline):
        report = optimize_outmin(baseline, 0.5)
        assert report.chosen.q == (1, 2, 2, 3)
        assert report.chosen.n_b >= 2
        assert report.chosen.q[0] < max(report.chosen.q[1:])

    def test_ties_resolve_to_smallest_allocation(self, baseline):
        # (1,2,2,3), (1,2,3,2) and (1,3,2,2) permute equal-variance NLoS paths,
        # so they tie exactly on outage and mean; the docstring picks the smallest
        report = optimize_outmin(baseline, 1.5)
        assert report.chosen.q == (1, 2, 2, 3)
        q = allocation_array(baseline.n_p, baseline.num_paths)
        outages, avgs = score_allocations(q, baseline, 1.5)
        members = (q[:, 0] == 1) & np.all(np.sort(q[:, 1:], axis=1) == [2, 2, 3], axis=1)
        assert members.sum() == 3
        tied = set(zip(outages[members].tolist(), avgs[members].tolist()))
        assert tied == {(report.outage, report.avg_rsnr)}

    def test_zero_target_ties_on_the_atom(self, baseline):
        # at SE 0 the outage is the atom p_blk^n_b, equal for every four-beam
        # allocation; the higher mean RSNR breaks the tie
        report = optimize_outmin(baseline, 0.0)
        assert report.chosen.q == (5, 1, 1, 1)
        assert report.outage == pytest.approx(0.4**4, abs=1e-15)

    def test_regime_switch_threshold(self, baseline):
        # frozen regression: the single-beam regime begins at xi ~ 5.4462
        assert optimize_outmin(baseline, 5.446).chosen.n_b > 1
        assert optimize_outmin(baseline, 5.447).chosen.q == (8, 0, 0, 0)

    def test_never_worse_than_canned_methods(self, baseline):
        for xi in np.linspace(0.25, 8.0, 12):
            report = optimize_outmin(baseline, float(xi))
            assert report.outage <= outage_probability(los_concentration(baseline), baseline, float(xi)) + 1e-15
            assert report.outage <= outage_probability(uniform_allocation(baseline), baseline, float(xi)) + 1e-15

    def test_outage_monotone_in_target(self, baseline):
        grid = np.linspace(0.25, 8.0, 24)
        outages = [optimize_outmin(baseline, float(xi)).outage for xi in grid]
        assert all(b >= a - 1e-15 for a, b in zip(outages, outages[1:]))

    def test_report_is_consistent(self, baseline):
        # the report holds the searched table: one row per profile, not the 120 compositions
        report = optimize_outmin(baseline, 2.0)
        qs = [alloc.q for alloc, _, _ in report.candidates]
        assert report.chosen.q in qs
        assert len(report.candidates) == profile_count(baseline.n_p, baseline.num_paths) == 31
        assert report.outage == min(outage for _, outage, _ in report.candidates)
        assert report.g_los == report.chosen.q[0] / baseline.n_p

    @given(
        seed=st.integers(0, 2**31),
        xi=st.floats(0.01, 9.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_optimality_certificate(self, seed, xi):
        # independent second pass: no candidate beats the reported optimum
        gen = np.random.default_rng(seed)
        p_lo, p_hi = np.sort(gen.uniform(0.05, 0.95, size=2))
        cfg = SystemConfig(
            n_a=int(gen.integers(8, 64)),
            n_p=int(gen.integers(2, 10)),
            num_paths=int(gen.integers(2, 6)),
            rician_k=float(gen.uniform(0.5, 30.0)),
            tx_snr=float(gen.uniform(1.0, 100.0)),
            p_min=float(p_lo),
            p_max=float(p_hi),
        )
        report = optimize_outmin(cfg, xi)
        for alloc in allocations(cfg.n_p, cfg.num_paths):
            assert outage_probability(alloc, cfg, xi) >= report.outage - 1e-15


class TestScale:
    def test_sixteen_panels_eight_paths(self):
        # 564 profiles stand for 170,544 compositions; a seeded subsample of the
        # compositions is rescored, and each matches its profile's row
        cfg = SystemConfig(n_p=16, num_paths=8)
        xi = 1.0
        report = optimize_outmin(cfg, xi)
        assert report.allocations.shape == (profile_count(16, 8), 8) == (564, 8)
        assert report.outage == report.outages.min()
        row_of = {tuple(q): i for i, q in enumerate(report.allocations.tolist())}
        compositions = allocation_array(16, 8)
        assert len(compositions) == pattern_count(16, 8) == 170_544
        outages, avgs = score_allocations(compositions, cfg, xi)
        rows = np.random.default_rng(2025).choice(len(compositions), 200, replace=False)
        for c in rows:
            q = compositions[c].tolist()
            i = row_of[(q[0], *sorted(q[1:]))]
            assert outages[c] == report.outages[i] and avgs[c] == report.avg_rsnrs[i]
            alloc = PanelAllocation(tuple(q))
            outage = outage_probability(alloc, cfg, xi)
            assert report.outages[i] == pytest.approx(outage, rel=0.0, abs=1e-12)
            mixture_outage = float(se_cdf(rsnr_mixture(alloc, cfg), xi))
            assert report.outages[i] == pytest.approx(mixture_outage, rel=0.0, abs=1e-12)


class TestExhaustiveOracle:
    """Profile search against exhaustive search over every composition."""

    @given(
        seed=st.integers(0, 2**31),
        kappa=st.sampled_from([0.0, 10.0]) | st.floats(0.0, 50.0),
        p_range=st.sampled_from([(0.0, 0.0), (1.0, 1.0)])
        | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
        xi=st.sampled_from([0.0]) | st.floats(0.0, 9.0),
        epsilon=st.sampled_from([0.0, 0.05, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    @example(seed=1, kappa=0.0, p_range=(0.0, 0.0), xi=0.0, epsilon=0.0)
    @example(seed=2, kappa=0.0, p_range=(1.0, 1.0), xi=1.5, epsilon=0.05)
    @example(seed=3, kappa=10.0, p_range=(1.0, 1.0), xi=0.0, epsilon=1.0)
    @example(seed=4, kappa=10.0, p_range=(0.0, 0.0), xi=4.0, epsilon=0.05)
    def test_bit_equal_choice(self, seed, kappa, p_range, xi, epsilon):
        gen = np.random.default_rng(seed)
        cfg = SystemConfig(
            n_a=int(gen.integers(2, 64)),
            n_p=int(gen.integers(1, 11)),  # n_p < L happens
            num_paths=int(gen.integers(2, 7)),
            rician_k=kappa,
            tx_snr=float(gen.uniform(0.5, 100.0)),
            p_min=float(p_range[0]),
            p_max=float(p_range[1]),
        )
        report = optimize_outmin_ase(cfg, xi, epsilon)
        expected = exhaustive_outmin(cfg, xi, epsilon)
        assert (report.chosen, report.outage, report.avg_rsnr) == expected
        report = optimize_outmin(cfg, xi)
        assert (report.chosen, report.outage, report.avg_rsnr) == exhaustive_outmin(cfg, xi, 0.0)

    def test_grid_reports_equal_single_queries(self, baseline):
        grid = np.linspace(0.0, 8.0, 9)
        epsilons = [0.0, 0.05, 1.0]
        reports = outmin_reports(baseline, grid, epsilons)
        assert [len(row) for row in reports] == [len(grid)] * len(epsilons)
        for epsilon, row in zip(epsilons, reports):
            for xi, report in zip(grid.tolist(), row):
                single = optimize_outmin_ase(baseline, xi, epsilon)
                assert (report.chosen, report.outage, report.avg_rsnr) == (
                    single.chosen, single.outage, single.avg_rsnr
                )
                assert np.array_equal(report.outages, single.outages)


class TestOutMinAse:
    def test_zero_slack_keeps_minimum_outage(self, baseline):
        for xi in (0.5, 1.0, 3.0, 6.0):
            base = optimize_outmin(baseline, xi)
            tight = optimize_outmin_ase(baseline, xi, 0.0)
            assert tight.outage == base.outage
            assert tight.chosen == base.chosen

    def test_baseline_shifts_panels_to_los(self, baseline):
        base = optimize_outmin(baseline, 1.0)
        relaxed = optimize_outmin_ase(baseline, 1.0, 0.05)
        assert relaxed.chosen.q == (4, 0, 2, 2)
        assert relaxed.chosen.q[0] > base.chosen.q[0]
        assert relaxed.avg_rsnr >= base.avg_rsnr

    def test_full_slack_recovers_average_se_maximizer(self, baseline):
        report = optimize_outmin_ase(baseline, 1.0, 1.0)
        assert report.chosen.q == maximize_average_se(baseline).q

    def test_epsilon_validation(self, baseline):
        with pytest.raises(ConfigurationError):
            optimize_outmin_ase(baseline, 1.0, -0.01)
        with pytest.raises(ConfigurationError):
            optimize_outmin_ase(baseline, 1.0, 1.01)

    @given(
        xi=st.floats(0.05, 8.0),
        epsilon=st.floats(0.0, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_feasibility_invariant(self, baseline, xi, epsilon):
        base = optimize_outmin(baseline, xi)
        report = optimize_outmin_ase(baseline, xi, epsilon)
        assert report.outage - base.outage <= epsilon + 1e-12
        assert report.avg_rsnr >= base.avg_rsnr


class TestGLos:
    def test_values(self):
        assert g_los(PanelAllocation((8, 0, 0, 0))) == 1.0
        assert g_los(PanelAllocation((2, 2, 2, 2))) == 0.25

    def test_nonmonotone_over_target_sweep(self, baseline):
        # Alg-2 G_LoS dips while NLoS beams matter, then returns to 1
        grid = np.linspace(0.25, 8.0, 33)
        curve = [optimize_outmin_ase(baseline, float(xi), 0.05).g_los for xi in grid]
        first, low, last = curve[0], min(curve), curve[-1]
        assert low < first
        assert last == 1.0
        assert curve.index(low) not in (0, len(curve) - 1)
