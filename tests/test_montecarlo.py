import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    run_batches,
    run_trials,
    sample_channel,
    se_cdf,
    uniform_allocation,
)
from panelalloc import montecarlo
from panelalloc.channel import _row_sum
from panelalloc.montecarlo import CHUNK_TRIALS, MODES, TrialBatchResult
from util import (
    blockage_pattern_se_cdf,
    fill_se,
    fresh_python,
    realistic_se_cdf,
    serial_channel_power,
    serial_rsnr,
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


@st.composite
def law_cases(draw):
    """(config, allocation, seed): n_a <= 32, n_p <= 8, L <= 5, kappa = 0 or in [10^-6, 10^3],
    blockage U(p, min(1, p + w)) for p in {0, 0.1, ..., 1} and w in {0, 0.4}, and q_1 = 0
    allowed.

    Below kappa ~ 1e-14 a LoS-only allocation's RSNR scale nears 2^-53, under which
    log2(1 + gamma) would round to 0; ``test_sub_ulp_rsnr_reads_as_zero_se`` pins that
    case, so the drawn kappa stays 8 decades above it."""
    n_p, L = draw(st.integers(1, 8)), draw(st.integers(2, 5))
    p = draw(st.integers(0, 10)) / 10.0
    config = SystemConfig(
        n_a=draw(st.integers(1, 32)),
        n_p=n_p,
        num_paths=L,
        rician_k=draw(st.sampled_from([0.0]) | st.floats(1e-6, 1e3)),
        p_min=p,
        p_max=min(1.0, p + draw(st.sampled_from([0.0, 0.4]))),
    )
    cuts = sorted(draw(st.lists(st.integers(0, n_p), min_size=L - 1, max_size=L - 1)))
    q = np.diff([0, *cuts, n_p])
    return config, PanelAllocation(tuple(q.tolist())), draw(st.integers(0, 2**32 - 1))


class TestExactLawAgreement:
    """Monte Carlo against the exact law in both modes, across the configuration space.

    Twenty derandomized cases, plus two pinned ones at p = 1 and p = 0 with
    q_1 = 0, each simulate 10^5 frames of one allocation at AoDs drawn without a
    spacing demand, counting its SE at 128 grid points spread over every RSNR
    scale up to tx_snr n_a^2 n_p. Idealized counts are compared with
    se_cdf(rsnr_mixture) and realistic ones with tests/util.realistic_se_cdf.
    By the DKW inequality, P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2), so the
    band eps = sqrt(ln(2 / alpha) / (2 n)) = 0.0085 is crossed with probability
    at most alpha = 1e-6 per mode and case. The 22 cases make 44 comparisons,
    a family-wise false-alarm rate of at most 4.4e-5.
    """

    TRIALS = 10**5
    ALPHA = 1e-6

    @given(case=law_cases())
    @example(case=(SystemConfig(n_a=8, n_p=4, num_paths=3, p_min=1.0, p_max=1.0),
                   PanelAllocation((0, 3, 1)), 7))
    @example(case=(SystemConfig(n_a=16, n_p=6, num_paths=4, p_min=0.0, p_max=0.0),
                   PanelAllocation((0, 2, 2, 2)), 11))
    @settings(max_examples=20, derandomize=True, deadline=None)
    def test_counts_within_dkw_band(self, case):
        config, alloc, seed = case
        aods = np.random.default_rng(seed).uniform(0.0, np.pi, config.num_paths)
        top = config.tx_snr * config.n_a**2 * config.n_p
        grid = np.r_[0.0, np.log2(1.0 + top * np.geomspace(1e-6, 1.0, 127))]
        results = run_batches(
            config, [alloc], aods, self.TRIALS, seed, se_grid=grid, keep_samples=False
        )
        exact = {
            "idealized": se_cdf(rsnr_mixture(alloc, config), grid),
            "realistic": realistic_se_cdf(config, alloc, aods, grid),
        }
        band = math.sqrt(math.log(2.0 / self.ALPHA) / (2.0 * self.TRIALS))
        for mode, law in exact.items():
            gap = np.max(np.abs(results[mode, alloc.q].cdf_counts / self.TRIALS - law))
            assert gap < band, (mode, gap / band)

    def test_sub_ulp_rsnr_reads_as_zero_se(self):
        # LoS only, with an RSNR scale of 1.2e-261: the exact law has no atom at
        # SE = 0, so log2(1 + gamma) and 2^SE - 1, which round such an SE and gamma
        # to 0, would make every sample the atom and the KS distance 1
        config = SystemConfig(n_a=1, n_p=1, num_paths=2, rician_k=1.2342128396670148e-262,
                              p_min=0.0, p_max=0.0)
        alloc = PanelAllocation((1, 0))
        result = run_trials(config, alloc, np.array([0.5, 2.0]), "idealized", 1000, 0)
        assert ks_distance(result, lambda se: se_cdf(rsnr_mixture(alloc, config), se)) < 0.1


class TestEmpiricalQueries:
    def test_outage_at_zero_target_counts_nothing(self, baseline, aods):
        result = run_trials(baseline, los_concentration(baseline), aods, "idealized", 10**4, 2)
        assert empirical_outage(result, 0.0) == 0.0

    def test_nan_target_rejected(self, baseline, aods):
        result = run_trials(baseline, los_concentration(baseline), aods, "idealized", 100, 2)
        with pytest.raises(ValueError, match="NaN"):
            empirical_outage(result, np.nan)

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
        alloc = uniform_allocation(baseline)
        grid = np.linspace(-1.0, 15.0, 300)
        result = run_batches(
            baseline, [alloc], aods, 10**4, 23, ("idealized",), se_grid=grid, keep_samples=False
        )["idealized", alloc.q]
        values = result.cdf_counts / result.trials
        assert np.all(np.diff(values) >= 0)
        assert values[0] == 0.0 and values[-1] == 1.0


class TestChannelPower:
    @pytest.mark.parametrize("mode", ["idealized", "realistic"])
    def test_run_trials_is_log2_of_scaled_power(self, baseline, aods, mode):
        n = CHUNK_TRIALS + 17  # cross a chunk boundary
        alloc = PanelAllocation((2, 1, 2, 3))
        rsnr = serial_rsnr(baseline, alloc, aods, mode, n, 41)
        expected = fill_se(rsnr)
        result = run_trials(baseline, alloc, aods, mode, n, 41)
        assert result.se_samples.tobytes() == expected.tobytes()
        # each mean sums the chunks' sums, in trial order, over n
        assert result.mean_se == _block_mean(expected)
        assert result.mean_rsnr == _block_mean(rsnr)
        assert abs(result.mean_se - expected.mean()) <= 4 * math.ulp(expected.mean())
        assert abs(result.mean_rsnr - rsnr.mean()) <= 4 * math.ulp(rsnr.mean())
        # the draws ignore tx_snr; it enters through the power column P
        louder = replace(baseline, tx_snr=40.0)
        got = run_trials(louder, alloc, aods, mode, n, 41)
        loud = serial_rsnr(louder, alloc, aods, mode, n, 41)
        assert got.se_samples.tobytes() == fill_se(loud).tobytes()
        assert got.mean_rsnr == _block_mean(loud)
        assert not np.array_equal(loud, rsnr)


def _two_sample_ks(x, y) -> float:
    """sup |F_x - F_y| of two samples, both empirical CDFs taken at every distinct value."""
    x, y = np.sort(x), np.sort(y)
    at = np.unique(np.r_[x, y])
    fx = np.searchsorted(x, at, side="right") / x.size
    fy = np.searchsorted(y, at, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


class TestConditionalLaw:
    """The library's one-E-per-frame sampler against the physical law.

    ``tests/util.serial_channel_power`` draws 2L standard normals per frame
    as path gains and sums the paths' complex terms; the library draws one
    Exp(1) value per frame. Their SE samples, from independent seeds, are
    compared by the two-sample KS distance. By the DKW inequality each
    empirical CDF is within eps = sqrt(ln(4 / alpha) / (2 n)) of the common
    law but with probability alpha / 2, so the distance exceeds 2 eps with
    probability at most alpha = 1e-6 per case and mode.
    """

    TRIALS = 1 << 17
    ALPHA = 1e-6

    @pytest.mark.parametrize(
        "q, n_a, kappa, p_min, p_max",
        [
            ((2, 1, 2, 3), 32, 10.0, 0.2, 0.6),
            ((1, 2, 2, 3), 32, 0.0, 0.2, 0.6),
            ((3, 1, 0, 4), 3, 10.0, 0.2, 0.6),
            ((2, 1, 0, 1, 1, 0, 2, 1), 32, 10.0, 0.2, 0.6),
            ((4, 0, 2, 2), 32, 10.0, 0.0, 0.0),
            ((0, 3, 1), 8, 1.0, 1.0, 1.0),
            ((5, 1, 1, 1), 16, 1e3, 0.1, 0.9),
            ((1, 0, 1, 0), 4, 0.5, 0.4, 0.4),
            ((8, 0, 0, 0), 32, 10.0, 0.2, 0.6),
            # two groups of paths, and three with a last group of one path
            ((2, 1, 0, 1, 1, 0, 2, 1, 0, 1, 1, 2), 32, 10.0, 0.2, 0.6),
            ((2,) + (1, 0, 1, 1) * 4, 32, 10.0, 0.2, 0.6),
        ],
        ids=["baseline", "kappa0", "na3", "L8", "pblk0", "pblk1", "kappa1e3", "np_below_L",
             "los", "L12", "L17"],
    )
    def test_equals_gaussian_gain_law_in_distribution(self, q, n_a, kappa, p_min, p_max):
        config = SystemConfig(n_a=n_a, n_p=sum(q), num_paths=len(q), rician_k=kappa,
                              p_min=p_min, p_max=p_max)
        alloc = PanelAllocation(q)
        aods = np.random.default_rng(sum(q) * len(q)).uniform(0.0, np.pi, len(q))
        band = 2.0 * math.sqrt(math.log(4.0 / self.ALPHA) / (2.0 * self.TRIALS))
        for mode in MODES:
            got = run_trials(config, alloc, aods, mode, self.TRIALS, 5).se_samples
            power = serial_channel_power(config, alloc, aods, mode, self.TRIALS, 6)
            gap = _two_sample_ks(got, fill_se(config.tx_snr * power))
            assert gap < band, (mode, gap / band)


def _block_mean(values) -> float:
    """np.sum of the np.sums of chunks of CHUNK_TRIALS values (the last shorter), over n."""
    sums = [np.sum(values[a : a + CHUNK_TRIALS]) for a in range(0, values.size, CHUNK_TRIALS)]
    return float(np.sum(np.array(sums)) / values.size)


def _worker_scratch(config, mode) -> int:
    """Bytes of one worker's scratch, all rows sized to a chunk: the float E,
    uniform and SE rows (the SE column sorted in place for the grid counts),
    the bool accept row and one intp index row per group of 8 paths, and two
    more when a node is drawn (realistic mode, more than one group and
    p_min < p_max): the frames' node and the draw before it is resolved."""
    groups = -(-config.num_paths // 8)
    node = mode == "realistic" and groups > 1 and config.p_min < config.p_max
    return CHUNK_TRIALS * (8 + 8 + 8 + 1 + 8 * (groups + 2 * node))


class TestRowSum:
    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 63, 64, 65, 130])
    # rows: the columns summed, from one to far more than a group's 2^8 patterns
    @pytest.mark.parametrize("rows", [1, 7, 1 << 13])
    def test_equals_numpy_sum_bytewise(self, L, rows):
        # the pattern tables' terms: nonnegative floats over 16 decades
        gen = np.random.default_rng(L * rows)
        g = gen.standard_exponential((rows, L)) * 10.0 ** gen.uniform(-8, 8, (rows, L))
        g[1::5] = 0.0  # all-zero rows, none in a one-row g
        # numpy's running sum along the row: the paths added in path order
        expected = np.cumsum(g, axis=1)[:, -1]
        g = np.ascontiguousarray(g.T)  # path-major (L, rows), as the table build holds it
        total = _row_sum(g)
        assert np.shares_memory(total, g)  # accumulated inside g
        assert np.ascontiguousarray(total).tobytes() == expected.tobytes()

    def test_negative_zero_sum_equals_numpy_in_value(self):
        # np.sum adds the row to +0, so it gives +0 where the columns give -0
        g = np.full((3, 5), -0.0)
        assert np.array_equal(_row_sum(g.T.copy()), np.sum(g, axis=1))


class TestThreadedFill:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "q, n_a",
        [
            ((8, 0, 0, 0), 32),
            ((4, 0, 2, 2), 32),
            ((1, 2, 2, 3), 32),
            # L = 9 and 13: two groups, the last of 1 and 5 paths, and a node row
            ((2, 1, 0, 1, 1, 0, 2, 1, 0), 32),
            ((3, 0, 1, 1, 0, 2, 1, 1, 0, 2, 1, 1, 3), 32),
            # L = 33 and 64: five and eight groups, 17 and 33 nodes in realistic mode
            ((2,) + (1, 0, 2, 1) * 8, 32),
            ((1, 0, 3) * 21 + (2,), 32),
            # n_a = 3: wider beams, so smaller eta and larger blocked amplitudes than at 32
            ((3, 1, 0, 4), 3),
        ],
        ids=[f"q{i}" for i in range(8)],
    )
    def test_equals_serial_chunk_loop_bytewise(self, baseline, mode, q, n_a):
        config = replace(baseline, n_p=sum(q), num_paths=len(q), n_a=n_a)
        aods = sample_channel(config, rng=np.random.default_rng(7)).aods
        alloc = PanelAllocation(q)
        # at wide L the serial replay is slow: one full chunk, then a 5-row one on
        # the second worker, cover a full chunk, a ragged one and both workers
        sizes = (1, CHUNK_TRIALS, 3 * CHUNK_TRIALS + 5) if len(q) < 32 else (1, CHUNK_TRIALS + 5)
        for n in sizes:
            for seed in (3, 2024):
                rsnr = serial_rsnr(config, alloc, aods, mode, n, seed)
                got = run_trials(config, alloc, aods, mode, n, seed)
                assert got.se_samples.tobytes() == fill_se(rsnr).tobytes(), (n, seed)
                assert got.mean_rsnr == _block_mean(rsnr), (n, seed)
        # the SE map takes neighbouring RSNRs to one SE; with tx_snr = 1 and one
        # trial, mean_rsnr is the frame's RSNR itself, so it is checked bytewise
        unit = replace(config, tx_snr=1.0)
        for seed in range(8):
            rsnr = serial_rsnr(unit, alloc, aods, mode, 1, seed)
            got = run_trials(unit, alloc, aods, mode, 1, seed).mean_rsnr
            assert np.float64(got).tobytes() == rsnr[0].tobytes(), seed

    @pytest.mark.parametrize("mode", MODES)
    def test_traced_peak_is_output_plus_worker_scratch(self, baseline, aods, mode):
        n = 3 * CHUNK_TRIALS
        workers = min(montecarlo._usable_cpus(), 3)
        alloc = uniform_allocation(baseline)
        run_trials(baseline, alloc, aods, mode, 10, 0)  # lazy imports happen outside the trace
        tracemalloc.start()
        try:
            run_trials(baseline, alloc, aods, mode, n, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n + workers * _worker_scratch(baseline, mode) + 2**20

    @pytest.mark.parametrize("modes", [("idealized",), MODES])
    def test_traced_peak_of_batch_is_outputs_plus_worker_scratch(self, baseline, aods, modes):
        n = 3 * CHUNK_TRIALS
        workers = min(montecarlo._usable_cpus(), 3)
        allocs = [
            uniform_allocation(baseline), los_concentration(baseline), PanelAllocation((1, 2, 2, 3))
        ]
        scratch = max(_worker_scratch(baseline, mode) for mode in modes)
        run_batches(baseline, allocs, aods, 10, 0, modes)  # lazy imports happen outside the trace
        tracemalloc.start()
        try:
            results = run_batches(baseline, allocs, aods, n, 9, modes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == len(allocs) * len(modes)
        assert peak < len(results) * 8 * n + workers * scratch + 2**20

    @pytest.mark.parametrize(
        "num_paths, n", [(4, 1 << 17), (4, 1 << 20), (64, 1 << 17)],
        ids=["131072", "1048576", "L64-131072"],
    )
    def test_traced_peak_of_counts_is_worker_scratch(self, baseline, aods, num_paths, n):
        # cdf's call: four designs in both modes, counted at a grid, no samples kept;
        # at 64 paths (two panels per path, as at the baseline) the scratch is 16 times wider
        config = replace(baseline, n_p=2 * num_paths, num_paths=num_paths)
        if num_paths != baseline.num_paths:
            aods = np.linspace(0.1, 3.0, num_paths)
        workers = min(montecarlo._usable_cpus(), n // CHUNK_TRIALS)
        allocs = [
            uniform_allocation(config), los_concentration(config),
            PanelAllocation((1, 2, 2, 3) * (num_paths // 4)),
            PanelAllocation((5, 1, 1, 1) * (num_paths // 4)),
        ]
        scratch = max(_worker_scratch(config, mode) for mode in MODES)
        grid = np.linspace(0.0, 10.0, 101)
        # lazy imports happen outside the trace
        run_batches(config, allocs, aods, 10, 0, se_grid=grid, keep_samples=False)
        tracemalloc.start()
        try:
            results = run_batches(config, allocs, aods, n, 9, se_grid=grid, keep_samples=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(r.se_samples is None for r in results.values())
        assert peak < workers * scratch + 2**20

    def test_more_workers_than_cores_equal_serial_chunk_loop(self, baseline, aods, monkeypatch):
        # five workers share every result array, each writing its own chunks'
        # slices and sums, and each adding to its own grid counts
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 5)
        allocs = [PanelAllocation((8, 0, 0, 0)), PanelAllocation((1, 2, 2, 3))]
        n = 5 * CHUNK_TRIALS + 7
        grid = np.linspace(0.0, 10.0, 101)
        outcome = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            caller = threading.Thread(
                target=lambda: outcome.append(
                    run_batches(baseline, allocs, aods, n, 6, MODES, se_grid=grid)
                ),
                daemon=True,
            )
            caller.start()
            caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not caller.is_alive() and len(outcome) == 1
        for (mode, q), result in outcome[0].items():
            rsnr = serial_rsnr(baseline, PanelAllocation(q), aods, mode, n, 6)
            expected = fill_se(rsnr)
            assert result.se_samples.tobytes() == expected.tobytes(), (mode, q)
            below = np.searchsorted(np.sort(expected), grid, side="right")
            assert result.cdf_counts.tobytes() == below.tobytes(), (mode, q)
            assert result.mean_se == _block_mean(expected), (mode, q)
            assert result.mean_rsnr == _block_mean(rsnr), (mode, q)

    def test_worker_exception_reaches_caller(self, baseline, aods, monkeypatch):
        chunk_rng = montecarlo._chunk_rng

        def failing_rng(seed, chunk_index, *stream):
            if chunk_index == 1:
                raise RuntimeError("chunk 1 failed")
            return chunk_rng(seed, chunk_index, *stream)

        monkeypatch.setattr(montecarlo, "_chunk_rng", failing_rng)
        outcome = []

        def call():
            try:
                outcome.append(
                    run_trials(
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

    def test_simulation_imports_no_thread_pool(self):
        code = (
            "import sys, numpy as np, panelalloc as pa\n"
            "c = pa.SystemConfig()\n"
            "aods = pa.sample_channel(c, rng=np.random.default_rng(1)).aods\n"
            # three chunks, so the other workers run on threads of their own
            f"pa.run_trials(c, pa.uniform_allocation(c), aods, 'idealized', {3 * CHUNK_TRIALS}, 1)\n"
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
        )
        assert fresh_python("-c", code).split() == ["[]"]


@st.composite
def batch_cases(draw):
    """A configuration, AoDs and allocations (zero entries and duplicates included)."""
    L = draw(st.integers(2, 8))
    n_p = draw(st.integers(1, 12))
    kappa = draw(st.sampled_from([0.0, 10.0]) | st.floats(0.0, 100.0))
    config = SystemConfig(n_a=8, n_p=n_p, num_paths=L, rician_k=kappa)
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    allocs = []
    for _ in range(draw(st.integers(1, 4))):
        cuts = np.sort(gen.integers(0, n_p + 1, size=L - 1))
        allocs.append(PanelAllocation(tuple(np.diff(np.r_[0, cuts, n_p]).tolist())))
    allocs += draw(st.lists(st.sampled_from(allocs), max_size=2))  # repeats
    return config, gen.uniform(0.0, math.pi, L), allocs


class TestRunBatches:
    @given(
        case=batch_cases(),
        modes=st.sampled_from([("idealized",), ("realistic",), MODES, MODES[::-1]]),
        # across the chunk boundaries, past two chunks, and a ragged last chunk
        n=st.sampled_from([1, CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1, 3 * CHUNK_TRIALS,
                           3 * CHUNK_TRIALS + 5])
        | st.integers(1, 10 * CHUNK_TRIALS),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_separate_run_trials_bytewise(self, case, modes, n, seed):
        config, aods, allocs = case
        batches = run_batches(config, allocs, aods, n, seed, modes)
        assert set(batches) == {(mode, alloc.q) for mode in modes for alloc in allocs}
        for (mode, q), got in batches.items():
            alone = run_trials(config, PanelAllocation(q), aods, mode, n, seed)
            assert got.se_samples.tobytes() == alone.se_samples.tobytes(), (mode, q)
            assert (got.mean_se, got.mean_rsnr) == (alone.mean_se, alone.mean_rsnr)
            assert (got.trials, got.seed, got.mode) == (n, seed, mode)

    @given(
        case=batch_cases(),
        modes=st.sampled_from([("idealized",), ("realistic",), MODES]),
        n=st.sampled_from(
            [1, CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1, 2 * CHUNK_TRIALS + 1,
             8 * CHUNK_TRIALS, 9 * CHUNK_TRIALS]
        )
        | st.integers(1, 10 * CHUNK_TRIALS),
        seed=st.integers(0, 2**31),
        all_blocked=st.booleans(),
        where=st.sampled_from(["samples", "below", "above"]),
        picks=st.integers(0, 50),
    )
    @settings(max_examples=30, deadline=None)
    def test_counts_equal_sorted_samples_searched_at_grid(
        self, case, modes, n, seed, all_blocked, where, picks
    ):
        config, aods, allocs = case
        if all_blocked:  # p_blk = 1 and kappa = 0: idealized SE is the atom at 0 alone
            config = replace(config, p_min=1.0, p_max=1.0, rician_k=0.0)
        first = run_batches(config, allocs, aods, n, seed, modes)
        values = np.concatenate([r.se_samples for r in first.values()])
        lo, hi = values.min(), values.max()
        if where == "below":
            grid = np.array([lo - 2.0, lo - 1.0, np.nextafter(lo, -np.inf)])
        elif where == "above":
            grid = np.array([hi, hi + 1.0, 2.0 * hi + 3.0])
        else:  # sample values themselves, the atom's 0, and points outside
            gen = np.random.default_rng(seed)
            grid = np.unique(np.r_[values[gen.integers(values.size, size=picks)], 0.0,
                                   lo - 1.0, hi + 1.0, gen.uniform(0.0, hi + 1.0, 5)])
        both = run_batches(config, allocs, aods, n, seed, modes, se_grid=grid)
        counts = run_batches(config, allocs, aods, n, seed, modes, se_grid=grid, keep_samples=False)
        for key, got in both.items():
            expected = np.searchsorted(np.sort(got.se_samples), grid, side="right")
            assert got.cdf_counts.tobytes() == expected.tobytes(), key
            assert counts[key].cdf_counts.tobytes() == expected.tobytes(), key
            assert counts[key].se_samples is None and first[key].cdf_counts is None
            assert got.se_samples.tobytes() == first[key].se_samples.tobytes(), key
            means = {(r.mean_se, r.mean_rsnr) for r in (first[key], got, counts[key])}
            assert means == {(_block_mean(got.se_samples), got.mean_rsnr)}, key
            if all_blocked and key[0] == "idealized":
                assert got.cdf_counts[grid == 0.0].tolist() == [n] * int(np.sum(grid == 0.0))

    def test_workers_do_not_change_samples_counts_or_means(self, baseline, aods, monkeypatch):
        allocs = [uniform_allocation(baseline), PanelAllocation((1, 2, 2, 3))]
        n = 5 * CHUNK_TRIALS + 3
        grid = np.linspace(0.0, 10.0, 101)
        outcomes = []
        for workers in (1, 2, 5):
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda w=workers: w)
            outcomes.append(run_batches(baseline, allocs, aods, n, 13, se_grid=grid))
        for key, result in outcomes[0].items():
            for other in outcomes[1:]:
                got = other[key]
                assert got.se_samples.tobytes() == result.se_samples.tobytes(), key
                assert got.cdf_counts.tobytes() == result.cdf_counts.tobytes(), key
                assert (got.mean_se, got.mean_rsnr) == (result.mean_se, result.mean_rsnr), key

    def test_validation(self, baseline, aods):
        alloc = los_concentration(baseline)
        for modes in ((), ("exact",), ("idealized", "exact")):
            with pytest.raises(ConfigurationError):
                run_batches(baseline, [alloc], aods, 10, 0, modes)
        with pytest.raises(ConfigurationError):
            run_batches(baseline, [], aods, 10, 0)
        with pytest.raises(ConfigurationError):
            run_batches(baseline, [alloc, PanelAllocation((1, 1, 1, 1))], aods, 10, 0)


def _batch(samples) -> TrialBatchResult:
    samples = np.asarray(samples, dtype=float)
    return TrialBatchResult(samples, float(samples.mean()), 0.0, samples.size, 0, "idealized")


def _tied_samples(gen, n, distinct, zero_share) -> np.ndarray:
    """n samples over `distinct` positive values, runs of ties included, plus a zero atom."""
    pool = np.sort(gen.exponential(2.0, distinct)) + 1e-3
    return np.where(gen.random(n) < zero_share, 0.0, gen.choice(pool, n))


class TestEmpiricalMetrics:
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(1, 5000),
        distinct=st.sampled_from([1, 2, 40]) | st.integers(1, 5000),
        zero_share=st.sampled_from([0.0, 0.4, 1.0]) | st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_sort_based_oracle(self, baseline, seed, n, distinct, zero_share):
        gen = np.random.default_rng(seed)
        samples = _tied_samples(gen, n, distinct, zero_share)
        result = _batch(samples)
        s = np.sort(samples)
        # every tied value, points between them, and both ends
        points = np.r_[-1.0, 0.0, np.unique(samples), np.unique(samples) + 1e-9, 1e3]
        outages = [empirical_outage(result, x) for x in points]
        assert outages == [np.searchsorted(s, x, side="left") / n for x in points]
        mix = rsnr_mixture(uniform_allocation(baseline), baseline)
        assert ks_distance(result, lambda se: se_cdf(mix, se)) == unique_ks_distance(
            samples, lambda se: se_cdf(mix, se)
        )
        # the samples stay in trial order
        assert result.se_samples.tobytes() == samples.tobytes()


def _counted(monkeypatch, name: str) -> list:
    """Patch montecarlo.<name> to record its calls; returns the list of their arguments."""
    inner, calls = getattr(montecarlo, name), []

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(montecarlo, name, counted)
    return calls


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
        n=st.sampled_from([1, 2, 128, 129]) | st.integers(1, 5197),
        distinct=st.sampled_from([1, 2, 3, 40]) | st.integers(1, 2000),
        zero_share=st.sampled_from([0.0, 0.4]) | st.floats(0.0, 1.0),
        shift=st.sampled_from([0.0, 1.5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_unpruned_oracle_bitwise(self, baseline, seed, n, distinct, zero_share, shift):
        gen = np.random.default_rng(seed)
        # few distinct values make runs of ties that fill whole cells
        pool = np.sort(gen.exponential(2.0, distinct)) + 1e-3
        samples = np.where(gen.random(n) < zero_share, 0.0, gen.choice(pool, n))
        q = allocation_array(baseline.n_p, baseline.num_paths)
        mix = rsnr_mixture(PanelAllocation(tuple(q[gen.integers(len(q))].tolist())), baseline)

        def model(se):  # shifting the mixture CDF right gives a large distance
            return se_cdf(mix, np.maximum(np.asarray(se) - shift, 0.0))

        assert ks_distance(_batch(samples), model) == unique_ks_distance(samples, model)

    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(1, 3000),
        distinct=st.sampled_from([1, 2, 40]) | st.integers(1, 3000),
        zero_share=st.sampled_from([0.0, 0.4]) | st.floats(0.0, 1.0),
        heavy_share=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0),
        cells=st.sampled_from([16, 64, 1000]) | st.integers(16, 4096),
        gather=st.sampled_from([1, 2, 7, 64, 300]) | st.integers(1, 4000),
        infinite=st.booleans(),
        shift=st.sampled_from([0.0, 1.5]),
    )
    @settings(max_examples=80, deadline=None)
    def test_value_cells_equal_unpruned_oracle_bitwise(
        self, baseline, seed, n, distinct, zero_share, heavy_share, cells, gather, infinite, shift
    ):
        # few cells and a small gather limit: heavy cells are counted again,
        # and the candidates take several gather passes
        gen = np.random.default_rng(seed)
        samples = _tied_samples(gen, n, distinct, zero_share)
        samples[gen.random(n) < heavy_share] = samples[gen.integers(n)]
        if infinite:  # the run above the cells
            samples[gen.integers(n)] = np.inf
        mix = rsnr_mixture(los_concentration(baseline), baseline)

        def model(se):
            return se_cdf(mix, np.maximum(np.asarray(se) - shift, 0.0))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_KS_CELLS", cells)
            patch.setattr(montecarlo, "_KS_GATHER", gather)
            patch.setattr(montecarlo, "_KS_PIECE", 100)
            got = ks_distance(_batch(samples), model)
        assert got == unique_ks_distance(samples, model)

    def test_heavy_cells_are_counted_again_and_gathered_in_passes(self, monkeypatch):
        # a value within a few ulps of a heavy one, and a continuous part
        gen = np.random.default_rng(4)
        samples = gen.exponential(1.0, 4000)
        samples[:1500] = 1.25
        samples[1500:1700] = np.nextafter(1.25, 2.0)

        def model(se):
            return 1.0 - np.exp(-np.asarray(se, dtype=float))

        monkeypatch.setattr(montecarlo, "_KS_CELLS", 64)
        monkeypatch.setattr(montecarlo, "_KS_GATHER", 100)
        grids, reads = _counted(monkeypatch, "_ks_grid"), _counted(monkeypatch, "_ks_pieces")
        assert ks_distance(_batch(samples), model) == unique_ks_distance(samples, model)
        assert len(grids) >= 3  # the heavy cell is counted again until its two values part
        assert len(reads) - 1 - len(grids) >= 2  # gather passes: all but the range and counts

    def test_every_candidate_run_is_evaluated(self, monkeypatch):
        # 16 cells of ~2,500 distinct samples each: after the first cell, every
        # other cell's bound reaches the best, so tens of thousands of runs are
        # evaluated, in pieces
        def uniform_cdf(se):
            return np.clip(np.asarray(se, dtype=float), 0.0, 1.0)

        monkeypatch.setattr(montecarlo, "_KS_CELLS", 16)
        for seed in (0, 1):
            samples = np.random.default_rng(seed).random(40_000)
            assert ks_distance(_batch(samples), uniform_cdf) == unique_ks_distance(
                samples, uniform_cdf
            )

    @pytest.mark.parametrize("split", [False, True])
    def test_block_bound_just_above_best_is_evaluated(self, split, monkeypatch):
        # Runs at k/64 (k = 1..63) in cells of width 2^-15 under F(x) = x: G(k/64) =
        # k/64 + 0.01, but the run A at 20/64 + 2e-5 deviates by 0.02 and has the
        # largest bound, 0.02 + 2e-5, and the run B at 40/64 deviates by 0.02001,
        # its bound. Once A is evaluated, B's bound is 1e-5 above the best, so
        # pruning with any slack above 1e-5, per cell or per gather pass, misses
        # the distance. Split: A and B are gathered in passes of their own.
        n = 100_000
        values = np.r_[0.0, np.arange(1, 64) / 64]
        values[20] += 2e-5
        ends = np.round((values + 0.01) * n).astype(int)
        ends[0], ends[20], ends[40], ends[63] = 1, round((values[20] + 0.02) * n), 64_501, n
        samples = np.random.default_rng(0).permutation(np.repeat(values, np.diff(ends, prepend=0)))

        def uniform_cdf(se):
            return np.clip(np.asarray(se, dtype=float), 0.0, 1.0)

        _, counts, _, edges, bound = montecarlo._ks_grid(samples, n, 0.0, 63 / 64, uniform_cdf)
        cell_a, cell_b = np.argsort(-bound)[:2]
        dev_a, dev_b = ends[20] / n - values[20], ends[40] / n - values[40]
        assert edges[cell_a] == 20 / 64 and edges[cell_b] == values[40]
        assert bound[cell_a] > bound[cell_b] == dev_b > dev_a + 0.99e-5
        if split:
            monkeypatch.setattr(montecarlo, "_KS_GATHER", int(counts[cell_a]))
        reads = _counted(monkeypatch, "_ks_pieces")
        assert ks_distance(_batch(samples), uniform_cdf) == unique_ks_distance(
            samples, uniform_cdf
        ) == dev_b
        assert len(reads) == 2 + (2 if split else 1)  # the range, the count, the gathers

    def test_samples_are_read_a_bounded_number_of_times(self, baseline, aods, monkeypatch):
        reads, passes = _counted(monkeypatch, "_ks_pieces"), {}
        for mode in MODES:
            for alloc in (los_concentration(baseline), uniform_allocation(baseline)):
                result = run_trials(baseline, alloc, aods, mode, 2 * 10**5, 3)
                mix = rsnr_mixture(alloc, baseline)
                before = len(reads)
                ks_distance(result, lambda se: se_cdf(mix, se))
                passes[mode, alloc.q] = len(reads) - before
        # 4 * 10^6 SEs of one Rayleigh path at SNR 10, log2(1 + 10 E) with E ~ Exp(1),
        # against their exact CDF: cheap to draw, and past 2^20 samples, where the
        # cells grow with n (a fixed 2^15 cells read them five times)
        samples = np.log2(1.0 + 10.0 * np.random.default_rng(21).exponential(1.0, 4 * 10**6))

        def rayleigh(se):
            return -np.expm1(-np.expm1(np.asarray(se) * math.log(2.0)) / 10.0)

        before = len(reads)
        assert ks_distance(_batch(samples), rayleigh) == unique_ks_distance(samples, rayleigh)
        passes["synthetic", 4 * 10**6] = len(reads) - before
        # the range, the count and one gather pass (two in the synthetic row); in
        # realistic mode the LoS beam's zero atom alone is the distance, and no
        # cell's bound reaches it
        assert passes == {
            ("idealized", (8, 0, 0, 0)): 3,
            ("idealized", (2, 2, 2, 2)): 3,
            ("realistic", (8, 0, 0, 0)): 2,
            ("realistic", (2, 2, 2, 2)): 3,
            ("synthetic", 4 * 10**6): 4,
        }

    @pytest.mark.parametrize("mode", MODES)
    def test_oracle_designs_at_scale_equal_unpruned_oracle(self, baseline, aods, mode):
        for alloc in (uniform_allocation(baseline), optimize_outmin(baseline, 1.0).chosen):
            result = run_trials(baseline, alloc, aods, mode, 2 * 10**5, 5)
            mix = rsnr_mixture(alloc, baseline)
            expected = unique_ks_distance(result.se_samples, lambda se: se_cdf(mix, se))
            assert ks_distance(result, lambda se: se_cdf(mix, se)) == expected

    def test_model_falling_between_blocks_is_rejected(self):
        samples = np.arange(384) / 384
        edge = samples[128]

        def falling(drop):
            return lambda se: np.asarray(se) - drop * (np.asarray(se) >= edge)

        with pytest.raises(ValueError, match="CDF"):
            ks_distance(_batch(samples), falling(0.25))
        # a fall within rounding slack is no fault
        assert ks_distance(_batch(samples), falling(1e-13)) == unique_ks_distance(
            samples, falling(1e-13)
        )

    @pytest.mark.parametrize("piece", [1 << 20, 100])
    def test_nan_sample_is_rejected(self, baseline, piece):
        samples = np.linspace(0.0, 8.0, 1000)
        samples[[0, 500]] = np.nan
        mix = rsnr_mixture(uniform_allocation(baseline), baseline)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_KS_PIECE", piece)
            with pytest.raises(ValueError, match="NaN"):
                ks_distance(_batch(samples), lambda se: se_cdf(mix, se))

    def test_negative_infinity_is_rejected(self):
        # no cell of finite width starts at -inf
        with pytest.raises(ValueError, match="-inf"):
            ks_distance(_batch([1.0, -np.inf, 2.0]), lambda se: np.clip(se, 0.0, 1.0))

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

    @pytest.mark.parametrize(
        "n_trials, seed, name", [(True, 0, "n_trials"), (10, True, "seed")],
        ids=["bool trials", "bool seed"],
    )
    def test_bool_trial_count_or_seed_rejected(self, baseline, aods, n_trials, seed, name):
        # bool is an Integral: True passed as one trial or seed 1
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer"):
            run_trials(baseline, los_concentration(baseline), aods, "idealized", n_trials, seed)

    def test_bad_aods(self, baseline):
        with pytest.raises(ValueError):
            run_trials(
                baseline, los_concentration(baseline), np.zeros(2), "idealized", 10, 0
            )

    def test_bad_allocation(self, baseline, aods):
        with pytest.raises(ConfigurationError):
            run_trials(baseline, PanelAllocation((1, 1, 1, 1)), aods, "idealized", 10, 0)

    def test_largest_seed_runs(self, baseline, aods):
        result = run_trials(baseline, los_concentration(baseline), aods, "idealized", 1, 2**32 - 1)
        assert result.seed == 2**32 - 1
