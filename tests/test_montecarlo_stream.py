"""The Monte Carlo chunk streams, and the inputs run_batches rejects before
it draws any of them."""

import math

import numpy as np
import pytest

from panelalloc import (
    ConfigurationError,
    empirical_outage,
    ks_distance,
    los_concentration,
    rsnr_mixture,
    run_batches,
    run_trials,
    sample_channel,
    se_cdf,
)
from panelalloc import montecarlo

STREAM_DRAWS = 10**6


@pytest.fixture(scope="module")
def aods(baseline):
    return sample_channel(baseline, rng=np.random.default_rng(7)).aods


class TestChunkStream:
    @pytest.mark.parametrize("seed", [0, 1, 2**63 + 5])
    @pytest.mark.parametrize("chunk_index", [0, 1, 15])
    def test_is_sfc64_keyed_by_seed_and_chunk(self, seed, chunk_index):
        rng = montecarlo._chunk_rng(seed, chunk_index)
        ref = np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(entropy=(seed, chunk_index)))
        )
        assert type(rng.bit_generator) is np.random.SFC64
        assert rng.bit_generator.random_raw(4).tobytes() == ref.bit_generator.random_raw(4).tobytes()
        assert rng.standard_normal(64).tobytes() == ref.standard_normal(64).tobytes()
        assert rng.random(64).tobytes() == ref.random(64).tobytes()

    @pytest.mark.parametrize(
        "a, b",
        [((0, 0), (0, 1)), ((1, 6), (1, 7)), ((0, 0), (1, 0)), ((41, 3), (42, 3))],
        ids=["chunk 0-1", "chunk 6-7", "seed 0-1", "seed 41-42"],
    )
    def test_neighbouring_streams_are_uncorrelated(self, a, b):
        x = montecarlo._chunk_rng(*a).standard_normal(STREAM_DRAWS)
        y = montecarlo._chunk_rng(*b).standard_normal(STREAM_DRAWS)
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 6.0 / math.sqrt(STREAM_DRAWS)


class TestInputs:
    @pytest.mark.parametrize(
        "n_trials, seed",
        [(0, 0), (10.0, 0), (np.float64(10), 0), ("10", 0), (10, -1), (10, 1.5), (10, None)],
        ids=["no trials", "float trials", "numpy float trials", "str trials", "negative seed",
             "float seed", "no seed"],
    )
    def test_rejected_before_any_draw(self, baseline, aods, monkeypatch, n_trials, seed):
        def no_draws(*args):
            raise AssertionError("a chunk generator was built")

        monkeypatch.setattr(montecarlo, "_chunk_rng", no_draws)
        alloc = los_concentration(baseline)
        with pytest.raises(ConfigurationError):
            run_trials(baseline, alloc, aods, "idealized", n_trials, seed)
        with pytest.raises(ConfigurationError):
            run_batches(baseline, [alloc], aods, n_trials, seed)

    def test_numpy_integers_are_accepted(self, baseline, aods):
        alloc = los_concentration(baseline)
        got = run_trials(baseline, alloc, aods, "idealized", np.int64(100), np.uint32(3))
        ref = run_trials(baseline, alloc, aods, "idealized", 100, 3)
        assert got.se_samples.tobytes() == ref.se_samples.tobytes()


class TestResultWithoutSamples:
    @pytest.fixture
    def counted(self, baseline, aods):
        alloc = los_concentration(baseline)
        grid = np.linspace(0.0, 8.0, 5)
        return run_batches(
            baseline, [alloc], aods, 100, 0, ("idealized",), se_grid=grid, keep_samples=False
        )["idealized", alloc.q]

    def test_empirical_outage_names_keep_samples(self, counted):
        with pytest.raises(ValueError, match="keep_samples"):
            empirical_outage(counted, 1.0)

    def test_ks_distance_names_keep_samples(self, baseline, counted):
        mix = rsnr_mixture(los_concentration(baseline), baseline)
        with pytest.raises(ValueError, match="keep_samples"):
            ks_distance(counted, lambda se: se_cdf(mix, se))
