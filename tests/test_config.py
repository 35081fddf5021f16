import math

import pytest
from hypothesis import given, strategies as st

from panelalloc import ConfigurationError, SystemConfig, db_to_linear, linear_to_db, load_scenario


def test_baseline_defaults(baseline):
    assert baseline.n_t == 256
    assert baseline.p_blk == pytest.approx(0.4, abs=0.0)
    assert baseline.num_paths == 4
    assert baseline.rician_k == 10.0


@given(n_a=st.integers(1, 512), n_p=st.integers(1, 64))
def test_total_elements_derived(n_a, n_p):
    cfg = SystemConfig(n_a=n_a, n_p=n_p)
    assert cfg.n_t == n_a * n_p


@given(
    p_min=st.floats(0.0, 1.0),
    p_max=st.floats(0.0, 1.0),
)
def test_average_blockage_probability_exact(p_min, p_max):
    if p_min > p_max:
        p_min, p_max = p_max, p_min
    cfg = SystemConfig(p_min=p_min, p_max=p_max)
    assert cfg.p_blk == (p_min + p_max) / 2.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_a=0),
        dict(n_p=0),
        dict(num_paths=1),
        dict(rician_k=-0.1),
        dict(tx_snr=0.0),
        dict(p_min=0.7, p_max=0.3),
        dict(p_min=-0.1),
        dict(p_max=1.5),
        dict(rician_k=math.inf),
        dict(rician_k=math.nan),
        dict(tx_snr=math.inf),
        # finite, but tx_snr * n_a^2 * n_p, a bound of the RSNR scales, is not
        dict(tx_snr=1e308),
        dict(tx_snr=1e304, n_a=1024, n_p=16),
    ],
)
def test_invalid_configuration_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        SystemConfig(**kwargs)


def test_db_conversions():
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(0.0) == 1.0
    assert linear_to_db(db_to_linear(7.3)) == pytest.approx(7.3)
    assert linear_to_db(0.0) == float("-inf")


SCENARIO_TEXT = """\
# baseline scenario
n_a = 32
n_p = 8
num_paths 4
rician_k_db = 10
tx_snr_db = 10   # linear 10
p_min = 0.2
p_max = 0.6
seed = 99
"""


def test_load_scenario_roundtrip(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text(SCENARIO_TEXT)
    cfg, seed = load_scenario(path)
    assert seed == 99
    assert cfg.n_a == 32 and cfg.n_p == 8 and cfg.num_paths == 4
    assert cfg.rician_k == pytest.approx(10.0)
    assert cfg.tx_snr == pytest.approx(10.0)
    assert cfg.p_min == 0.2 and cfg.p_max == 0.6


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("seed = 99\n", ""),  # missing key
        lambda t: t + "bogus = 3\n",  # unknown key
        lambda t: t + "seed = 5\n",  # duplicate key
        lambda t: t.replace("n_a = 32", "n_a = thirty-two"),  # malformed value
        lambda t: t.replace("seed = 99", "seed = -1"),  # negative seed
        lambda t: t.replace("n_a = 32", "n_a"),  # no value
        lambda t: t.replace("tx_snr_db = 10 ", "tx_snr_db = 3100 "),  # 10^310 overflows
        lambda t: t.replace("rician_k_db = 10", "rician_k_db = 4000"),
        lambda t: t.replace("seed = 99", "seed = 4294967296"),  # 2^32 keys seed 0's streams
    ],
)
def test_load_scenario_rejects_bad_files(tmp_path, mutation):
    path = tmp_path / "scn.txt"
    path.write_text(mutation(SCENARIO_TEXT))
    with pytest.raises(ConfigurationError):
        load_scenario(path)


def test_db_scenario_values_are_converted(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text(SCENARIO_TEXT.replace("rician_k_db = 10", "rician_k_db = 3"))
    cfg, _ = load_scenario(path)
    assert cfg.rician_k == pytest.approx(10 ** 0.3)
    assert not math.isclose(cfg.rician_k, 3.0)
