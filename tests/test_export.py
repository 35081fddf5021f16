import math
import tracemalloc

import numpy as np

from panelalloc import (
    allocation_array,
    cli,
    linear_to_db,
    optimize_outmin,
    run_trials,
    sample_channel,
    score_allocations,
    uniform_allocation,
)
from panelalloc.export import write_csv

U64_MAX = 18446744073709551615


def test_pattern_csv_layout(tmp_path):
    columns = {"theta_deg": np.array([0.0, 1.5]), "gain_abs": np.array([0.25, 16.0])}
    path = write_csv(tmp_path / "p.csv", "config-info", columns)
    lines = path.read_text().splitlines()
    assert lines[0] == "# config-info"
    assert lines[1] == "theta_deg,gain_abs"
    assert lines[2].startswith("0.0,0.25")
    assert len(lines) == 4


def test_columns_are_formatted_as_value_by_value(tmp_path):
    # columns shaped like the summaries, allocate.csv, the candidate tables and
    # count.csv: a str or an int is written as its str, a float as its repr
    floats = [0.0, -0.0, math.nan, math.inf, -math.inf, linear_to_db(0.0), 1e16, 1e-5]
    n = len(floats)
    counts = [3, 2**63 + 1, 2**70, 5, 7, 11, 13, 17]  # numpy would make this list float64
    columns = {
        "mode": ["idealized", "realistic"] * (n // 2),
        "trials": [100_000] * n,
        "seed": np.array([U64_MAX] * n),  # uint64
        "seed_list": [U64_MAX] * n,
        "mean_se": floats,
        "outage": np.array(floats),
        "q_1": np.arange(n),
        "count": counts,
        "chosen": np.arange(n) == 2,
    }
    path = write_csv(tmp_path / "c.csv", "meta", columns)
    expected = [
        f"{mode},100000,{U64_MAX},{U64_MAX},{f!r},{f!r},{i},{count},{i == 2}"
        for i, (mode, f, count) in enumerate(zip(columns["mode"], floats, counts))
    ]
    assert path.read_text().splitlines() == ["# meta", ",".join(columns), *expected]
    assert expected[0] == f"idealized,100000,{U64_MAX},{U64_MAX},0.0,0.0,0,3,False"
    assert expected[2].split(",")[4:8] == ["nan", "nan", "2", str(2**70)]
    assert [e.split(",")[4] for e in expected[3:6]] == ["inf", "-inf", "-inf"]


def test_columns_are_formatted_in_4096_row_pieces(tmp_path):
    # every dtype, across piece boundaries: numpy arrays go through tolist()
    gen = np.random.default_rng(1)
    n = 2 * 4096 + 3
    floats = gen.standard_normal(n) * 10.0 ** gen.integers(-30, 30, n)
    floats[:7] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e16, 1e-5]
    ints = gen.integers(-5, 5, n)
    columns = {
        "i": range(n),
        "f64": floats,
        "f32": floats.astype(np.float32),
        "k": ints,
        "b": floats > 0,
    }
    path = write_csv(tmp_path / "c.csv", "meta", columns)
    f32 = floats.astype(np.float32)
    expected = "".join(
        f"{i},{float(floats[i])!r},{float(f32[i])!r},{int(ints[i])},{bool(floats[i] > 0)}\n"
        for i in range(n)
    )
    assert path.read_text() == "# meta\ni,f64,f32,k,b\n" + expected


def test_cdf_csv_columns(tmp_path):
    columns = {"se_bits": np.array([0.0, 1.0]), "cdf_analytic": np.array([0.4, 0.5])}
    path = write_csv(tmp_path / "c.csv", "meta", columns)
    lines = path.read_text().splitlines()
    assert lines[1] == "se_bits,cdf_analytic"
    assert len(lines) == 4


def test_candidates_csv_flags_chosen(baseline, tmp_path):
    argv = ["allocate", "--se-points", "2", "--dump-candidates", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    lines = (tmp_path / "candidates_outmin.csv").read_text().splitlines()
    assert lines[1] == "q_1,q_2,q_3,q_4,outage,avg_rsnr_db,chosen"
    q = allocation_array(8, 4)
    outages, avgs = score_allocations(q, baseline, 1.0)
    # linear_to_db of each value: 10 * np.log10 differs in the last digit of some cells
    expected = [
        ",".join(map(str, row)) + f",{outage!r},{linear_to_db(avg)!r}"
        for row, outage, avg in zip(q.tolist(), outages.tolist(), avgs.tolist())
    ]
    assert [line.rsplit(",", 1)[0] for line in lines[2:]] == expected
    flagged = [line for line in lines[2:] if line.endswith(",1")]
    assert len(flagged) == 1
    assert flagged[0].startswith(",".join(map(str, optimize_outmin(baseline, 1.0).chosen.q)))


def test_sample_and_summary_dumps(baseline, tmp_path):
    aods = sample_channel(baseline, rng=np.random.default_rng(0)).aods
    result = run_trials(baseline, uniform_allocation(baseline), aods, "idealized", 50, 8)
    samples = {"trial": range(result.trials), "se_bits": result.se_samples}
    spath = write_csv(tmp_path / "s.csv", "meta", samples)
    lines = spath.read_text().splitlines()
    assert lines[1] == "trial,se_bits"
    assert len(lines) == 52
    mpath = write_csv(tmp_path / "m.csv", "meta", cli._summary_columns([result]))
    mlines = mpath.read_text().splitlines()
    assert mlines[1] == "mode,trials,seed,mean_se,mean_rsnr_db"
    assert mlines[2] == f"idealized,50,8,{result.mean_se!r},{linear_to_db(result.mean_rsnr)!r}"


def test_sample_dump_memory_is_flat_in_rows(baseline, tmp_path):
    aods = sample_channel(baseline, rng=np.random.default_rng(0)).aods
    result = run_trials(baseline, uniform_allocation(baseline), aods, "idealized", 2 * 10**5, 3)
    samples = {"trial": range(result.trials), "se_bits": result.se_samples}
    tracemalloc.start()
    try:
        path = write_csv(tmp_path / "s.csv", "meta", samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # rows go to the file as they are formatted, not joined in memory first
    assert peak < 2**20 < path.stat().st_size / 4
    assert len(path.read_text().splitlines()) == 2 + 2 * 10**5
