import tracemalloc

import numpy as np

from panelalloc import optimize_outmin, run_trials, sample_channel, uniform_allocation
from panelalloc.export import (
    _fmt,
    write_candidates_csv,
    write_columns_csv,
    write_samples_csv,
    write_summary_csv,
)


def test_pattern_csv_layout(tmp_path):
    columns = {"theta_deg": np.array([0.0, 1.5]), "gain_abs": np.array([0.25, 16.0])}
    path = write_columns_csv(tmp_path / "p.csv", "config-info", columns)
    lines = path.read_text().splitlines()
    assert lines[0] == "# config-info"
    assert lines[1] == "theta_deg,gain_abs"
    assert lines[2].startswith("0.0,0.25")
    assert len(lines) == 4


def test_columns_are_formatted_as_value_by_value(tmp_path):
    # rows formatted a piece at a time from tolist() give _fmt's bytes for every dtype
    gen = np.random.default_rng(1)
    n = 2 * 4096 + 3
    floats = gen.standard_normal(n) * 10.0 ** gen.integers(-30, 30, n)
    floats[:7] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e16, 1e-5]
    columns = {
        "i": range(n),
        "f64": floats,
        "f32": floats.astype(np.float32),
        "k": gen.integers(-5, 5, n),
        "b": floats > 0,
    }
    path = write_columns_csv(tmp_path / "c.csv", "meta", columns)
    rows = zip(*(list(c) for c in columns.values()))
    expected = "".join(",".join(map(_fmt, row)) + "\n" for row in rows)
    assert path.read_text() == "# meta\ni,f64,f32,k,b\n" + expected


def test_cdf_csv_columns(tmp_path):
    columns = {"se_bits": np.array([0.0, 1.0]), "cdf_analytic": np.array([0.4, 0.5])}
    path = write_columns_csv(tmp_path / "c.csv", "meta", columns)
    lines = path.read_text().splitlines()
    assert lines[1] == "se_bits,cdf_analytic"
    assert len(lines) == 4


def test_candidates_csv_flags_chosen(baseline, tmp_path):
    report = optimize_outmin(baseline, 1.0)
    path = write_candidates_csv(tmp_path / "cand.csv", "meta", report)
    lines = path.read_text().splitlines()
    assert lines[1] == "q_1,q_2,q_3,q_4,outage,avg_rsnr_db,chosen"
    assert len(lines) == 2 + len(report.candidates)
    flagged = [line for line in lines[2:] if line.endswith(",1")]
    assert len(flagged) == 1
    assert flagged[0].startswith(",".join(map(str, report.chosen.q)))


def test_sample_and_summary_dumps(baseline, tmp_path):
    aods = sample_channel(baseline, rng=np.random.default_rng(0)).aods
    result = run_trials(baseline, uniform_allocation(baseline), aods, "idealized", 50, 8)
    spath = write_samples_csv(tmp_path / "s.csv", "meta", result)
    lines = spath.read_text().splitlines()
    assert lines[1] == "trial,se_bits"
    assert len(lines) == 52
    mpath = write_summary_csv(tmp_path / "m.csv", "meta", [result])
    mlines = mpath.read_text().splitlines()
    assert mlines[1] == "mode,trials,seed,mean_se,mean_rsnr_db"
    assert mlines[2].startswith("idealized,50,8,")


def test_sample_dump_memory_is_flat_in_rows(baseline, tmp_path):
    aods = sample_channel(baseline, rng=np.random.default_rng(0)).aods
    result = run_trials(baseline, uniform_allocation(baseline), aods, "idealized", 2 * 10**5, 3)
    tracemalloc.start()
    try:
        path = write_samples_csv(tmp_path / "s.csv", "meta", result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # rows go to the file as they are formatted, not joined in memory first
    assert peak < 2**20 < path.stat().st_size / 4
    assert len(path.read_text().splitlines()) == 2 + 2 * 10**5
