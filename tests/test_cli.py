from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from panelalloc import (
    SystemConfig,
    allocation_array,
    linear_to_db,
    load_scenario,
    los_concentration,
    optimize_outmin,
    optimize_outmin_ase,
    rsnr_mixture,
    se_mean,
    uniform_allocation,
)
from panelalloc import cli, montecarlo, optimizer
from util import exhaustive_outmin

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run_cli(args):
    try:
        return cli.main(args)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


def read_table(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def column(path, name):
    header, rows = read_table(path)
    idx = header.index(name)
    return np.array([float(r[idx]) for r in rows])


SCENARIO = """\
n_a = 16
n_p = 4
num_paths = 3
rician_k_db = 7
tx_snr_db = 10
p_min = 0.1
p_max = 0.5
seed = 31
"""


class TestUsageErrors:
    def test_empty_methods(self, tmp_path):
        assert run_cli(["cdf", "--methods", "", "--out", str(tmp_path)]) == 2

    def test_unknown_method(self, tmp_path):
        assert run_cli(["cdf", "--methods", "los,magic", "--out", str(tmp_path)]) == 2

    def test_unknown_flag(self, tmp_path):
        assert run_cli(["cdf", "--frobnicate", "--out", str(tmp_path)]) == 2

    def test_unknown_subcommand(self):
        assert run_cli(["transmogrify"]) == 2

    def test_bad_grid(self, tmp_path):
        assert run_cli(["cdf", "--se-min", "5", "--se-max", "1", "--out", str(tmp_path)]) == 2

    def test_bad_scenario_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("n_a = 32\n")
        assert run_cli(["count", "--scenario", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "args, code",
        [
            (["pattern", "--alloc", "2,x"], 2),
            (["pattern", "--alloc", "2,2,2"], 2),
            (["pattern", "--alloc", "0,0,0,0"], 2),
            (["pattern", "--points", "0"], 2),
            (["sweep-snr", "--snr-db", "5,abc"], 2),
            (["count", "--n-p", "2,y"], 2),
            (["cdf", "--target-se", "-1"], 2),
            (["allocate", "--target-se", "nan"], 2),
            (["sweep-se", "--se-min", "-1"], 2),
            (["allocate", "--trials", "0"], 2),
            (["count", "--scenario", "{tmp}/missing.txt"], 2),
            (["count", "--out", "{tmp}/crowded.txt/sub"], 2),
            # 10 AoDs 17.7 deg apart on [0, 180): an admissible draw has
            # probability ~3e-10, so rejection sampling exhausts its budget
            (["pattern", "--methods", "los", "--scenario", "{tmp}/crowded.txt"], 3),
        ],
        ids=lambda v: "_".join(v) if isinstance(v, list) else None,
    )
    def test_malformed_input_exit_code(self, tmp_path, capsys, args, code):
        (tmp_path / "crowded.txt").write_text(
            SCENARIO.replace("n_a = 16", "n_a = 23")
            .replace("n_p = 4", "n_p = 1")
            .replace("num_paths = 3", "num_paths = 10")
        )
        # the default --out goes first, so a row's own --out overrides it
        command, *rest = args
        argv = [command, "--out", str(tmp_path / "out")] + [a.format(tmp=tmp_path) for a in rest]
        assert run_cli(argv) == code
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCapacity:
    def test_allocate_capacity_exit_code(self, tmp_path):
        scn = tmp_path / "big.txt"
        scn.write_text(SCENARIO.replace("n_p = 4", "n_p = 64").replace("num_paths = 3", "num_paths = 8"))
        rc = run_cli(["allocate", "--scenario", str(scn), "--out", str(tmp_path)])
        assert rc == 3


class TestCdf:
    def test_writes_per_method_files(self, tmp_path):
        rc = run_cli(
            ["cdf", "--trials", "4000", "--se-points", "21", "--seed", "5", "--out", str(tmp_path)]
        )
        assert rc == 0
        for method in ("los", "uniform", "outmin", "outmin_ase"):
            header, rows = read_table(tmp_path / f"cdf_{method}.csv")
            assert header == ["se_bits", "cdf_analytic", "cdf_mc_idealized", "cdf_mc_realistic"]
            assert len(rows) == 21
        analytic = column(tmp_path / "cdf_uniform.csv", "cdf_analytic")
        ideal = column(tmp_path / "cdf_uniform.csv", "cdf_mc_idealized")
        assert np.max(np.abs(analytic - ideal)) < 0.05

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(["cdf", "--trials", "2000", "--seed", "9", "--out", str(out)]) == 0
        for name in ("cdf_los.csv", "cdf_outmin.csv", "summary_uniform.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_dump_samples(self, tmp_path):
        rc = run_cli(
            [
                "cdf",
                "--methods",
                "los",
                "--trials",
                "100",
                "--dump-samples",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        header, rows = read_table(tmp_path / "samples_los_idealized.csv")
        assert header == ["trial", "se_bits"]
        assert len(rows) == 100
        assert (tmp_path / "samples_los_realistic.csv").exists()

    def test_scenario_and_seed_override(self, tmp_path):
        scn = tmp_path / "scn.txt"
        scn.write_text(SCENARIO)
        rc = run_cli(
            [
                "cdf",
                "--scenario",
                str(scn),
                "--methods",
                "los",
                "--trials",
                "500",
                "--seed",
                "77",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        comment = (tmp_path / "cdf_los.csv").read_text().splitlines()[0]
        assert "n_a=16" in comment and "n_p=4" in comment and "seed=77" in comment


class TestSweeps:
    def test_target_se_dominance(self, tmp_path):
        rc = run_cli(
            ["sweep-se", "--trials", "2000", "--se-points", "9", "--out", str(tmp_path)]
        )
        assert rc == 0
        path = tmp_path / "sweep_se.csv"
        outmin = column(path, "outage_outmin")
        los = column(path, "outage_los")
        uniform = column(path, "outage_uniform")
        assert np.all(outmin <= np.minimum(los, uniform) + 1e-12)

    def test_tx_snr_los_has_highest_average_rsnr(self, tmp_path):
        rc = run_cli(
            [
                "sweep-snr",
                "--trials",
                "2000",
                "--target-se",
                "4",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        path = tmp_path / "sweep_snr.csv"
        los = column(path, "avg_rsnr_db_los")
        for method in ("uniform", "outmin", "outmin_ase"):
            assert np.all(los >= column(path, f"avg_rsnr_db_{method}") - 1e-9)
        assert column(path, "tx_snr_db").tolist() == [0.0, 5.0, 10.0, 15.0, 20.0]


def allocation_of(config, method, target_se):
    """The allocation a CLI method picks, from the library calls alone."""
    if method == "los":
        return los_concentration(config)
    if method == "uniform":
        return uniform_allocation(config)
    if method == "outmin":
        return optimize_outmin(config, target_se).chosen
    return optimize_outmin_ase(config, target_se, cli.DEFAULT_EPSILON).chosen


SWEEPS = [["sweep-se", "--se-points", "9"], ["sweep-snr", "--target-se", "4"]]


class TestSweepExactMean:
    """The sweeps' mean SE is exact: no simulation, so seed and trials do not matter."""

    @pytest.mark.parametrize("args", SWEEPS, ids=lambda a: a[0])
    def test_independent_of_seed_and_trials(self, tmp_path, args):
        runs = [["--seed", "1"], ["--seed", "2"], ["--trials", "100"], ["--trials", "1000"]]
        name = args[0].replace("-", "_") + ".csv"
        files = set()
        for i, extra in enumerate(runs):
            assert run_cli(args + extra + ["--out", str(tmp_path / str(i))]) == 0
            files.add((tmp_path / str(i) / name).read_bytes())
        # the comment line records no seed or trials either: the files are equal
        assert len(files) == 1
        comment = files.pop().split(b"\n", 1)[0].split()
        assert not any(w.startswith((b"seed=", b"trials=")) for w in comment)

    def test_mean_se_columns_equal_exact_mean_per_cell(self, tmp_path):
        assert run_cli(SWEEPS[0] + ["--out", str(tmp_path)]) == 0
        assert run_cli(SWEEPS[1] + ["--out", str(tmp_path)]) == 0
        config = SystemConfig()

        def mean_se(cfg, alloc):
            return se_mean(rsnr_mixture(alloc, cfg))

        sweep_se, sweep_snr = tmp_path / "sweep_se.csv", tmp_path / "sweep_snr.csv"
        for method in cli.METHODS:
            expected = [
                mean_se(config, allocation_of(config, method, xi))
                for xi in column(sweep_se, "xi_th")
            ]
            assert column(sweep_se, f"mean_se_{method}").tolist() == expected
            expected = []
            for snr_db in column(sweep_snr, "tx_snr_db"):
                cfg = replace(config, tx_snr=10.0 ** (snr_db / 10.0))
                expected.append(mean_se(cfg, allocation_of(cfg, method, 4.0)))
            assert column(sweep_snr, f"mean_se_{method}").tolist() == expected

    @pytest.mark.parametrize("args", SWEEPS, ids=lambda a: a[0])
    def test_sweeps_draw_and_simulate_nothing(self, tmp_path, monkeypatch, args):
        def forbidden(*args, **kwargs):
            raise AssertionError("a sweep drew AoDs or simulated channel frames")

        monkeypatch.setattr(cli, "sample_channel", forbidden)
        monkeypatch.setattr(montecarlo, "_channel_power", forbidden)
        assert run_cli(args + ["--out", str(tmp_path)]) == 0


class TestOneTablePerConfiguration:
    @pytest.mark.parametrize(
        "args, tables",
        [
            (["cdf", "--trials", "100"], 1),
            (["pattern", "--points", "5"], 1),
            (["sweep-snr", "--snr-db", "0,10,20"], 3),
            (["sweep-se", "--se-points", "4"], 1),
        ],
    )
    def test_both_designs_share_one_search(self, tmp_path, monkeypatch, args, tables):
        calls = []

        def counted(config, target_ses, epsilons, *rest):
            calls.append(list(epsilons))
            return optimizer.outmin_reports(config, target_ses, epsilons, *rest)

        monkeypatch.setattr(cli, "outmin_reports", counted)
        assert run_cli(args + ["--out", str(tmp_path)]) == 0
        assert calls == [[0.0, cli.DEFAULT_EPSILON]] * tables


class TestAllocate:
    def test_table_layout_and_glos(self, tmp_path):
        rc = run_cli(
            ["allocate", "--se-points", "7", "--dump-candidates", "--out", str(tmp_path)]
        )
        assert rc == 0
        path = tmp_path / "allocate.csv"
        header, rows = read_table(path)
        assert header[0] == "xi_th"
        q1 = column(path, "q_1_outmin")
        glos = column(path, "g_los_outmin")
        np.testing.assert_allclose(glos, q1 / 8.0)
        outage_min = column(path, "outage_outmin")
        outage_ase = column(path, "outage_outmin_ase")
        assert np.all(outage_ase <= outage_min + 0.05 + 1e-12)
        header, rows = read_table(tmp_path / "candidates_outmin.csv")
        assert len(rows) == 120

    def test_dump_holds_every_composition(self, tmp_path):
        # the search runs over profiles, the dump still lists all 120 compositions
        args = ["allocate", "--se-points", "2", "--target-se", "1.5", "--dump-candidates"]
        assert run_cli(args + ["--out", str(tmp_path)]) == 0
        config = SystemConfig()
        chosen = {
            "outmin": optimize_outmin(config, 1.5).chosen,
            "outmin_ase": optimize_outmin_ase(config, 1.5, cli.DEFAULT_EPSILON).chosen,
        }
        for tag, alloc in chosen.items():
            header, rows = read_table(tmp_path / f"candidates_{tag}.csv")
            q = [[int(v) for v in row[:4]] for row in rows]
            assert q == allocation_array(8, 4).tolist()
            flagged = [tuple(qi) for qi, row in zip(q, rows) if row[-1] == "1"]
            assert flagged == [alloc.q]
            assert all(row[-1] in ("0", "1") for row in rows)

    def test_scale_scenario_matches_exhaustive_search(self, tmp_path):
        # 16 panels over 8 paths: 564 profiles searched, 170,544 compositions in the oracle
        scenario = SCENARIOS / "scale_16_8.txt"
        argv = ["allocate", "--scenario", str(scenario), "--se-points", "4"]
        assert run_cli(argv + ["--out", str(tmp_path)]) == 0
        config, _ = load_scenario(scenario)
        path = tmp_path / "allocate.csv"
        grid = column(path, "xi_th")
        assert grid.tolist() == np.linspace(0.25, 8.0, 4).tolist()
        for tag, epsilon in (("outmin", 0.0), ("outmin_ase", cli.DEFAULT_EPSILON)):
            q = np.column_stack([column(path, f"q_{l + 1}_{tag}") for l in range(8)])
            for j, xi in enumerate(grid.tolist()):
                alloc, outage, avg = exhaustive_outmin(config, xi, epsilon)
                assert tuple(q[j].astype(int).tolist()) == alloc.q
                assert column(path, f"outage_{tag}")[j] == outage
                assert column(path, f"avg_rsnr_db_{tag}")[j] == linear_to_db(avg)


class TestPatternAndCount:
    def test_pattern_files(self, tmp_path):
        rc = run_cli(
            [
                "pattern",
                "--methods",
                "los",
                "--alloc",
                "2,2,2,2",
                "--points",
                "7201",
                "--seed",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        header, rows = read_table(tmp_path / "pattern_los.csv")
        assert header == ["theta_deg", "gain_abs"]
        assert len(rows) == 7201
        gains = column(tmp_path / "pattern_los.csv", "gain_abs")
        # full-array main lobe is ~0.4 deg wide; the 0.025 deg grid catches it
        assert gains.max() == pytest.approx(16.0, rel=0.01)
        assert (tmp_path / "pattern_custom.csv").exists()

    def test_count_values(self, tmp_path):
        rc = run_cli(["count", "--out", str(tmp_path)])
        assert rc == 0
        path = tmp_path / "count.csv"
        counts = column(path, "count")
        n_p = column(path, "n_p")
        L = column(path, "num_paths")
        assert np.all(counts <= 10**6)
        row = (n_p == 8) & (L == 4)
        assert counts[row][0] == 120


EDGE_SCENARIOS = {
    "p_blk_0": SCENARIO.replace("p_min = 0.1", "p_min = 0").replace("p_max = 0.5", "p_max = 0"),
    "p_blk_1": SCENARIO.replace("p_min = 0.1", "p_min = 1").replace("p_max = 0.5", "p_max = 1"),
    "kappa_0": SCENARIO.replace("rician_k_db = 7", "rician_k_db = -inf"),
    "n_p_below_L": SCENARIO.replace("n_p = 4", "n_p = 2"),
}
COMMANDS = ("cdf", "sweep-se", "sweep-snr", "allocate", "pattern", "count")


class TestEdgeScenarios:
    """Degenerate but valid scenarios: every subcommand ends with a documented exit code."""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("name", list(EDGE_SCENARIOS))
    def test_exit_code(self, tmp_path, name, command):
        scn = tmp_path / "scn.txt"
        scn.write_text(EDGE_SCENARIOS[name])
        out = tmp_path / "out"
        argv = [command, "--scenario", str(scn), "--trials", "2000", "--out", str(out)]
        # an uncaught exception here would be exit code 1
        rc = run_cli(argv)
        assert rc == 0
        if name == "n_p_below_L" and command == "cdf":
            # the uniform method gives the first n_p paths one panel each
            comment = (out / "cdf_uniform.csv").read_text().splitlines()[0]
            assert "q=1/1/0" in comment.split()
        if name == "p_blk_1" and command == "cdf":
            # every path is blocked in every idealized frame: zero power, -inf dB
            for method in cli.METHODS:
                summary = out / f"summary_{method}.csv"
                assert column(summary, "mean_rsnr_db")[0] == float("-inf")
        if name == "p_blk_1" and command in ("sweep-snr", "allocate"):
            path = out / f"{command.replace('-', '_')}.csv"
            names = [h for h in read_table(path)[0] if h.startswith("avg_rsnr_db_")]
            assert names and all(np.all(column(path, h) == float("-inf")) for h in names)
        if name == "kappa_0" and command == "cdf":
            # the LoS beam serves a path with no power at kappa = 0
            assert column(out / "summary_los.csv", "mean_rsnr_db")[0] == float("-inf")
        if name == "kappa_0" and command == "sweep-snr":
            assert np.all(column(out / "sweep_snr.csv", "avg_rsnr_db_los") == float("-inf"))
