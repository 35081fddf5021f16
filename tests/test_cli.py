import argparse
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from panelalloc import (
    SystemConfig,
    allocation_array,
    average_rsnr,
    average_se_upper_bound,
    linear_to_db,
    load_scenario,
    los_concentration,
    optimize_outmin,
    optimize_outmin_ase,
    rsnr_mixture,
    se_cdf,
    se_mean,
    uniform_allocation,
)
from panelalloc import analytic, cli, montecarlo, optimizer
from util import exhaustive_outmin, fresh_python, reference_cdf

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

# scenario values whose linear value, or whose RSNR scales, overflow a float
OVERFLOWING = {
    "snr_3100": "tx_snr_db = 3100",
    "k_4000": "rician_k_db = 4000",
    "snr_inf": "tx_snr_db = inf",
    "k_inf": "rician_k_db = inf",
    "snr_3080": "tx_snr_db = 3080",  # gamma_tx is finite, gamma_tx * N_a^2 * N_p is not
}


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

    @pytest.mark.parametrize(
        "args",
        [
            ["cdf", "--se-max", "nan"],
            ["cdf", "--se-max", "inf", "--se-points", "3"],
            ["sweep-se", "--se-max", "inf"],
        ],
        ids=lambda v: "_".join(v),
    )
    def test_non_finite_grid_bound(self, tmp_path, capsys, args):
        assert run_cli([*args, "--out", str(tmp_path / "out")]) == 2
        assert "SE grid bounds must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
            (["sweep-snr", "--snr-db", "1e400"], 2),
            (["sweep-snr", "--snr-db", "0,nan"], 2),
            (["sweep-snr", "--snr-db", "10,5"], 2),
            (["sweep-snr", "--snr-db", "0,0"], 2),
            (["sweep-snr", "--snr-db", ","], 2),
            (["count", "--n-p", "2,y"], 2),
            (["count", "--l-min", "5", "--l-max", "3"], 2),
            (["count", "--n-p", ","], 2),
            (["cdf", "--target-se", "-1"], 2),
            (["allocate", "--target-se", "nan"], 2),
            (["cdf", "--target-se", "inf"], 2),
            (["allocate", "--target-se", "inf"], 2),
            (["sweep-snr", "--target-se", "inf"], 2),
            (["sweep-se", "--se-min", "-1"], 2),
            (["allocate", "--trials", "0"], 2),
            (["cdf", "--seed", "4294967296"], 2),
            (["count", "--epsilon", "nan"], 2),
            (["cdf", "--methods", "los", "--epsilon", "-3", "--trials", "100"], 2),
            (["sweep-se", "--epsilon", "1.5"], 2),
            (["allocate", "--epsilon", "2"], 2),
            (["count", "--scenario", "{tmp}/missing.txt"], 2),
            (["count", "--out", "{tmp}/crowded.txt/sub"], 2),
            (["sweep-snr", "--snr-db", "3100"], 2),
            (["sweep-snr", "--snr-db", "0,3080"], 2),
            (["count", "--scenario", "{tmp}/snr_3100.txt"], 2),
            (["allocate", "--scenario", "{tmp}/k_4000.txt"], 2),
            (["allocate", "--scenario", "{tmp}/snr_inf.txt"], 2),
            (["allocate", "--scenario", "{tmp}/k_inf.txt"], 2),
            (["allocate", "--scenario", "{tmp}/snr_3080.txt"], 2),
            (["sweep-snr", "--scenario", "{tmp}/snr_3080.txt"], 2),
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
        for name, line in OVERFLOWING.items():
            key = line.split()[0]
            text = re.sub(rf"^{key} = .*$", line, SCENARIO, flags=re.M)
            (tmp_path / f"{name}.txt").write_text(text)
        # the default --out goes first, so a row's own --out overrides it
        command, *rest = args
        argv = [command, "--out", str(tmp_path / "out")] + [a.format(tmp=tmp_path) for a in rest]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
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

    @pytest.mark.parametrize(
        "args",
        [
            ["--trials", str(montecarlo.CHUNK_TRIALS + 5), "--seed", "3"],
            ["--trials", "9000", "--target-se", "4", "--dump-samples"],
            ["--trials", "3000", "--methods", "uniform,outmin", "--dump-samples", "--scenario"],
        ],
        ids=["plain", "dump", "scenario"],
    )
    def test_equals_separate_runs_per_method_bytewise(self, tmp_path, args):
        if args[-1] == "--scenario":
            scn = tmp_path / "scn.txt"
            scn.write_text(SCENARIO)
            args = args + [str(scn)]
        got, expected = tmp_path / "got", tmp_path / "expected"
        assert run_cli(["cdf", *args, "--out", str(got)]) == 0
        expected.mkdir()
        reference_cdf([*args, "--out", str(expected)])
        names = sorted(p.name for p in expected.iterdir())
        assert sorted(p.name for p in got.iterdir()) == names
        assert any(name.startswith("samples_") for name in names) == ("--dump-samples" in args)
        for name in names:
            assert (got / name).read_bytes() == (expected / name).read_bytes(), name

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
            xis = column(sweep_se, "xi_th").tolist()
            allocs = [allocation_of(config, method, xi) for xi in xis]
            expected = [mean_se(config, alloc) for alloc in allocs]
            assert column(sweep_se, f"mean_se_{method}").tolist() == expected
            # every outage cell, searched design or not, is its allocation's CDF at the cell
            expected = [se_cdf(rsnr_mixture(alloc, config), xi) for alloc, xi in zip(allocs, xis)]
            assert column(sweep_se, f"outage_{method}").tolist() == expected
            expected, bounds, avg_db = [], [], []
            for snr_db in column(sweep_snr, "tx_snr_db"):
                cfg = replace(config, tx_snr=10.0 ** (snr_db / 10.0))
                alloc = allocation_of(cfg, method, 4.0)
                expected.append(mean_se(cfg, alloc))
                bounds.append(average_se_upper_bound(alloc, cfg))
                avg_db.append(linear_to_db(average_rsnr(alloc, cfg)))
            assert column(sweep_snr, f"mean_se_{method}").tolist() == expected
            assert column(sweep_snr, f"se_bound_{method}").tolist() == bounds
            assert column(sweep_snr, f"avg_rsnr_db_{method}").tolist() == avg_db

    @pytest.mark.parametrize("args", SWEEPS, ids=lambda a: a[0])
    def test_one_exact_mean_evaluation_per_command(self, tmp_path, monkeypatch, args):
        exp_e1, calls = analytic._exp_e1, []

        def counted(x):
            calls.append(x.size)
            return exp_e1(x)

        monkeypatch.setattr(analytic, "_exp_e1", counted)
        assert run_cli(args + ["--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("args", SWEEPS, ids=lambda a: a[0])
    def test_sweeps_draw_and_simulate_nothing(self, tmp_path, monkeypatch, args):
        def forbidden(*args, **kwargs):
            raise AssertionError("a sweep drew AoDs or simulated channel frames")

        monkeypatch.setattr(cli, "sample_channel", forbidden)
        # every simulated frame goes through run_batches, wherever it is called from
        for module in (montecarlo, cli):
            monkeypatch.setattr(module, "run_batches", forbidden)
        assert run_cli(args + ["--out", str(tmp_path)]) == 0


class TestCommentLine:
    """A comment line records seed, trials and epsilon only where its command reads them."""

    VALUES = {"seed": ["1", "2"], "trials": ["100", "1000"], "epsilon": ["0", "0.5"]}

    @pytest.mark.parametrize(
        "args, unread",
        [
            (["count"], ["seed", "trials", "epsilon"]),
            (["allocate", "--se-points", "4", "--dump-candidates"], ["seed", "trials"]),
            (["pattern", "--points", "5"], ["trials"]),
        ],
        ids=["count", "allocate", "pattern"],
    )
    def test_independent_of_what_the_command_does_not_read(self, tmp_path, args, unread):
        runs = [[f"--{name}", value] for name in unread for value in self.VALUES[name]]
        outputs = set()
        for i, extra in enumerate(runs):
            out = tmp_path / str(i)
            assert run_cli(args + extra + ["--out", str(out)]) == 0
            outputs.add(tuple((p.name, p.read_bytes()) for p in sorted(out.iterdir())))
        assert len(outputs) == 1

    @pytest.mark.parametrize(
        "command, reads",
        [
            ("cdf", ["seed", "trials", "epsilon"]),
            ("pattern", ["seed", "epsilon"]),
            ("sweep-se", ["epsilon"]),
            ("sweep-snr", ["epsilon"]),
            ("allocate", ["epsilon"]),
            ("count", []),
        ],
    )
    def test_records_what_the_command_reads(self, tmp_path, command, reads):
        argv = [command, "--trials", "100", "--se-points", "3"] if command == "cdf" else [command]
        assert run_cli(argv + ["--out", str(tmp_path)]) == 0
        for path in tmp_path.iterdir():
            words = path.read_text().splitlines()[0].split()
            recorded = [w.partition("=")[0] for w in words if w.partition("=")[0] in self.VALUES]
            assert recorded == reads, path.name


class TestHugeTargetSe:
    """Targets of 1024 bits/s/Hz and more overflow gamma to inf, where the CDF is exactly 1."""

    def test_allocate_and_cdf_are_quiet_and_write_one(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli(["allocate", "--se-max", "1e308", "--out", str(tmp_path)]) == 0
            argv = ["cdf", "--target-se", "1024", "--se-max", "1024", "--se-points", "3"]
            assert run_cli(argv + ["--trials", "100", "--out", str(tmp_path)]) == 0
        for tag in cli.DESIGNS:
            assert column(tmp_path / "allocate.csv", f"outage_{tag}")[-1] == 1.0
        for method in cli.METHODS:
            path = tmp_path / f"cdf_{method}.csv"
            assert column(path, "se_bits")[-1] == 1024.0
            assert column(path, "cdf_analytic")[-1] == 1.0


class TestOneParserPerProcess:
    def test_second_call_reuses_the_parser(self, tmp_path, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        snr = ["sweep-snr", "--snr-db", "0,10"]
        assert run_cli(["count", "--out", str(tmp_path / "a")]) == 0
        assert run_cli(snr + ["--out", str(tmp_path / "a")]) == 0
        # a usage error after a successful call still exits 2
        assert run_cli(["sweep-snr", "--snr-db", "5,abc", "--out", str(tmp_path / "a")]) == 2
        assert built.count("panelalloc") == 1
        fresh_python("-m", "panelalloc.cli", *snr, "--out", str(tmp_path / "b"))
        name = "sweep_snr.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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

    @staticmethod
    def traced_peak(args):
        tracemalloc.start()
        try:
            assert run_cli(args) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_pattern_memory_is_flat_in_points(self, tmp_path):
        # one (points, N_t) steering matrix for 20,000 points peaked at 157 MiB,
        # and 1,024-angle pieces of it at 8.7 MiB
        peak = self.traced_peak(["pattern", "--points", "20000", "--out", str(tmp_path)])
        assert peak < 4 * 2**20

    def test_pattern_memory_at_default_points(self, tmp_path):
        # the 721-angle cut of the four designs; a full (721, 256) steering
        # matrix and its temporaries traced 6.6 MiB
        assert self.traced_peak(["pattern", "--out", str(tmp_path)]) < 4 * 2**20

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
