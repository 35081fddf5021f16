"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
SMALL_TRIALS = 2000


def test_self_times_of_nested_spans():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert tracer.self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_times_add_up_to_the_root_span():
    t = tracer.Tracer()
    inner = t.wrap("analytic.inner", lambda: sum(range(1000)))

    def outer_fn():
        return inner() + inner()

    outer = t.wrap("optimizer.outer", outer_fn)
    outer()
    own = tracer.self_times(t.parents, t.starts, t.ends)
    assert list(t.parents) == [-1, 0, 0]
    assert sum(own) == pytest.approx(t.ends[0] - t.starts[0], rel=1e-12)


def battery_pass(tmp_path, monkeypatch, reference, traced=False):
    monkeypatch.setattr(workloads, "BATTERY_TRIALS", SMALL_TRIALS)
    t = tracer.Tracer()
    undo = tracer.install(t) if traced else (lambda: None)
    try:
        checker = checks.Checker(reference, checks.read_scenario(workloads.BASELINE))
        outcome = workloads.run_battery(tmp_path, 7, checker)
    finally:
        undo()
    workloads.finish(outcome)
    return outcome, t


def test_wrappers_see_every_battery_call(tmp_path, monkeypatch):
    outcome, t = battery_pass(tmp_path, monkeypatch, REFERENCE["battery"], traced=True)
    metrics = tracer.layer_metrics(t)
    assert metrics["montecarlo.run_trials.calls"] == 104
    assert metrics["montecarlo.run_trials.useful_ratio"] == pytest.approx(28 / 104)
    assert metrics["optimizer.enumerate.calls"] == 150
    assert metrics["optimizer.enumerate.useful_ratio"] == pytest.approx(1 / 150)
    assert metrics["cli.commands"] == 7
    assert all(not op.failures for op in outcome.ops)


def test_corrupted_reference_value_fails_its_check(tmp_path, monkeypatch):
    clean, _ = battery_pass(tmp_path / "clean", monkeypatch, REFERENCE["battery"])
    assert run.tally([{"ops": [vars(op) for op in clean.ops]}]) == (7, 0)

    corrupted = copy.deepcopy(REFERENCE["battery"])
    counts = corrupted["files"]["count.csv"]["columns"]["count"]
    counts[3] *= 1.0 + 1e-6
    dirty, _ = battery_pass(tmp_path / "dirty", monkeypatch, corrupted)
    failed = [op.name for op in dirty.ops if op.failures]
    assert failed == ["count"]
    assert run.tally([{"ops": [vars(op) for op in dirty.ops]}]) == (7, 1)


def test_dkw_band_rejects_a_shifted_cdf():
    checker = checks.Checker({}, checks.read_scenario(workloads.BASELINE))
    analytic = [0.1, 0.5, 0.9]
    eps = checks.dkw_epsilon(10_000)
    assert checker.dkw("x", [0.1, 0.5, 0.9 + eps / 2], analytic, 10_000) == []
    assert checker.dkw("x", [0.1, 0.5 + 2 * eps, 0.9], analytic, 10_000) != []


def test_independent_model_matches_recorded_analytic_cdf():
    scenario = checks.read_scenario(workloads.BASELINE)
    entry = REFERENCE["battery"]["files"]["cdf_target1/cdf_uniform.csv"]["columns"]
    mix = checks.mixture(REFERENCE["oracle"]["designs"]["uniform"]["q"], scenario)
    got = checks.se_cdf(mix, entry["se_bits"])
    assert checks.compare_reference("cdf", got, entry["cdf_analytic"]) == []


def test_seed_program_matches_recorded_digest():
    assert checks.program_sha256(workloads.SEEDPROG) == REFERENCE["seedprog_sha256"]
