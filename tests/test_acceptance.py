"""Acceptance gate: one test per criterion, at the stated tolerance.

Each test prints a single PASS/FAIL line (run pytest with ``-s`` or ``-rA``
to see them all). The baseline scenario is the default SystemConfig; the
optimizer-driven methods are instantiated at target SE 1.0 unless the
criterion says otherwise.

Criterion 9 checks realistic mode against an exact oracle, in two parts.
Realistic mode draws one blockage probability p_hat ~ U(p_min, p_max) per
frame, shared by every path, so all served paths are blocked with
probability E[p_hat^n_b], more often than the analytic atom p_blk^n_b of the
independent law (0.0387 against 0.0256 for n_b = 4, 0.0800 against 0.0640
for n_b = 3). Blocked served paths keep diffracted energy, so that mass
disperses to SE near 0.015, still below 0.1. Hence:

(a) at SE 0.1, the Monte Carlo mass lies within 5 binomial standard errors
    of the exact value from tests/util.py (for fixed AoDs, h_eq given the
    blocked set is complex Gaussian; the pattern weights are polynomials in
    p_hat, integrated exactly). Exact / atom: los 0.39681 / 0.4, uniform
    0.04226 / 0.0256, outmin 0.04217 / 0.0256, outmin_ase 0.08296 / 0.064.
(b) at SE 1e-3, the Monte Carlo mass is strictly below the atom, where
    idealized fades add at most 4e-5 above it: measured 0.0191 / 0.0025 /
    0.0028 / 0.0040 against 0.4 / 0.0256 / 0.0256 / 0.064.

Nulling blocked served paths breaks (b): the uniform design's mass below
1e-3 would be 0.0387. Independent blockage at p_blk breaks (a): its mass at
0.1 would be about 0.029, some 65 standard errors from the exact 0.04226.
"""

import math
import time

import numpy as np
import pytest

from panelalloc import (
    PanelAllocation,
    SystemConfig,
    allocation_array,
    average_rsnr,
    average_se_upper_bound,
    empirical_outage,
    ks_distance,
    los_concentration,
    maximize_average_se,
    optimize_outmin,
    optimize_outmin_ase,
    pattern_count,
    rsnr_mixture,
    run_trials,
    sample_channel,
    se_cdf,
    uniform_allocation,
)
from util import composition_count, realistic_se_cdf

TRIALS = 10**6
METHOD_TARGET_SE = 1.0
SEED = 20250810


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {number:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    return ok


@pytest.fixture(scope="module")
def baseline():
    return SystemConfig()


@pytest.fixture(scope="module")
def aods(baseline):
    return sample_channel(baseline, rng=np.random.default_rng(7)).aods


@pytest.fixture(scope="module")
def methods(baseline):
    return {
        "los": los_concentration(baseline),
        "uniform": uniform_allocation(baseline),
        "outmin": optimize_outmin(baseline, METHOD_TARGET_SE).chosen,
        "outmin_ase": optimize_outmin_ase(baseline, METHOD_TARGET_SE, 0.05).chosen,
    }


@pytest.fixture(scope="module")
def ideal_million(baseline, aods, methods):
    """Idealized 1e6-trial batches per method, with the simulation runtime."""
    start = time.perf_counter()
    results = {
        name: run_trials(baseline, alloc, aods, "idealized", TRIALS, SEED)
        for name, alloc in methods.items()
    }
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_ks_agreement(baseline, methods, ideal_million):
    results, elapsed = ideal_million
    start = time.perf_counter()
    distances = {}
    for name, alloc in methods.items():
        mix = rsnr_mixture(alloc, baseline)
        distances[name] = ks_distance(results[name], lambda x: se_cdf(mix, x))
    elapsed += time.perf_counter() - start
    worst = max(distances.values())
    ok = worst <= 0.005 and elapsed < 60.0
    detail = (
        "KS(analytic, idealized MC) " + ", ".join(f"{k}={v:.5f}" for k, v in distances.items())
        + f"; max={worst:.5f} <= 0.005; runtime {elapsed:.1f}s < 60s"
    )
    assert report(1, ok, detail)


def test_criterion_2_zero_se_atoms(ideal_million):
    results, _ = ideal_million
    los_frac = float(np.mean(results["los"].se_samples == 0.0))
    uni_frac = float(np.mean(results["uniform"].se_samples == 0.0))
    ok = abs(los_frac - 0.4) <= 0.005 and abs(uni_frac - 0.0256) <= 0.002
    detail = f"zero-SE atoms: los={los_frac:.5f} (0.4 +- 0.005), uniform={uni_frac:.5f} (0.0256 +- 0.002)"
    assert report(2, ok, detail)


def test_criterion_3_average_se_maximizer(baseline):
    chosen = maximize_average_se(baseline)
    rows = allocation_array(baseline.n_p, baseline.num_paths).tolist()
    candidates = [PanelAllocation(tuple(row)) for row in rows]
    scores = [(average_rsnr(a, baseline), a.q) for a in candidates]
    best_score = max(s for s, _ in scores)
    argmax = [q for s, q in scores if s == best_score]
    ok = chosen.q == (8, 0, 0, 0) and argmax == [(8, 0, 0, 0)] and len(candidates) == 120
    detail = f"maximizer={chosen.q}, unique argmax over {len(candidates)} candidates: {argmax}"
    assert report(3, ok, detail)


def test_criterion_4_enumeration_counts():
    ok = True
    max_count = 0
    for n_p in range(1, 17):
        for L in range(2, 9):
            closed = pattern_count(n_p, L)
            recursive = composition_count(n_p, L, 1)
            enumerated = len(allocation_array(n_p, L))
            if not (closed == recursive == enumerated):
                ok = False
            max_count = max(max_count, closed)
    ok = ok and max_count <= 10**6
    detail = (
        f"counts match recursion and enumeration on (n_p, L) in [1,16]x[2,8]; "
        f"max C={max_count} <= 1e6 (N_a=32, N_t <= 512)"
    )
    assert report(4, ok, detail)


def test_criterion_5_outage_dominance(baseline):
    grid = np.linspace(0.25, 8.0, 33)
    epsilon = 0.05
    los, uni = los_concentration(baseline), uniform_allocation(baseline)
    mix_los = rsnr_mixture(los, baseline)
    mix_uni = rsnr_mixture(uni, baseline)
    ok = True
    for xi in grid:
        alg1 = optimize_outmin(baseline, float(xi))
        alg2 = optimize_outmin_ase(baseline, float(xi), epsilon)
        reference = min(float(se_cdf(mix_los, xi)), float(se_cdf(mix_uni, xi)))
        if alg1.outage > reference + 1e-12:
            ok = False
        if alg2.outage > alg1.outage + epsilon + 1e-12:
            ok = False
    detail = f"33-point grid: Alg1 <= min(LoS, Uniform) and Alg2 <= Alg1 + {epsilon}"
    assert report(5, ok, detail)


def test_criterion_6_regime_switch(baseline):
    # frozen regression: single-beam regime begins at xi* ~ 5.4462
    below = [0.25, 2.0, 4.0, 5.0, 5.446]
    above = [5.447, 6.0, 7.0, 8.0]
    multi_ok = all(optimize_outmin(baseline, xi).chosen.n_b >= 2 for xi in below)
    single_ok = all(optimize_outmin(baseline, xi).chosen.q == (8, 0, 0, 0) for xi in above)
    ok = multi_ok and single_ok
    detail = (
        "Alg1 multi-beam for xi_th <= 5.446, q=(8,0,0,0) for xi_th >= 5.447 "
        "(frozen switch point xi* ~ 5.4462)"
    )
    assert report(6, ok, detail)


def test_criterion_7_glos_nonmonotone(baseline):
    grid = np.linspace(0.25, 8.0, 33)
    curve = np.array(
        [optimize_outmin_ase(baseline, float(xi), 0.05).g_los for xi in grid]
    )
    m = int(np.argmin(curve))
    prefix_decreasing = np.all(np.diff(curve[: m + 1]) <= 0) and curve[0] > curve[m]
    suffix_increasing = np.all(np.diff(curve[m:]) >= 0) and curve[-1] == 1.0
    interior_min = 0 < m < len(curve) - 1
    ok = bool(prefix_decreasing and suffix_increasing and interior_min)
    detail = (
        f"G_LoS starts {curve[0]:.3f}, dips to {curve[m]:.3f} at xi={grid[m]:.2f}, "
        f"ends {curve[-1]:.1f}: decreasing prefix, increasing suffix to 1.0"
    )
    assert report(7, ok, detail)


def test_criterion_8_average_rsnr_formula(baseline, aods):
    gen = np.random.default_rng(123)
    candidates = allocation_array(baseline.n_p, baseline.num_paths)
    picks = gen.choice(len(candidates), size=10, replace=False)
    worst = 0.0
    for i, idx in enumerate(picks):
        alloc = PanelAllocation(tuple(candidates[idx].tolist()))
        result = run_trials(baseline, alloc, aods, "idealized", TRIALS, SEED + 1 + i)
        expected = average_rsnr(alloc, baseline)
        worst = max(worst, abs(result.mean_rsnr - expected) / expected)
    ok = worst <= 0.01
    detail = f"max |MC mean RSNR - closed form| / closed form = {worst:.4f} <= 0.01 over 10 allocations"
    assert report(8, ok, detail)


def test_criterion_9_realistic_low_se_mass(baseline, aods, methods):
    rows = []
    ok = True
    for name, alloc in methods.items():
        result = run_trials(baseline, alloc, aods, "realistic", TRIALS, SEED)
        mass = empirical_outage(result, 0.1)
        exact = float(realistic_se_cdf(baseline, alloc, aods, 0.1))
        sigma = math.sqrt(exact * (1.0 - exact) / TRIALS)
        dispersed = empirical_outage(result, 1e-3)
        atom = baseline.p_blk**alloc.n_b
        agrees = abs(mass - exact) <= 5.0 * sigma
        disperses = dispersed < atom
        ok = ok and agrees and disperses
        rows.append(
            f"{name}: mass(SE<0.1)={mass:.5f} vs exact={exact:.5f} "
            f"({(mass - exact) / sigma:+.1f} sigma), "
            f"mass(SE<1e-3)={dispersed:.5f} {'<' if disperses else '>='} atom={atom:.5f}"
        )
    detail = "realistic MC vs exact oracle within 5 sigma, atom dispersed; " + "; ".join(rows)
    assert report(9, ok, detail)


def test_criterion_10_jensen_gap(baseline, aods, methods):
    from dataclasses import replace

    trials = 2 * 10**5
    worst_violation = -math.inf
    ok = True
    for snr_db in (0.0, 5.0, 10.0, 15.0, 20.0):
        cfg = replace(baseline, tx_snr=10.0 ** (snr_db / 10.0))
        for name in methods:
            if name == "outmin":
                alloc = optimize_outmin(cfg, METHOD_TARGET_SE).chosen
            elif name == "outmin_ase":
                alloc = optimize_outmin_ase(cfg, METHOD_TARGET_SE, 0.05).chosen
            elif name == "los":
                alloc = los_concentration(cfg)
            else:
                alloc = uniform_allocation(cfg)
            bound = average_se_upper_bound(alloc, cfg)
            mc = run_trials(cfg, alloc, aods, "idealized", trials, SEED)
            worst_violation = max(worst_violation, mc.mean_se - bound)
            if mc.mean_se > bound:
                ok = False
    detail = (
        f"Jensen bound >= MC mean SE for 4 methods x 5 SNRs; "
        f"max (mean - bound) = {worst_violation:.4f} <= 0"
    )
    assert report(10, ok, detail)
