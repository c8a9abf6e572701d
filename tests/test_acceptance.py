"""Acceptance suite: one test per release criterion, with PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Criterion 6 checks that the anarchy ratio has no interior local
maximum between consecutive NEP activations (midpoint quasi-convexity),
which is what the worst-case candidate set needs.  The ratio is not
convex there in general; criterion 6 reports the largest midpoint
convexity excess as context, and the non-convexity itself is asserted by
criterion 4 and by test_convexity_can_fail_between_activations in
test_poa.py.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from taskalloc import (
    AllocationKind,
    DelayMode,
    Scenario,
    ServerSpec,
    SimulationConfig,
    activation_thresholds,
    asymptotic_poa,
    average_latency,
    default_grid,
    invert_latency,
    invert_marginal,
    latency,
    load_scenario_file,
    marginal_cost,
    poa_at,
    poa_sweep,
    poa_under_mode,
    simulate,
    solve_nep,
    solve_optimal,
    solve_under_mode,
    transformed_scenarios,
    validate,
    worst_case_poa,
)
from taskalloc.oracle import OracleConfig, best_response_nep, brute_force_optimal

from conftest import random_loads, random_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"[PRIMARY] criterion {num}: {'PASS' if passed else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def corpus100():
    rng = np.random.default_rng(424242)
    cases = []
    for _ in range(100):
        sc = random_scenario(rng, sizes=(2, 3, 4))
        cases.append((sc, random_loads(rng, sc, 5)))
    return cases


def test_criterion_1_scenario1_reproduction():
    t0 = time.perf_counter()
    sc = load_scenario_file(str(SCENARIOS / "scenario1.json")).scenario
    res = worst_case_poa(sc)
    third_nep = activation_thresholds(sc, AllocationKind.NEP).loads[2]
    at_third = (res.max.lam is not None
                and math.isclose(res.max.lam, third_nep, rel_tol=1e-9))
    in_band = 1.05 <= res.max.eta <= 1.15
    limit = asymptotic_poa(sc)
    limit_ok = abs(limit - 1.0256) <= 0.0005
    elapsed = time.perf_counter() - t0
    ok = at_third and in_band and limit_ok and elapsed < 1.0
    _report(1, ok, f"max eta {res.max.eta:.6f} at {res.max.location}, "
                   f"asymptote {limit:.6f}, {elapsed:.2f}s")
    assert at_third, f"max at {res.max.location}, expected third NEP activation"
    assert in_band, f"eta_max {res.max.eta} outside [1.05, 1.15]"
    assert limit_ok, f"asymptote {limit} not within 1.0256 +/- 0.0005"
    assert elapsed < 1.0


def test_criterion_2_scenario2_reproduction():
    t0 = time.perf_counter()
    sc = load_scenario_file(str(SCENARIOS / "scenario2.json")).scenario
    topt = activation_thresholds(sc, AllocationKind.OPTIMAL).loads
    tnep = activation_thresholds(sc, AllocationKind.NEP).loads
    all_before = max(topt) < tnep[1]
    grid = np.linspace(0.9, 1.1, 21) * tnep[1]
    etas = [poa_at(sc, float(lam)).eta for lam in grid]
    non_decreasing = all(b >= a - 1e-12 for a, b in zip(etas, etas[1:]))
    elapsed = time.perf_counter() - t0
    ok = all_before and non_decreasing and elapsed < 1.0
    _report(2, ok, f"max optimal threshold {max(topt):.4f} < second NEP {tnep[1]:.4f}, "
                   f"eta non-decreasing across it, {elapsed:.2f}s")
    assert all_before
    assert non_decreasing
    assert elapsed < 1.0


def test_criterion_3_scenario3_variance_peaks():
    t0 = time.perf_counter()
    peaks = []
    for cv in (0, 1, 3, 10):
        doc = load_scenario_file(str(SCENARIOS / f"scenario3_cv{cv}.json"))
        sw = doc.sweep
        grid = default_grid(doc.scenario, sw.count, sw.rho_min, sw.rho_max)
        assert len(grid) == 400
        best = max(poa_sweep(doc.scenario, grid).points, key=lambda pt: pt.eta)
        peaks.append((cv, best.eta, best.rho))
    decreasing = all(b[1] < a[1] for a, b in zip(peaks, peaks[1:]))
    locations = all(b[2] <= a[2] + 1e-12 for a, b in zip(peaks, peaks[1:]))
    elapsed = time.perf_counter() - t0
    ok = decreasing and locations and elapsed < 5.0
    detail = ", ".join(f"cv={cv}: {eta:.4f}@rho={rho:.3f}" for cv, eta, rho in peaks)
    _report(3, ok, f"{detail}, {elapsed:.2f}s")
    assert decreasing, f"peaks not strictly decreasing in cv: {peaks}"
    assert locations, f"peak locations not non-increasing: {peaks}"
    assert elapsed < 5.0


def test_criterion_4_scenario4_ignoring_delays():
    t0 = time.perf_counter()
    sc = load_scenario_file(str(SCENARIOS / "scenario1.json")).scenario
    lam = 0.5 * sc.total_mu
    truth = solve_under_mode(sc, lam, AllocationKind.OPTIMAL, DelayMode.WITH_DELAYS)
    blind = solve_under_mode(sc, lam, AllocationKind.OPTIMAL, DelayMode.IGNORING_DELAYS)
    margin = blind.evaluated_latency - truth.evaluated_latency
    positive = margin > 0.0

    solve_sc, _ = transformed_scenarios(sc, DelayMode.IGNORING_DELAYS)
    loads = activation_thresholds(solve_sc, AllocationKind.NEP).loads
    bounds = sorted(set(loads)) + [sc.total_mu * 0.999]
    worst_excess = -math.inf
    for a, b in zip(bounds, bounds[1:]):
        if b <= a + 1e-12:
            continue
        xs = np.linspace(a + 1e-6 * (b - a), b - 1e-6 * (b - a), 17)
        etas = [poa_under_mode(sc, float(x), DelayMode.IGNORING_DELAYS).eta for x in xs]
        for k in range(len(xs) - 2):
            worst_excess = max(worst_excess, etas[k + 1] - 0.5 * (etas[k] + etas[k + 2]))
    non_convex = worst_excess > 1e-9
    elapsed = time.perf_counter() - t0
    ok = positive and non_convex and elapsed < 2.0
    _report(4, ok, f"latency margin +{margin:.5f}s at rho=0.5, "
                   f"max midpoint excess {worst_excess:.2e}, {elapsed:.2f}s")
    assert positive, f"margin {margin} not strictly positive"
    assert non_convex, f"no convexity violation found (max excess {worst_excess})"
    assert elapsed < 2.0


def test_criterion_5_oracle_equivalence(corpus100):
    t0 = time.perf_counter()
    cfg = OracleConfig()
    worst_u = 0.0
    worst_p = 0.0
    for sc, loads in corpus100:
        for lam in loads:
            lam = float(lam)
            opt = solve_optimal(sc, lam)
            p_oracle = brute_force_optimal(sc, lam, cfg)
            u_oracle = average_latency(sc, p_oracle, lam)
            worst_u = max(worst_u, abs(opt.mean_latency - u_oracle) / u_oracle)
            nep = solve_nep(sc, lam)
            p_br = best_response_nep(sc, lam, cfg)
            worst_p = max(worst_p, float(np.max(np.abs(nep.p - p_br))))
    elapsed = time.perf_counter() - t0
    ok = worst_u <= 1e-6 and worst_p <= 1e-5 and elapsed < 60.0
    _report(5, ok, f"500 cases: max |U*-U_oracle|/U {worst_u:.2e} (<=1e-6), "
                   f"max ||p-p_BR||_inf {worst_p:.2e} (<=1e-5), {elapsed:.1f}s")
    assert worst_u <= 1e-6
    assert worst_p <= 1e-5
    assert elapsed < 60.0


def test_criterion_6_structural_properties(corpus100):
    t0 = time.perf_counter()
    gamma_gt_alpha = bound = ordering = dominance = quasi_convexity = 0
    worst_excess = -math.inf

    for sc, loads in corpus100:
        for lam in loads:
            lam = float(lam)
            opt = solve_optimal(sc, lam)
            nep = solve_nep(sc, lam)
            if not opt.multiplier > nep.multiplier:
                gamma_gt_alpha += 1
            if not opt.mean_latency <= opt.multiplier + 1e-12:
                bound += 1
        topt = activation_thresholds(sc, AllocationKind.OPTIMAL).loads
        tnep = activation_thresholds(sc, AllocationKind.NEP).loads
        for o, n_thr in zip(topt, tnep):
            if o > 1e-9:
                if not n_thr > o:
                    ordering += 1
            elif abs(n_thr - o) > 1e-12:
                ordering += 1

        bounds = sorted(set(tnep)) + [sc.total_mu * 0.999]
        for a, b in zip(bounds, bounds[1:]):
            if b <= a + 1e-12 or b <= a * (1 + 1e-12):
                continue
            xs = np.linspace(a + 1e-6 * (b - a), b - 1e-6 * (b - a), 9)
            etas = [poa_at(sc, float(x)).eta for x in xs]
            for k in range(len(xs) - 2):
                worst_excess = max(worst_excess,
                                   etas[k + 1] - 0.5 * (etas[k] + etas[k + 2]))
                if etas[k + 1] > max(etas[k], etas[k + 2]) + 1e-9:
                    quasi_convexity += 1

    rng = np.random.default_rng(77)
    for sc, _ in corpus100:
        best = worst_case_poa(sc).max.eta
        for lam in random_loads(rng, sc, 200):
            if best < poa_at(sc, float(lam)).eta - 1e-6:
                dominance += 1

    elapsed = time.perf_counter() - t0
    ok = gamma_gt_alpha == bound == ordering == dominance == quasi_convexity == 0
    _report(6, ok, f"gamma>alpha {gamma_gt_alpha}, U*<=gamma {bound}, "
                   f"threshold ordering {ordering}, "
                   f"midpoint quasi-convexity {quasi_convexity} "
                   f"(convexity max excess {worst_excess:.2e}, not asserted), "
                   f"worst-case dominance {dominance} over 20000 samples, {elapsed:.1f}s")
    assert gamma_gt_alpha == 0, f"{gamma_gt_alpha} gamma>alpha violations"
    assert bound == 0, f"{bound} U*<=gamma violations"
    assert ordering == 0, f"{ordering} threshold ordering violations"
    assert dominance == 0, f"{dominance} worst-case dominance violations"
    assert quasi_convexity == 0, (
        f"{quasi_convexity} midpoint quasi-convexity violations: the anarchy ratio "
        "has an interior local maximum between consecutive NEP activations, so "
        "worst_case_poa's candidate set (NEP activations and the full-load limit) "
        "can miss the worst case."
    )


def test_criterion_7_simulator_fidelity():
    t0 = time.perf_counter()
    failures = []

    mm1 = Scenario((ServerSpec.mm1(0.0, 10.0),))
    for rho in (0.3, 0.6, 0.9):
        lam = rho * 10.0
        cfg = SimulationConfig(lam=lam, p=(1.0,), horizon_jobs=1_000_000, seed=11,
                               replications=2)
        rep = simulate(mm1, cfg)
        gap = abs(rep.mean_sojourn - 1.0 / (10.0 - lam)) * (10.0 - lam)
        if gap > 0.03:
            failures.append(f"mm1 rho={rho} gap {gap:.3f}")

    lam = 0.8 * 8.0
    for cv in (0.0, 1.0, 3.0):
        sc = Scenario((ServerSpec.mg1(0.0, 8.0, cv),))
        cfg = SimulationConfig(lam=lam, p=(1.0,), horizon_jobs=1_000_000, seed=13,
                               replications=2)
        rep = simulate(sc, cfg)
        pk = (1.0 / 8.0) * (1.0 + (1.0 + cv * cv) / 2.0 * lam / (8.0 - lam))
        gap = abs(rep.mean_sojourn - pk) / pk
        if gap > 0.05:
            failures.append(f"mg1 cv={cv} gap {gap:.3f}")

    doc = load_scenario_file(str(SCENARIOS / "scenario0.json"))
    sc, sim = doc.scenario, doc.simulation
    ci_notes = []
    for rho in (0.2, 0.337, 0.6):  # 1, 2, and 3 active servers at the NEP
        lam = rho * sc.total_mu
        rec = validate(sc, lam, AllocationKind.NEP, sim)
        gap = abs(rec.empirical_latency - rec.analytic_latency)
        ci_notes.append(f"rho={rho}: |gap| {gap:.2e} vs ci {rec.latency_ci:.2e}")
        if gap > rec.latency_ci:
            failures.append(f"scenario0 rho={rho} outside 95% ci")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _report(7, ok, f"mm1 3%, mg1 5%, scenario0 in-ci [{'; '.join(ci_notes)}], {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_8_closed_form_reductions():
    t0 = time.perf_counter()
    base = [(0.040, 15.0), (0.030, 9.0), (0.150, 20.0)]
    worst = 0.0

    def rel(a, b):
        scale = max(abs(a), abs(b))
        return abs(a - b) / scale if scale > 0.0 else 0.0

    pairs = []
    for d, mu in base:
        pairs.append((ServerSpec.mg1(d, mu, 1.0), ServerSpec.mm1(d, mu)))
        pairs.append((ServerSpec.mg1(d, mu, 0.0), ServerSpec.md1(d, mu)))
    for a, b in pairs:
        for x in np.linspace(0.0, 0.98 * a.mu, 50):
            x = float(x)
            worst = max(worst, rel(latency(a, x), latency(b, x)))
            worst = max(worst, rel(marginal_cost(a, x), marginal_cost(b, x)))
        for target in np.linspace(1.02, 8.0, 50):
            t = a.d + target / a.mu
            worst = max(worst, rel(invert_latency(a, t), invert_latency(b, t)))
            worst = max(worst, rel(invert_marginal(a, t), invert_marginal(b, t)))

    for make in (lambda d, mu: ServerSpec.mg1(d, mu, 1.0), lambda d, mu: ServerSpec.mg1(d, mu, 0.0)):
        twin_model = ServerSpec.mm1 if make(1.0, 1.0).cv == 1.0 else ServerSpec.md1
        sc_g = Scenario(tuple(make(d, mu) for d, mu in base))
        sc_c = Scenario(tuple(twin_model(d, mu) for d, mu in base))
        for kind in AllocationKind:
            tg = activation_thresholds(sc_g, kind).loads
            tc = activation_thresholds(sc_c, kind).loads
            worst = max(worst, max(rel(x, y) for x, y in zip(tg, tc)))
        for lam in np.linspace(0.02, 0.98, 50) * sc_g.total_mu:
            lam = float(lam)
            for solver in (solve_optimal, solve_nep):
                rg, rc = solver(sc_g, lam), solver(sc_c, lam)
                worst = max(worst, rel(rg.multiplier, rc.multiplier))
                worst = max(worst, rel(rg.mean_latency, rc.mean_latency))
                worst = max(worst, max(rel(x, y) for x, y in zip(rg.p, rc.p)))
                assert rg.active_count == rc.active_count

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12
    _report(8, ok, f"max relative difference {worst:.2e} (<=1e-12), {elapsed:.2f}s")
    assert worst <= 1e-12
