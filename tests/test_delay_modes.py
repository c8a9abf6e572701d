"""Delay modes: what-if transforms of the fixed path delays."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from taskalloc import (
    AllocationKind,
    ConvergenceError,
    DelayMode,
    Scenario,
    ServerSpec,
    activation_thresholds,
    average_latency,
    latency,
    poa_at,
    poa_under_mode,
    solve_optimal,
    solve_under_mode,
    transformed_scenarios,
)

from conftest import random_loads
from test_latency import as_generic
from test_solver import SCENARIO1


def test_mode_scenario_pairs():
    solve_sc, eval_sc = transformed_scenarios(SCENARIO1, DelayMode.WITH_DELAYS)
    assert solve_sc is SCENARIO1 and eval_sc is SCENARIO1

    solve_sc, eval_sc = transformed_scenarios(SCENARIO1, DelayMode.IGNORING_DELAYS)
    assert all(s.d == 0.0 for s in solve_sc.servers)
    assert eval_sc is SCENARIO1

    solve_sc, eval_sc = transformed_scenarios(SCENARIO1, DelayMode.WITHOUT_DELAYS)
    assert solve_sc == eval_sc
    assert all(s.d == 0.0 for s in solve_sc.servers)

    solve_sc, eval_sc = transformed_scenarios(SCENARIO1, DelayMode.UNIFORM_DELAYS)
    mean_d = sum(s.d for s in SCENARIO1.servers) / 3.0
    assert solve_sc == eval_sc
    assert all(s.d == pytest.approx(mean_d, rel=1e-15) for s in solve_sc.servers)
    # untouched fields survive the transform
    assert [s.mu for s in solve_sc.servers] == [s.mu for s in SCENARIO1.servers]


def test_with_delays_reproduces_plain_solver():
    lam = 0.5 * SCENARIO1.total_mu
    moded = solve_under_mode(SCENARIO1, lam, AllocationKind.OPTIMAL, DelayMode.WITH_DELAYS)
    plain = solve_optimal(SCENARIO1, lam)
    assert np.allclose(moded.result.p, plain.p, atol=1e-15)
    assert moded.evaluated_latency == pytest.approx(plain.mean_latency, rel=1e-12)


def test_ignoring_delays_costs_latency_on_scenario1():
    lam = 0.5 * SCENARIO1.total_mu
    truth = solve_under_mode(SCENARIO1, lam, AllocationKind.OPTIMAL, DelayMode.WITH_DELAYS)
    blind = solve_under_mode(SCENARIO1, lam, AllocationKind.OPTIMAL, DelayMode.IGNORING_DELAYS)
    assert np.max(np.abs(blind.result.p - truth.result.p)) > 0.01
    assert blind.evaluated_latency > truth.evaluated_latency + 1e-4
    # the solve itself reports the rosy delay-free latency ...
    assert blind.result.mean_latency < blind.evaluated_latency
    # ... while the evaluation prices the true delays back in
    assert blind.evaluated_latency == pytest.approx(
        average_latency(SCENARIO1, blind.result.p, lam), rel=1e-12)


def test_any_mode_evaluates_no_better_than_true_optimum(corpus):
    rng = np.random.default_rng(8)
    for sc, _ in corpus[:8]:
        lam = float(random_loads(rng, sc, 1)[0])
        truth = solve_under_mode(sc, lam, AllocationKind.OPTIMAL, DelayMode.WITH_DELAYS)
        for mode in DelayMode:
            split = solve_under_mode(sc, lam, AllocationKind.OPTIMAL, mode).result.p
            got = average_latency(sc, split, lam)
            assert got >= truth.evaluated_latency - 1e-9


def test_generic_servers_get_offset_curves(toy):
    shifted = Scenario(tuple(as_generic(ServerSpec.mm1(s.d + 0.25, s.mu)) for s in toy.servers))
    zeroed, _ = transformed_scenarios(shifted, DelayMode.WITHOUT_DELAYS)
    for s, base in zip(zeroed.servers, toy.servers):
        assert s.d == 0.0
        for x in (0.0, 0.3, 0.8 * base.mu):
            assert latency(s, x) == pytest.approx(latency(base, x), rel=1e-12)
    lam = 1.0
    got = solve_under_mode(shifted, lam, AllocationKind.OPTIMAL, DelayMode.WITHOUT_DELAYS)
    want = solve_optimal(toy, lam)
    assert np.allclose(got.result.p, want.p, atol=1e-6)


def test_zero_delay_scenario_is_mode_invariant(toy):
    results = [solve_under_mode(toy, 1.2, AllocationKind.NEP, mode) for mode in DelayMode]
    base = results[0]
    for other in results[1:]:
        assert np.allclose(other.result.p, base.result.p, atol=1e-12)
        assert other.evaluated_latency == pytest.approx(base.evaluated_latency, rel=1e-12)


def test_poa_under_with_delays_matches_poa_at():
    lam = 0.45 * SCENARIO1.total_mu
    moded = poa_under_mode(SCENARIO1, lam, DelayMode.WITH_DELAYS)
    plain = poa_at(SCENARIO1, lam)
    assert moded.eta == pytest.approx(plain.eta, rel=1e-12)
    assert moded.alpha == pytest.approx(plain.alpha, rel=1e-12)
    assert moded.u_opt == pytest.approx(plain.u_opt, rel=1e-12)
    assert (moded.j_opt, moded.j_nep) == (plain.j_opt, plain.j_nep)
    assert moded.rho == pytest.approx(0.45, rel=1e-12)


def test_poa_under_ignoring_delays_is_not_convex():
    # pricing blind splits on the true scenario bends the curve out of shape
    solve_sc, _ = transformed_scenarios(SCENARIO1, DelayMode.IGNORING_DELAYS)
    loads = activation_thresholds(solve_sc, AllocationKind.NEP).loads
    bounds = sorted(set(loads)) + [SCENARIO1.total_mu * 0.999]
    worst = -np.inf
    for a, b in zip(bounds, bounds[1:]):
        xs = np.linspace(a + 1e-6 * (b - a), b - 1e-6 * (b - a), 17)
        etas = [poa_under_mode(SCENARIO1, float(x), DelayMode.IGNORING_DELAYS).eta for x in xs]
        for k in range(len(xs) - 2):
            worst = max(worst, etas[k + 1] - 0.5 * (etas[k] + etas[k + 2]))
    assert worst > 1e-6


@st.composite
def closed_scenario_and_load(draw):
    """A closed-form scenario of 1-9 servers and a load inside its stable region."""
    servers = []
    for _ in range(draw(st.integers(1, 9))):
        d, mu = draw(st.floats(0.0, 0.2)), draw(st.floats(1.0, 300.0))
        model = draw(st.sampled_from(["mm1", "md1", "mg1"]))
        servers.append(ServerSpec.mm1(d, mu) if model == "mm1" else ServerSpec.md1(d, mu) if model == "md1"
                       else ServerSpec.mg1(d, mu, draw(st.floats(0.01, 3.0))))
    sc = Scenario(tuple(servers))
    return sc, draw(st.floats(1e-3, 0.99)) * sc.load_cap


def _optimum_loss(sc, lam):
    """(U(p_ign) - U*, the delay spread max over supp(p_ign) of d - min over supp(p*) of d, U*)."""
    truth = solve_under_mode(sc, lam, AllocationKind.OPTIMAL, DelayMode.WITH_DELAYS)
    blind = solve_under_mode(sc, lam, AllocationKind.OPTIMAL, DelayMode.IGNORING_DELAYS)
    spread = (max(s.d for s, q in zip(sc.servers, blind.result.p) if q > 0.0)
              - min(s.d for s, q in zip(sc.servers, truth.result.p) if q > 0.0))
    return blind.evaluated_latency - truth.evaluated_latency, spread, truth.evaluated_latency


@settings(max_examples=300, deadline=None)
@given(closed_scenario_and_load())
def test_ignoring_delays_costs_the_optimum_at_most_the_delay_spread(case):
    """U = U0 + sum p_i d_i, and p_ign minimizes the delay-free U0, so
    U(p_ign) <= U0(p*) + sum p_ign d = U* - sum p* d + sum p_ign d:
    0 <= U(p_ign) - U* <= max over supp(p_ign) of d - min over supp(p*) of d."""
    sc, lam = case
    try:
        loss, spread, u_opt = _optimum_loss(sc, lam)
    except ConvergenceError:
        reject()  # a split the solver cannot resolve (ROADMAP item 6)
    assert -1e-12 * u_opt <= loss <= spread + 1e-12 * u_opt


def test_the_delay_spread_bound_is_nearly_attained():
    """Blind to delays, every job goes to the fast far server; the optimum keeps them on the
    near one, and the loss is 0.999 of the 10 s delay spread."""
    sc = Scenario((ServerSpec.mm1(0.0, 100.0), ServerSpec.mm1(10.0, 1000.0)))
    loss, spread, _ = _optimum_loss(sc, 1.0)
    assert spread == 10.0
    assert 0.9 * spread <= loss <= spread


def test_ignoring_delays_can_lower_the_equilibrium_latency():
    """No such bound holds for the equilibrium: blind to delays, the selfish split spreads
    over both servers and lands nearer the optimum than the true equilibrium, which keeps
    every job on the near server (0.25 s against 0.2285 s)."""
    sc = Scenario((ServerSpec.mm1(0.0, 20.0), ServerSpec.mm1(0.2, 5.0)))
    truth = solve_under_mode(sc, 16.0, AllocationKind.NEP, DelayMode.WITH_DELAYS)
    blind = solve_under_mode(sc, 16.0, AllocationKind.NEP, DelayMode.IGNORING_DELAYS)
    assert truth.evaluated_latency == pytest.approx(0.25, rel=1e-12)
    assert list(blind.result.p) == pytest.approx([15.5 / 16.0, 0.5 / 16.0], rel=1e-9)
    assert blind.evaluated_latency == pytest.approx((15.5 / 4.5 + 0.5 * (0.2 + 1.0 / 4.5)) / 16.0, rel=1e-9)
    assert blind.evaluated_latency < truth.evaluated_latency - 0.02
