"""Ordering, activation thresholds, and the two equalization solvers."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taskalloc import (
    AllocationKind,
    ConvergenceError,
    InfeasibleLoadError,
    InversionError,
    QueueModel,
    Scenario,
    ServerSpec,
    SolverConfig,
    activation_thresholds,
    average_latency,
    invert_latency,
    invert_marginal,
    latency,
    marginal_cost,
    solve_nep,
    solve_optimal,
    sort_servers,
    zero_load_latency,
)
from taskalloc.latency import _UserInverse, closed_invert_latency, closed_invert_marginal
from taskalloc.solver import _invert_or_zero, _settled_remaining, _solve

from conftest import random_loads, random_scenario
from test_latency import as_generic, power_server

TOL = 10e-12  # 10 times the default resolution

SCENARIO1 = Scenario((ServerSpec.mm1(0.040, 15.0), ServerSpec.mm1(0.030, 9.0),
                      ServerSpec.mm1(0.150, 20.0)))


def test_sort_servers_examples():
    assert sort_servers(SCENARIO1) == (0, 1, 2)
    two = Scenario((ServerSpec.mm1(0.030, 9.0), ServerSpec.mm1(0.040, 15.0)))
    assert sort_servers(two) == (1, 0)
    assert sort_servers(Scenario((ServerSpec.mm1(0.0, 1.0),))) == (0,)


def test_sort_is_stable_on_ties():
    sc = Scenario((ServerSpec.mm1(0.1, 5.0), ServerSpec.mm1(0.1, 5.0),
                   ServerSpec.mm1(0.0, 2.0)))
    assert sort_servers(sc) == (0, 1, 2)


def test_threshold_examples(toy):
    topt = activation_thresholds(toy, AllocationKind.OPTIMAL)
    tnep = activation_thresholds(toy, AllocationKind.NEP)
    assert topt.loads[0] == 0.0 and tnep.loads[0] == 0.0
    assert topt.loads[1] == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-13)
    assert tnep.loads[1] == pytest.approx(1.0, rel=1e-13)

    s1 = activation_thresholds(SCENARIO1, AllocationKind.OPTIMAL)
    assert s1.loads[0] == 0.0

    twins = Scenario((ServerSpec.mm1(0.01, 3.0), ServerSpec.mm1(0.01, 3.0)))
    for kind in AllocationKind:
        assert activation_thresholds(twins, kind).loads == (0.0, 0.0)


def test_scenario1_threshold_values():
    topt = activation_thresholds(SCENARIO1, AllocationKind.OPTIMAL)
    tnep = activation_thresholds(SCENARIO1, AllocationKind.NEP)
    assert np.allclose(topt.loads, [0.0, 2.8200308558827465, 7.041472883391469], rtol=1e-12)
    assert np.allclose(tnep.loads, [0.0, 5.109890109890108, 11.867647058823529], rtol=1e-12)


def test_solve_optimal_examples(toy):
    res = solve_optimal(toy, 1.0)
    assert res.p == pytest.approx([0.8284271247461901, 0.17157287525380982], abs=1e-9)
    assert res.multiplier == pytest.approx(1.4571067811865475, rel=1e-10)
    assert res.mean_latency == pytest.approx(0.9142135623730949, rel=1e-10)
    assert res.active_count == 2

    single = Scenario((ServerSpec.mm1(0.02, 10.0),))
    res = solve_optimal(single, 4.0)
    assert res.p == pytest.approx([1.0], abs=0.0)
    assert res.mean_latency == pytest.approx(0.02 + 1.0 / 6.0, rel=1e-14)

    twins = Scenario((ServerSpec.mm1(0.0, 1.0), ServerSpec.mm1(0.0, 1.0)))
    res = solve_optimal(twins, 1.0)
    assert res.p == pytest.approx([0.5, 0.5], abs=1e-12)
    assert res.mean_latency == pytest.approx(2.0, rel=1e-12)


def test_solve_nep_examples(toy):
    res = solve_nep(toy, 1.5)
    assert res.multiplier == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert res.p == pytest.approx([5.0 / 6.0, 1.0 / 6.0], abs=1e-10)

    # at the exact activation threshold the new server still idles
    res = solve_nep(toy, 1.0)
    assert res.active_count == 1
    assert res.p[1] == 0.0
    assert res.multiplier == pytest.approx(1.0, rel=1e-13)

    twins = Scenario((ServerSpec.mm1(0.0, 1.0), ServerSpec.mm1(0.0, 1.0)))
    res = solve_nep(twins, 1.0)
    assert res.p == pytest.approx([0.5, 0.5], abs=1e-12)
    assert res.mean_latency == pytest.approx(2.0, rel=1e-12)


def test_optimal_boundary_convention(toy):
    lam = 2.0 - math.sqrt(2.0)
    res = solve_optimal(toy, lam)
    assert res.active_count == 1
    assert res.p[1] == 0.0


def test_average_latency_examples(toy):
    assert average_latency(toy, [1.0, 0.0], 1.0) == pytest.approx(1.0, rel=1e-15)
    assert average_latency(toy, [1.0, 0.0], 1e-9) == pytest.approx(0.5, rel=1e-6)
    p_star = [0.8284271247461901, 0.17157287525380982]
    assert average_latency(toy, p_star, 1.0) == pytest.approx(0.9142135623730949, rel=1e-12)


def test_average_latency_errors(toy):
    from taskalloc import DomainError
    with pytest.raises(DomainError):
        average_latency(toy, [0.2, 0.8], 1.5)  # second server overloaded
    with pytest.raises(DomainError):
        average_latency(toy, [0.7, 0.7], 1.0)  # not on the simplex
    with pytest.raises(DomainError, match=r"shape \(3,\), expected \(2,\)"):
        average_latency(toy, [0.5, 0.25, 0.25], 1.0)


def test_infeasible_loads(toy):
    for lam in (0.0, -1.0, 3.0, 2.9999999999):
        with pytest.raises(InfeasibleLoadError):
            solve_optimal(toy, lam)
        with pytest.raises(InfeasibleLoadError):
            solve_nep(toy, lam)


def test_tiny_loads_on_tied_servers_raise():
    """Splits the multiplier cannot resolve raise instead of leaving the simplex.

    At these loads the split used to come back with sum(p) from 0 to 1.07
    (and 7.9e8 with the third server); from about 3e-7 jobs/s on it is exact.
    """
    tied = Scenario((ServerSpec.mm1(0.01, 5.0), ServerSpec.mm1(0.01, 5.0)))
    for lam in (1e-16, 1e-14, 1e-12, 1e-10, 1e-9):
        for solve in (solve_optimal, solve_nep):
            with pytest.raises(ConvergenceError, match="could not be resolved"):
                solve(tied, lam)
    for solve in (solve_optimal, solve_nep):
        res = solve(tied, 1e-4)
        assert res.p == pytest.approx([0.5, 0.5], abs=1e-9)
        assert abs(res.p.sum() - 1.0) <= 1e-9
    with pytest.raises(ConvergenceError):
        solve_optimal(Scenario(tied.servers + (ServerSpec.mg1(0.05, 3.0, 2.0),)), 1e-20)
    # at a denormal load the split is checked before p = rates / lam could overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as exc:
            solve_optimal(Scenario(tied.servers + (ServerSpec.mg1(0.05, 3.0, 2.0),)), 5e-324)
    assert str(exc.value) == (
        "the optimal split of arrival rate 5e-324 sums to inf, not 1: "
        "the multiplier could not be resolved finely enough at this load"
    )


def test_results_reported_in_input_order():
    shuffled = Scenario((SCENARIO1.servers[2], SCENARIO1.servers[0], SCENARIO1.servers[1]))
    assert sort_servers(shuffled) == (1, 2, 0)
    lam = 20.0
    base = solve_optimal(SCENARIO1, lam)
    perm = solve_optimal(shuffled, lam)
    assert perm.p[1] == pytest.approx(base.p[0], rel=1e-12)
    assert perm.p[2] == pytest.approx(base.p[1], rel=1e-12)
    assert perm.p[0] == pytest.approx(base.p[2], rel=1e-12)
    assert perm.multiplier == pytest.approx(base.multiplier, rel=1e-12)


def _check_kkt(sc, lam, res):
    gamma = res.multiplier
    order = res.order
    for pos, idx in enumerate(order):
        s = sc.servers[idx]
        x = res.p[idx] * lam
        if pos < res.active_count:
            assert res.p[idx] > 0.0
            assert abs(marginal_cost(s, x) - gamma) <= TOL * max(1.0, gamma)
        else:
            assert res.p[idx] == 0.0
            assert zero_load_latency(s) >= gamma - TOL * max(1.0, gamma)


def test_kkt_and_equalization_on_corpus(corpus):
    for sc, loads in corpus:
        for lam in loads:
            opt = solve_optimal(sc, lam)
            assert abs(float(opt.p.sum()) - 1.0) <= TOL
            assert np.all(opt.p >= 0.0)
            assert np.all(opt.p * lam < [s.mu for s in sc.servers])
            _check_kkt(sc, lam, opt)

            nep = solve_nep(sc, lam)
            alpha = nep.multiplier
            assert abs(float(nep.p.sum()) - 1.0) <= TOL
            for pos, idx in enumerate(nep.order):
                s = sc.servers[idx]
                if pos < nep.active_count:
                    lat = latency(s, nep.p[idx] * lam)
                    assert abs(lat - alpha) <= TOL * max(1.0, alpha)
                else:
                    assert zero_load_latency(s) >= alpha - TOL * max(1.0, alpha)

            # multiplier bounds and the optimality gap between the two regimes
            assert opt.mean_latency <= opt.multiplier + TOL
            assert opt.multiplier > nep.multiplier
            assert opt.mean_latency <= nep.mean_latency + TOL


def test_perturbations_never_beat_the_optimum(corpus):
    rng = np.random.default_rng(3)
    for sc, loads in corpus[:15]:
        lam = float(loads[0])
        res = solve_optimal(sc, lam)
        u_star = res.mean_latency
        n = len(sc.servers)
        caps = np.array([s.mu * (1.0 - sc.config.eps_sat) for s in sc.servers])
        for _ in range(20):
            i, j = rng.choice(n, size=2, replace=False)
            step = min(1e-3, res.p[i], (caps[j] - res.p[j] * lam) / lam)
            if step <= 0.0:
                continue
            q = res.p.copy()
            q[i] -= step
            q[j] += step
            assert average_latency(sc, q, lam) >= u_star - 1e-9


def test_nep_thresholds_dominate_optimal_on_corpus(corpus):
    for sc, _ in corpus:
        topt = activation_thresholds(sc, AllocationKind.OPTIMAL)
        tnep = activation_thresholds(sc, AllocationKind.NEP)
        assert topt.loads[0] == 0.0 and tnep.loads[0] == 0.0
        assert all(b >= a for a, b in zip(topt.loads, topt.loads[1:]))
        assert all(b >= a for a, b in zip(tnep.loads, tnep.loads[1:]))
        for opt_thr, nep_thr in zip(topt.loads, tnep.loads):
            if opt_thr == 0.0:
                assert nep_thr == 0.0
            else:
                assert nep_thr > opt_thr


def test_monotone_activation(corpus):
    for sc, _ in corpus[:10]:
        grid = np.linspace(0.01, 0.99, 40) * sc.total_mu
        for solver in (solve_optimal, solve_nep):
            counts = [solver(sc, lam).active_count for lam in grid]
            assert all(b >= a for a, b in zip(counts, counts[1:]))
            for lam, count in zip(grid, counts):
                res = solver(sc, lam)
                loaded = [idx for pos, idx in enumerate(res.order) if res.p[idx] > 0.0]
                assert set(loaded) == set(res.order[:count])


def test_generic_solve_matches_closed_form():
    sc = SCENARIO1
    gen = Scenario(tuple(as_generic(s) for s in sc.servers))
    for lam in (3.0, 10.0, 25.0, 40.0):
        for solver in (solve_optimal, solve_nep):
            a = solver(sc, lam)
            b = solver(gen, lam)
            assert b.active_count == a.active_count
            assert b.multiplier == pytest.approx(a.multiplier, rel=1e-9)
            assert b.p == pytest.approx(a.p, abs=1e-7)
            assert b.mean_latency == pytest.approx(a.mean_latency, rel=1e-9)


@st.composite
def tied_scenario(draw):
    """Servers from a small pool, so zero-load latencies tie often (0.05 + 1/20 = 0 + 1/10)."""
    servers = []
    for _ in range(draw(st.integers(1, 8))):
        d = draw(st.sampled_from([0.0, 0.05, 0.1]))
        mu = draw(st.sampled_from([5.0, 10.0, 20.0]))
        servers.append(draw(st.sampled_from([
            ServerSpec.mm1(d, mu), ServerSpec.md1(d, mu), ServerSpec.mg1(d, mu, 0.5),
            as_generic(ServerSpec.mm1(d, mu)),
        ])))
    return Scenario(tuple(servers), SolverConfig(eps_sat=draw(st.floats(1e-12, 0.5))))


@settings(max_examples=200, deadline=None, database=None)
@given(tied_scenario(), st.floats(1e-12, 0.5), st.floats(0.05, 0.95))
def test_derived_scenario_state(sc, eps_sat, frac):
    servers = sc.servers
    assert sort_servers(sc) == tuple(sorted(range(len(servers)), key=lambda i: servers[i].z0))
    assert sc.total_mu.hex() == float(sum(s.mu for s in servers)).hex()
    assert sc.load_cap.hex() == ((1.0 - sc.config.eps_sat) * sc.total_mu).hex()
    assert sc.has_generic() == any(s.model is QueueModel.GENERIC for s in servers)

    # derived once and kept out of ==, hash and repr
    twin = Scenario(list(servers), sc.config)
    for name in ("_order", "total_mu", "load_cap", "_generic"):
        object.__setattr__(twin, name, None)
    assert twin == sc and hash(twin) == hash(sc)
    assert repr(sc) == f"Scenario(servers={servers!r}, config={sc.config!r})"

    # replace derives afresh and takes no derived field
    moved = replace(sc, config=SolverConfig(eps_sat=eps_sat))
    assert moved.load_cap.hex() == ((1.0 - eps_sat) * sc.total_mu).hex()
    assert sort_servers(moved) == sort_servers(sc)
    with pytest.raises(ValueError):
        replace(sc, load_cap=1.0)

    # every table and result shares the scenario's order tuple
    lam = frac * sc.load_cap
    for kind in AllocationKind:
        table = activation_thresholds(sc, kind)
        assume(all(abs(lam - t) > 1e-6 * lam for t in table.loads))
        assert table.order is sort_servers(sc)
        assert _solve(sc, lam, kind).order is sort_servers(sc)


def test_scenario_requires_servers():
    with pytest.raises(ValueError):
        Scenario(())


@pytest.mark.parametrize("bad", [
    dict(resolution=0.0), dict(resolution=-1e-12), dict(resolution=math.inf),
    dict(resolution=math.nan), dict(eps_sat=0.0), dict(eps_sat=1.0), dict(eps_sat=math.nan),
])
def test_solver_config_validation(bad):
    with pytest.raises(ValueError):
        SolverConfig(**bad)


def test_faulty_generic_curve_is_not_read_as_saturation():
    """An exception inside a user curve propagates; it is not a saturated server."""

    def buggy_latency(x):
        if x > 1.5:
            raise ZeroDivisionError("bug in the user curve")
        return 1.0 / (2.0 - x)

    faulty = ServerSpec.from_functions(0.0, 2.0, buggy_latency, lambda x: 1.0 / (2.0 - x) ** 2)
    sc = Scenario((faulty, ServerSpec.mm1(0.0, 1.0)))
    # the true split activates the second server at lam = 1; a fault read as
    # saturation would put that threshold at 2 and return p = [1, 0]
    with pytest.raises(ZeroDivisionError):
        solve_nep(sc, 1.2)


def _patchy_scenario(lo, hi):
    """A user curve 1/(1 - x) that raises on x in (lo, hi), between two MM1 servers."""

    def patchy_latency(x):
        if lo < x < hi:
            raise ValueError(f"curve undefined at x = {x!r}")
        return 1.0 / (1.0 - x)

    patchy = ServerSpec.from_functions(0.0, 1.0, patchy_latency, lambda x: 1.0 / (1.0 - x) ** 2)
    return Scenario((ServerSpec.mm1(0.0, 2.0), patchy, ServerSpec.mm1(0.0, 0.5)))


def test_user_curve_raising_inside_the_multiplier_bisection():
    """A fault the threshold table never reaches propagates from the bisection as raised.

    The curve fails only on x in (0.105, 0.11).  Inverting it at the threshold
    table's targets, or at the bracket's low end, never probes there; the
    bisection, closing in on the split's rate 1/12, does before its sign settles.
    """
    sc = _patchy_scenario(0.105, 0.11)
    assert activation_thresholds(sc, AllocationKind.NEP).loads[1] == 1.0
    with pytest.raises(ValueError) as exc:
        solve_nep(sc, 1.2)
    assert str(exc.value) == "curve undefined at x = 0.109374999890625"
    assert "_bisect_multiplier" in [entry.name for entry in exc.traceback]
    assert "activation_thresholds" not in [entry.name for entry in exc.traceback]


def test_user_curve_is_not_called_past_a_settled_sign():
    """A rate a full inversion would probe, but no open sign needs, is never asked for.

    Inverting the curve fully at the bisection's first midpoint (latency 1.5)
    probes x = 0.3125 on its way to 1/3.  The other active server alone then
    carries more than the load, so that step's sign is settled before the
    curve is called, and the fault on (0.3, 0.32) changes no bit.
    """
    faulty, clean = solve_nep(_patchy_scenario(0.3, 0.32), 1.2), solve_nep(_patchy_scenario(2.0, 3.0), 1.2)
    assert [float(q).hex() for q in faulty.p] == [float(q).hex() for q in clean.p]
    assert (faulty.multiplier.hex(), faulty.mean_latency.hex()) == (clean.multiplier.hex(), clean.mean_latency.hex())


@st.composite
def user_curve_residual_case(draw):
    """2-6 servers, 1..n of them user curves, a kind and a load that ``_solve`` solves."""
    n = draw(st.integers(2, 6))
    servers = []
    for _ in range(n):
        d, mu = draw(st.floats(0.0, 0.2)), draw(st.floats(1.0, 300.0))
        model = draw(st.sampled_from(["mm1", "md1", "mg1"]))
        servers.append(ServerSpec.mm1(d, mu) if model == "mm1" else ServerSpec.md1(d, mu) if model == "md1"
                       else ServerSpec.mg1(d, mu, draw(st.floats(0.01, 3.0))))
    for i in draw(st.sets(st.integers(0, n - 1), min_size=1)):
        s = servers[i]
        servers[i] = (as_generic(s) if draw(st.booleans())
                      else power_server(s.d, s.mu, draw(st.floats(1.1, 3.0))))
    sc = Scenario(tuple(servers))
    kind = draw(st.sampled_from(list(AllocationKind)))
    lam = draw(st.floats(1e-3, 0.999)) * sc.load_cap
    return sc, kind, lam, draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))


@settings(deadline=None)
@given(user_curve_residual_case())
def test_settled_residual_has_the_sign_of_the_full_residual(case):
    """The bisection's residual for user curves settles each sign as the full sum of inverses would.

    One residual is asked, in the drawn order, at targets from across the
    multiplier's range and within 4 ulps of the multiplier ``_solve`` returns; the
    reference sums ``_invert_or_zero`` over the active servers in activation order.
    """
    sc, kind, lam, fractions = case
    res = _solve(sc, lam, kind)
    cfg = sc.config
    active = [sc.servers[i] for i in res.order[:res.active_count]]
    assume(any(s.model is QueueModel.GENERIC for s in active))

    def remaining(t):
        total = 0.0
        for s in active:
            total += _invert_or_zero(s, kind, t, cfg)
        return total - lam

    z0 = active[-1].z0
    targets = [z0 + f * 2.0 * (res.multiplier - z0) for f in fractions]
    targets += [res.multiplier + k * math.ulp(res.multiplier) for k in range(-4, 5)]
    sign, _ = _settled_remaining(active, kind, lam, cfg)
    for t in targets:
        assert (sign(t) < 0.0) == (remaining(t) < 0.0), t


@settings(deadline=None)
@given(user_curve_residual_case())
def test_strict_settled_residual_is_positive_exactly_where_the_full_residual_is(case):
    """residual(t, strict=True) answers ``_solve``'s low-end test "remaining(lo) > 0.0".

    Asked at the bracket's low end z0 + resolution, at z0 and at drawn targets; the
    reference sums ``_invert_or_zero`` in activation order, as for the plain sign.
    """
    sc, kind, lam, fractions = case
    res = _solve(sc, lam, kind)
    cfg = sc.config
    active = [sc.servers[i] for i in res.order[:res.active_count]]
    assume(any(s.model is QueueModel.GENERIC for s in active))

    def remaining(t):
        total = 0.0
        for s in active:
            total += _invert_or_zero(s, kind, t, cfg)
        return total - lam

    z0 = active[-1].z0
    targets = [z0 + cfg.resolution, z0] + [z0 + f * 2.0 * (res.multiplier - z0) for f in fractions]
    sign, _ = _settled_remaining(active, kind, lam, cfg)
    for t in targets:
        assert (sign(t, strict=True) > 0.0) == (remaining(t) > 0.0), t


@settings(deadline=None)
@given(user_curve_residual_case())
def test_settled_residual_at_an_exact_zero(case):
    """A load equal to the in-order sum of the inverses at t makes remaining(t) exactly 0.0:
    its plain sign is >= 0.0 and its strict sign < 0.0."""
    sc, kind, lam, fractions = case
    cfg = sc.config
    active = [sc.servers[i] for i in sort_servers(sc)]
    assume(any(s.model is QueueModel.GENERIC for s in active))
    z0 = active[-1].z0
    t = z0 + fractions[0] * z0
    total = 0.0
    for s in active:
        total += _invert_or_zero(s, kind, t, cfg)
    assume(total > 0.0)
    sign, rates = _settled_remaining(active, kind, total, cfg)
    assert sign(t) >= 0.0
    assert sign(t, strict=True) < 0.0
    assert [x.hex() for x in rates(t)] == [_invert_or_zero(s, kind, t, cfg).hex() for s in active]


@st.composite
def user_curve_and_targets(draw):
    """A user curve, a kind, settings and a sequence of targets, with repeats, descents,
    adjacent floats, NaN, targets at or below z0 and above the curve's top."""
    d, mu = draw(st.floats(0.0, 0.2)), draw(st.floats(1.0, 300.0))
    model = draw(st.sampled_from(["mm1", "md1", "mg1", "power"]))
    if model == "power":
        s = power_server(d, mu, draw(st.floats(1.1, 3.0)))
    else:
        s = as_generic(ServerSpec.mm1(d, mu) if model == "mm1" else ServerSpec.md1(d, mu) if model == "md1"
                       else ServerSpec.mg1(d, mu, draw(st.floats(0.01, 3.0))))
    kind = draw(st.sampled_from(list(AllocationKind)))
    cfg = draw(st.sampled_from([SolverConfig(), SolverConfig(resolution=1e-9, eps_sat=1e-3),
                                SolverConfig(resolution=1e-15, eps_sat=1e-12)]))
    curve = marginal_cost if kind is AllocationKind.OPTIMAL else latency
    top = s.mu * (1.0 - cfg.eps_sat)
    targets = []
    for _ in range(draw(st.integers(1, 25))):
        how = draw(st.sampled_from(["rate", "rate", "repeat", "next", "prev", "nan", "low", "high", "ulps"]))
        if how == "rate" or not targets:
            targets.append(curve(s, draw(st.floats(0.0, 1.0)) * top))
        elif how == "repeat":
            targets.append(draw(st.sampled_from(targets)))
        elif how in ("next", "prev"):
            last = targets[-1]
            targets.append(math.nextafter(last, math.inf if how == "next" else -math.inf))
        elif how == "nan":
            targets.append(math.nan)
        elif how == "low":
            targets.append(s.z0 - draw(st.floats(0.0, 1.0)) * s.z0)
        elif how == "high":
            targets.append(curve(s, top) * (1.0 + draw(st.floats(0.0, 1.0))))
        else:
            targets.append(s.z0 + draw(st.integers(1, 64)) * math.ulp(s.z0))
    if draw(st.booleans()):
        targets.sort(reverse=True)
    return s, kind, cfg, targets, draw(st.lists(st.floats(0.0, 1.0), min_size=len(targets),
                                                max_size=len(targets)))


def _walker(s: ServerSpec, kind: AllocationKind, cfg: SolverConfig) -> _UserInverse:
    """A fresh walker over the curve of ``s`` that ``kind`` inverts, as a solve makes it."""
    curve = marginal_cost if kind is AllocationKind.OPTIMAL else latency
    return _UserInverse(lambda x: curve(s, x), s.mu * (1.0 - cfg.eps_sat), cfg.resolution)


@settings(max_examples=300, deadline=None)
@given(user_curve_and_targets())
def test_one_walker_inverts_a_target_sequence_as_invert_or_zero(case):
    """One ``_UserInverse`` fed a sequence of targets returns ``_invert_or_zero``'s bits at each.

    Between them it is asked the sign of x - c at the same target, as the settled residual
    asks it, which stops walks early and must leave the next answers unchanged.
    """
    s, kind, cfg, targets, cuts = case
    walker = _walker(s, kind, cfg)
    for t, cut in zip(targets, cuts):
        expected = _invert_or_zero(s, kind, t, cfg)
        if not t <= s.z0:  # _solve's guard; a NaN target passes it
            c = cut * s.mu
            assert (walker(t, lambda x: x - c) < 0.0) == (expected - c < 0.0), (t, c)
            assert walker(t).hex() == expected.hex(), t


def test_a_nan_target_keeps_the_all_left_path():
    """A NaN target fails every "fn(mid) < t" test, so the walk halves toward 0 until the
    bracket is within the resolution, as ``_invert_or_zero`` does, also after other targets."""
    cfg = SolverConfig()
    for kind in AllocationKind:
        s = power_server(0.05, 20.0)
        walker = _walker(s, kind, cfg)
        hi = s.mu * (1.0 - cfg.eps_sat)
        while hi > cfg.resolution:
            hi *= 0.5
        for t in (math.nan, latency(s, 7.0), math.nan, latency(s, 1e-13), math.nan):
            assert walker(t).hex() == _invert_or_zero(s, kind, t, cfg).hex()
        assert walker(math.nan) == 0.5 * hi == _invert_or_zero(s, kind, math.nan, cfg)


def _nan_above_one():
    """A user curve (d = 0.1, mu = 2) that is NaN above x = 1, and the slope to go with it."""
    return ServerSpec.from_functions(0.1, 2.0, lambda x: 0.1 + 1.0 / (2.0 - x) if x <= 1.0 else math.nan,
                                     lambda x: 1.0 / (2.0 - x) ** 2 if x <= 1.0 else math.nan)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_a_nan_or_minus_inf_from_a_user_curve_raises(bad):
    """Read as a number, NaN fails every "fn(mid) < t" test and -inf passes it, so either
    steers the bisection to a wrong split (p = [0.139, 0.861] for the NEP below)."""
    g = ServerSpec.from_functions(0.1, 2.0, lambda x: 0.1 + 1.0 / (2.0 - x) if x <= 1.0 else bad,
                                  lambda x: 1.0 / (2.0 - x) ** 2 if x <= 1.0 else bad)
    sc = Scenario((g, ServerSpec.mm1(0.15, 5.0)))
    for solve in (solve_nep, solve_optimal):
        with pytest.raises(InversionError, match="the curve being inverted is .* at x = "):
            solve(sc, 4.0)
    with pytest.raises(InversionError, match="the curve being inverted is .* at x = "):
        invert_latency(g, 2.0)  # the true inverse, 1.47, lies where the curve is not a number
    with pytest.raises(InversionError, match="the curve being inverted is .* at x = "):
        invert_marginal(g, 2.0)
    # +inf orders above every target: the answer is the walk's, as before
    inf_above = ServerSpec.from_functions(0.1, 2.0, lambda x: 0.1 + 1.0 / (2.0 - x) if x <= 1.5 else math.inf,
                                          lambda x: 1.0 / (2.0 - x) ** 2 if x <= 1.5 else math.inf)
    assert invert_latency(inf_above, 2.0) == pytest.approx(2.0 - 1.0 / 1.9, rel=1e-10)
    res = solve_nep(Scenario((inf_above, ServerSpec.mm1(0.15, 5.0))), 4.0)
    assert abs(sum(res.p) - 1.0) <= 1e-9


def test_a_nan_read_inside_the_bisection_raises():
    """NaN only on (1.2, 1.3): fn(top) is a number, and the bisection meets the NaN."""
    g = ServerSpec.from_functions(0.1, 2.0, lambda x: math.nan if 1.2 < x < 1.3 else 0.1 + 1.0 / (2.0 - x),
                                  lambda x: 1.0 / (2.0 - x) ** 2)
    with pytest.raises(InversionError, match=r"the curve being inverted is nan at x = 1\.24999999875"):
        invert_latency(g, 1.5)
    with pytest.raises(InversionError, match=r"the curve being inverted is nan at x = 1\.24999999875"):
        solve_nep(Scenario((g, ServerSpec.mm1(0.15, 5.0))), 5.0)


def test_user_curve_calls_per_solve():
    """scenario1 with a user curve for its last server: a solve calls the curve under 100 times.

    A full inversion to the default resolution calls it about 45 times; inverting it
    fully at every step of the multiplier bisection, as well, took over 2,000 calls, and
    inverting it fully at the bracket's low end and for the final rates about 150.
    """
    calls = [0]
    d, mu, k = 0.150, 20.0, 1.5

    def curve(x):
        calls[0] += 1
        return d + mu ** (k - 1.0) / (mu - x) ** k

    def slope(x):
        calls[0] += 1
        return k * mu ** (k - 1.0) / (mu - x) ** (k + 1.0)

    sc = Scenario(SCENARIO1.servers[:2] + (ServerSpec.from_functions(d, mu, curve, slope),))
    loads = [rho * sc.total_mu for rho in np.linspace(0.05, 0.95, 10)]
    for solve in (solve_optimal, solve_nep):
        for lam in loads:
            solve(sc, lam)
    assert calls[0] / (2 * len(loads)) <= 100


def test_user_curve_inversions_end_where_the_rate_spacing_exceeds_the_resolution():
    """Each call below inverts a user curve where the rate's float spacing exceeds the
    resolution (1.8e-12 from 8,192 jobs/s, 1.8e-15 from 8 jobs/s), so the bisection can
    only end on a bracket of adjacent floats."""
    mu = 20000.0
    mm1_shaped = ServerSpec.from_functions(0.0, mu, lambda x: 1.0 / (mu - x),
                                           lambda x: 1.0 / (mu - x) ** 2)
    assert invert_latency(mm1_shaped, latency(mm1_shaped, 15000.3)) == pytest.approx(15000.3)

    sc = Scenario((ServerSpec.mm1(0.02, 3000.0), power_server(0.01, 10000.0)))
    for solve in (solve_nep, solve_optimal):
        assert abs(sum(solve(sc, 11000.0).p) - 1.0) <= 1e-9

    s = ServerSpec.mm1(0.01, 20.0)
    t = latency(s, 10.0)
    assert invert_latency(as_generic(s), t, resolution=1e-15) == pytest.approx(10.0)
    closed = Scenario((s, ServerSpec.mm1(0.05, 30.0)))
    fine = Scenario((as_generic(s), closed.servers[1]), SolverConfig(resolution=1e-15))
    for solve in (solve_nep, solve_optimal):
        p = solve(fine, 25.0).p
        assert abs(sum(p) - 1.0) <= 1e-9
        np.testing.assert_allclose(p, solve(closed, 25.0).p, rtol=0.0, atol=1e-7)


@st.composite
def closed_server_and_target(draw):
    d = draw(st.floats(0.0, 0.2))
    mu = draw(st.floats(1.0, 300.0))
    model = draw(st.sampled_from(["mm1", "md1", "mg1"]))
    if model == "mm1":
        s = ServerSpec.mm1(d, mu)
    elif model == "md1":
        s = ServerSpec.md1(d, mu)
    else:
        s = ServerSpec.mg1(d, mu, draw(st.floats(0.01, 10.0)))
    z0 = d + 1.0 / mu
    target = draw(st.one_of(
        st.floats(0.0, z0),  # below and at z0
        st.just(z0),
        st.integers(1, 64).map(lambda k: z0 + k * math.ulp(z0)),  # just above
        st.floats(z0, 1e6, exclude_min=True),  # far above
        st.just(math.nan),
    ))
    return s, target


@settings(max_examples=400, deadline=None)
@given(closed_server_and_target(), st.sampled_from(list(AllocationKind)))
def test_guarded_closed_inverse_is_invert_or_zero_bit_for_bit(case, kind):
    """What ``_solve``'s loops evaluate for a closed-form server, against the threshold table's path."""
    s, target = case
    cfg = SolverConfig()
    inv = closed_invert_marginal if kind is AllocationKind.OPTIMAL else closed_invert_latency
    direct = 0.0 if target <= s.z0 else inv(s, target)
    assert direct.hex() == _invert_or_zero(s, kind, target, cfg).hex()
