"""Price of anarchy: pointwise, swept, worst-case, and asymptotic."""

import math
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc import (
    AllocationKind,
    ConvergenceError,
    InfeasibleLoadError,
    InversionError,
    QueueModel,
    Scenario,
    ServerSpec,
    UnsupportedModelError,
    activation_thresholds,
    asymptotic_poa,
    default_grid,
    load_scenario_file,
    poa_at,
    poa_sweep,
    sort_servers,
    worst_case_poa,
)
from taskalloc.solver import solve_lockstep

from conftest import random_loads, random_scenario
from test_latency import as_generic
from test_solver import SCENARIO1


def test_poa_at_examples(toy):
    point = poa_at(toy, 1.0)
    assert point.eta == pytest.approx(1.0 / 0.9142135623730949, rel=1e-9)
    assert point.j_opt == 2 and point.j_nep == 1

    below = poa_at(toy, 0.3)  # below the second optimal threshold
    assert below.eta == 1.0
    assert below.j_opt == below.j_nep == 1

    twins = Scenario((ServerSpec.mm1(0.0, 1.0), ServerSpec.mm1(0.0, 1.0)))
    assert poa_at(twins, 1.3).eta == pytest.approx(1.0, abs=1e-12)


def test_poa_sweep(toy):
    single = Scenario((ServerSpec.mm1(0.01, 5.0),))
    curve = poa_sweep(single, np.linspace(0.5, 4.5, 10))
    assert all(point.eta == 1.0 for point in curve.points)

    curve = poa_sweep(toy, [0.5, 1.0, 1.5])
    etas = [point.eta for point in curve.points]
    assert etas[0] == 1.0
    assert etas[1] == pytest.approx(1.09384, abs=1e-4)
    assert etas[2] > 1.0

    with pytest.raises(ValueError):
        poa_sweep(toy, [1.0, 1.0])
    with pytest.raises(ValueError):
        poa_sweep(toy, [])


def test_eta_never_below_one(corpus):
    for sc, loads in corpus[:10]:
        for lam in loads:
            assert poa_at(sc, float(lam)).eta >= 1.0 - 1e-9


def test_worst_case_examples(toy):
    res = worst_case_poa(toy)
    assert res.max.lam == pytest.approx(1.0, rel=1e-12)
    assert res.max.eta == pytest.approx(1.09384, abs=1e-4)
    limit = [c for c in res.candidates if c.lam is None]
    assert limit[0].eta == pytest.approx(6.0 / (1.0 + math.sqrt(2.0)) ** 2, rel=1e-12)

    single = Scenario((ServerSpec.mm1(0.01, 5.0),))
    res = worst_case_poa(single)
    assert res.max.eta == pytest.approx(1.0, rel=1e-12)
    assert len(res.candidates) == 1


def test_worst_case_skips_ties_and_repeated_thresholds():
    """Servers tied with the first activate at load 0, and two servers that
    activate at the same load give one candidate."""
    mm1 = ServerSpec.mm1
    sc = Scenario((mm1(0.02, 10), mm1(0.02, 10), mm1(0.05, 8), mm1(0.05, 8), mm1(0.1, 20)))
    loads = activation_thresholds(sc, AllocationKind.NEP).loads
    assert loads[:2] == (0.0, 0.0) and loads[3] == loads[4] > loads[2] > 0.0
    res = worst_case_poa(sc)
    assert [(c.location, c.lam) for c in res.candidates] == [
        ("nep activation of server 3", loads[2]),
        ("nep activation of server 4", loads[3]),
        ("full-load limit", None),
    ]
    assert res.candidates[0].eta == poa_at(sc, loads[2]).eta


def test_worst_case_scenario1():
    res = worst_case_poa(SCENARIO1)
    table = activation_thresholds(SCENARIO1, AllocationKind.NEP)
    assert res.max.lam == pytest.approx(table.loads[2], rel=1e-12)
    assert 1.05 <= res.max.eta <= 1.15


def test_asymptotic_values():
    mu = [15.0, 9.0, 20.0]
    expected = 3.0 * sum(mu) / sum(math.sqrt(m) for m in mu) ** 2
    assert asymptotic_poa(SCENARIO1) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(1.0256, abs=5e-4)

    twins = Scenario(tuple(ServerSpec.mm1(0.01, 4.0) for _ in range(5)))
    assert asymptotic_poa(twins) == pytest.approx(1.0, rel=1e-14)

    as_mg1 = Scenario(tuple(ServerSpec.mg1(s.d, s.mu, 1.0) for s in SCENARIO1.servers))
    assert asymptotic_poa(as_mg1) == pytest.approx(asymptotic_poa(SCENARIO1), rel=1e-14)

    md1 = Scenario(tuple(ServerSpec.md1(s.d, s.mu) for s in SCENARIO1.servers))
    a = 0.5
    expected_md1 = 3 * a * sum(mu) / sum(math.sqrt(m * a) for m in mu) ** 2
    assert asymptotic_poa(md1) == pytest.approx(expected_md1, rel=1e-14)
    # the common-variance factor cancels: same limit as the MM1 fleet
    assert expected_md1 == pytest.approx(expected, rel=1e-14)


def test_asymptotic_rejects_generic():
    gen = Scenario((as_generic(ServerSpec.mm1(0.0, 2.0)), ServerSpec.mm1(0.0, 1.0)))
    with pytest.raises(UnsupportedModelError):
        asymptotic_poa(gen)


def test_asymptotic_matches_near_saturation(corpus):
    checked = 0
    for sc, _ in corpus:
        if any(s.model.value != "mm1" for s in sc.servers):
            continue
        lam = (1.0 - 1e-4) * sc.total_mu
        eta = poa_at(sc, lam).eta
        assert abs(eta - asymptotic_poa(sc)) / asymptotic_poa(sc) <= 0.01
        checked += 1
    assert checked >= 2


def test_worst_case_dominates_samples(corpus):
    rng = np.random.default_rng(5)
    for sc, _ in corpus[:6]:
        best = worst_case_poa(sc).max.eta
        for lam in random_loads(rng, sc, 200):
            assert best >= poa_at(sc, float(lam)).eta - 1e-6


def _segments(sc):
    loads = activation_thresholds(sc, AllocationKind.NEP).loads
    bounds = sorted(set(loads)) + [sc.total_mu * 0.999]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if b > a * (1 + 1e-12) and b > a + 1e-12]


def _worst_midpoint_excess(sc, per_segment=17):
    worst = -math.inf
    for lo, hi in _segments(sc):
        inner = np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), per_segment)
        etas = [poa_at(sc, float(lam)).eta for lam in inner]
        for k in range(len(inner) - 2):
            worst = max(worst, etas[k + 1] - 0.5 * (etas[k] + etas[k + 2]))
    return worst


def test_midpoint_convexity_on_bundled_scenarios(toy):
    # eta happens to be convex between consecutive NEP activations on these
    # scenarios; no d*mu bound decides this (in criterion 6's corpus some
    # scenarios with max d*mu near 57 are convex, others near 10 are not)
    scenario2 = Scenario((ServerSpec.mm1(0.010, 300.0), ServerSpec.mm1(0.012, 100.0),
                          ServerSpec.mm1(0.020, 200.0)))
    for sc in (toy, SCENARIO1, scenario2):
        assert _worst_midpoint_excess(sc) <= 1e-9


def test_convexity_can_fail_between_activations():
    # eta is genuinely concave on part of the final segment, far from any
    # activation of either regime, yet it stays quasi-convex there: no
    # interior local maximum, so the worst case still sits on the
    # candidate set because the concave stretch is past the peak.
    sc = Scenario((ServerSpec.mm1(0.0295, 257.85), ServerSpec.mm1(0.0241, 58.50),
                   ServerSpec.mm1(0.1170, 280.41)))
    lo = activation_thresholds(sc, AllocationKind.NEP).loads[2]
    hi = sc.total_mu * 0.999
    inner = np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 9)
    points = [poa_at(sc, float(lam)) for lam in inner]
    assert all(p.j_opt == 3 and p.j_nep == 3 for p in points[4:7])
    etas = [p.eta for p in points]
    excess = etas[5] - 0.5 * (etas[4] + etas[6])
    assert excess > 5e-3
    for k in range(len(etas) - 2):
        assert etas[k + 1] <= max(etas[k], etas[k + 2]) + 1e-9

    best = worst_case_poa(sc).max.eta
    for lam in np.linspace(0.02, 0.999, 150) * sc.total_mu:
        assert best >= poa_at(sc, float(lam)).eta - 1e-6


def test_default_grid_shape(toy):
    grid = default_grid(toy, count=64)
    assert len(grid) == 64
    assert np.all(np.diff(grid) > 0.0)
    assert grid[0] == pytest.approx(0.01 * toy.total_mu, rel=1e-9)
    assert grid[-1] == pytest.approx(0.999 * toy.total_mu, rel=1e-9)


def test_scenario2_ordering_property():
    sc = Scenario((ServerSpec.mm1(0.010, 300.0), ServerSpec.mm1(0.012, 100.0),
                   ServerSpec.mm1(0.020, 200.0)))
    topt = activation_thresholds(sc, AllocationKind.OPTIMAL)
    tnep = activation_thresholds(sc, AllocationKind.NEP)
    assert max(topt.loads) < tnep.loads[1]
    grid = np.linspace(0.9, 1.1, 21) * tnep.loads[1]
    etas = [poa_at(sc, float(lam)).eta for lam in grid]
    assert all(b >= a - 1e-12 for a, b in zip(etas, etas[1:]))


# --- lockstep sweeps: bit for bit what poa_at gives --------------------------

BUNDLED = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
TIED = Scenario((ServerSpec.mm1(0.01, 5.0), ServerSpec.mm1(0.01, 5.0), ServerSpec.mg1(0.05, 3.0, 2.0)))


def _bits(points):
    """Every field of every point: type and exact value (floats as hex)."""
    return [tuple((type(v).__name__, v.hex() if isinstance(v, float) else v) for v in astuple(p))
            for p in points]


def _outcome(fn):
    """The points' bits, or the type and message of the exception raised."""
    try:
        return _bits(fn())
    except Exception as exc:  # any exception must be the same on both paths
        return type(exc), str(exc)


def _assert_lockstep_matches_poa_at(sc, grid):
    per_point = _outcome(lambda: [poa_at(sc, float(lam)) for lam in grid])
    assert _outcome(lambda: poa_sweep(sc, grid).points) == per_point


def _threshold_grid(sc):
    """Each OPT and NEP activation load, its float neighbours and load_cap, within (0, load_cap]."""
    loads = {sc.load_cap}
    for kind in AllocationKind:
        for t in activation_thresholds(sc, kind).loads[1:]:
            loads.update((np.nextafter(t, 0.0), t, np.nextafter(t, np.inf)))
    return sorted(float(lam) for lam in loads if 0.0 < lam <= sc.load_cap)


def _lockstep_corpus():
    """(case, grid number, scenario, grid): bundled, TIED and 60 random scenarios, three grids each."""
    rng = np.random.default_rng(20261018)
    scenarios = [load_scenario_file(path).scenario for path in BUNDLED] + [TIED]
    scenarios += [random_scenario(rng, sizes=tuple(range(1, 10))) for _ in range(60)]
    for i, sc in enumerate(scenarios):
        # the full 400-point default grid on the bundled and tied scenarios only,
        # to keep the per-point reference affordable
        count = 400 if i <= len(BUNDLED) else 60
        grids = (default_grid(sc, count), default_grid(sc, 37, 0.2, 0.9999), _threshold_grid(sc))
        for g, grid in enumerate(grids):
            yield i, g, sc, grid


def test_lockstep_sweep_is_bit_identical_to_poa_at():
    for _, _, sc, grid in _lockstep_corpus():
        _assert_lockstep_matches_poa_at(sc, grid)


def test_lockstep_fallback_set_is_pinned():
    # The loads that solve_lockstep leaves to poa_at on the corpus above.  A solve that flags
    # more keeps every bit, since poa_at answers those loads, but loses the lockstep's speed.
    # Recorded at the two-pass lockstep: only the tied servers' threshold neighbour 5e-324.
    attempted = 0
    flagged = set()
    for i, g, sc, grid in _lockstep_corpus():
        loads = np.asarray(grid, dtype=float)
        for kind, (_, _, _, ok) in zip(AllocationKind, solve_lockstep(sc, loads)):
            attempted += ok.size
            flagged.update((i, g, kind.value, float(lam)) for lam in loads[~ok])
    assert attempted == 21_770
    tied = len(BUNDLED)
    assert flagged == {(tied, 2, "optimal", 5e-324), (tied, 2, "nep", 5e-324)}


# numpy's AVX-512 dispatch targets; numpy reads the variable once, at import
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def _avx512_dispatch() -> bool:
    """Whether the CPU has AVX512F and numpy knows the targets ``NO_AVX512`` names."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        return False
    return bool(__cpu_features__.get("AVX512F")) and all(f in __cpu_features__ for f in NO_AVX512.split())


@pytest.mark.skipif(not _avx512_dispatch(), reason="the CPU lacks AVX512F, or numpy lacks its targets")
def test_lockstep_sweep_is_bit_identical_without_avx512():
    # The servers x slots array relies on + - * / and sqrt rounding correctly on every dispatch
    # target.  The default grid itself moves with the dispatch (np.logspace), so the child
    # compares the two paths on the grid it computes, not against stored bytes.
    code = "\n".join((
        "import sys",
        "sys.path.insert(0, sys.argv[1])",
        "from numpy._core._multiarray_umath import __cpu_features__ as features",
        f"assert not any(features[f] for f in {NO_AVX512.split()!r}), 'AVX-512 dispatch is on'",
        "from test_poa import BUNDLED, _assert_lockstep_matches_poa_at",
        "from taskalloc import default_grid, load_scenario_file",
        "for path in BUNDLED:",
        "    sc = load_scenario_file(path).scenario",
        "    _assert_lockstep_matches_poa_at(sc, default_grid(sc))",
    ))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    done = subprocess.run([sys.executable, "-c", code, str(Path(__file__).resolve().parent)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_lockstep_sweep_errors_and_generic_scenarios_go_per_point(toy):
    generic = Scenario((as_generic(SCENARIO1.servers[0]),) + SCENARIO1.servers[1:])
    _assert_lockstep_matches_poa_at(generic, default_grid(generic, 40))
    for sc, grid, error in (
        (toy, [0.5, 1.0, 2.5, 2.9999999999], InfeasibleLoadError),  # above load_cap
        (toy, [0.0, 1.0], InfeasibleLoadError),
        (TIED, [1e-14, 1.0, 5.0], ConvergenceError),  # too small to resolve
        (TIED, [1.0, 2.0, 1e9], InfeasibleLoadError),
    ):
        with pytest.raises(error):
            poa_at(sc, next(lam for lam in grid if not 1e-9 < lam <= sc.load_cap))
        _assert_lockstep_matches_poa_at(sc, grid)


def test_lockstep_flags_a_failed_bracket():
    # a = (1 + cv^2)/2 = 5e307 keeps the M/G/1 server's inverse latency near 0 far beyond 200
    # doublings of the bracket's high end, so _solve cannot bracket the multiplier above
    # the first server's capacity; the lockstep flags those slots and leaves them to poa_at
    sc = Scenario((ServerSpec.mm1(0.010, 5.0), ServerSpec.mg1(0.020, 8.0, 1e154)))
    loads = np.array([0.1, 0.5, 0.9]) * sc.total_mu
    for *_, ok in solve_lockstep(sc, loads):
        assert ok.tolist() == [True, False, False]
    with pytest.raises(InversionError, match="could not bracket the multiplier"):
        poa_sweep(sc, loads)
    _assert_lockstep_matches_poa_at(sc, loads)


@pytest.mark.parametrize("sc, single", [(SCENARIO1, 1.0), (Scenario((ServerSpec.mg1(0.02, 8.0, 2.0),)), 4.0)],
                         ids=["scenario1", "one_server"])
def test_lockstep_ok_where_poa_at_answers(sc, single):
    # Loads that never enter the bisection still go through the masked array arithmetic:
    # ok is True exactly where poa_at answers, and no warning escapes (filterwarnings = error)
    cap = sc.load_cap
    loads = np.array([np.nan, -1.0, 0.0, single, 0.6 * sc.total_mu, cap, np.nextafter(cap, np.inf), 2.0 * cap])
    answered = []
    for lam in loads.tolist():
        try:
            answered.append(poa_at(sc, lam) is not None)
        except InfeasibleLoadError:
            answered.append(False)
    assert answered == [False, False, False, True, True, True, False, False]
    for _, _, j, ok in solve_lockstep(sc, loads):
        assert j[3] == 1  # below the second threshold: the single-server closed forms
        assert ok.tolist() == answered


POOL = (
    ServerSpec.mm1(0.01, 5.0),
    ServerSpec.md1(0.01, 5.0),
    ServerSpec.mg1(0.02, 8.0, 2.0),
    ServerSpec.mm1(0.004, 40.0),
    ServerSpec.mg1(0.0, 3.0, 0.5),
    ServerSpec.md1(0.05, 60.0),
    ServerSpec.mm1(0.3, 0.7),  # mu < 1
    ServerSpec.mg1(0.002, 50.0, 10.0),  # cv 10, a = 50.5
    ServerSpec.md1(2.0, 4.0),  # a long path delay: the last to activate, through the grow loop
)


def test_pool_interleaves_formulas():
    # the lockstep groups M/M/1 rows apart from M/D/1 and M/G/1 rows, and must still sum in
    # activation order: in the pool's order, neither group is one block of rows
    mm1 = [POOL[i].model is QueueModel.MM1 for i in sort_servers(Scenario(POOL))]
    assert sum(a != b for a, b in zip(mm1, mm1[1:])) > 1


@st.composite
def _scenario_and_grid(draw):
    sc = Scenario(tuple(draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=6))))
    fractions = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=25))
    # tied servers put a threshold at 0; its neighbour 5e-324 would make every
    # such grid fail at its first load, so it is left to the tests above
    near = draw(st.lists(st.sampled_from([t for t in _threshold_grid(sc) if t > 1e-3]), max_size=6))
    return sc, sorted({f * sc.load_cap for f in fractions} | set(near))


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(_scenario_and_grid())
def test_lockstep_sweep_property(case):
    _assert_lockstep_matches_poa_at(*case)
