"""Brute-force reference solvers against the closed-form ones."""

import numpy as np
import pytest

from taskalloc import (
    InfeasibleLoadError,
    Scenario,
    ServerSpec,
    average_latency,
    solve_nep,
    solve_optimal,
)
from taskalloc.oracle import (
    OracleConfig,
    best_response_nep,
    brute_force_optimal,
    check_no_profitable_deviation,
)

from conftest import random_loads, random_scenario


def test_brute_force_examples(toy):
    p = brute_force_optimal(toy, 1.0, OracleConfig(grid_step=1e-4))
    assert p[0] == pytest.approx(0.8284271247461901, abs=1e-3)

    single = Scenario((ServerSpec.mm1(0.02, 10.0),))
    assert brute_force_optimal(single, 4.0) == pytest.approx([1.0], abs=0.0)

    twins = Scenario((ServerSpec.mm1(0.0, 1.0), ServerSpec.mm1(0.0, 1.0)))
    p = brute_force_optimal(twins, 1.0)
    assert p == pytest.approx([0.5, 0.5], abs=0.02)


def test_brute_force_never_beats_the_solver(corpus):
    for sc, loads in corpus[:8]:
        if len(sc.servers) > 4:
            continue
        for lam in loads[:2]:
            lam = float(lam)
            u_star = solve_optimal(sc, lam).mean_latency
            p_or = brute_force_optimal(sc, lam)
            u_or = average_latency(sc, p_or, lam)
            assert u_or >= u_star - 1e-9
            assert abs(u_or - u_star) / u_or <= 1e-6


def test_best_response_examples(toy):
    p = best_response_nep(toy, 1.5)
    assert p == pytest.approx([5.0 / 6.0, 1.0 / 6.0], abs=1e-6)

    twins = Scenario((ServerSpec.mm1(0.0, 1.0), ServerSpec.mm1(0.0, 1.0)))
    assert best_response_nep(twins, 1.0) == pytest.approx([0.5, 0.5], abs=1e-6)

    p = best_response_nep(toy, 0.5)  # below the second server's activation
    assert p == pytest.approx([1.0, 0.0], abs=1e-9)


def test_best_response_matches_solver(corpus):
    for sc, loads in corpus[:12]:
        for lam in loads[:2]:
            lam = float(lam)
            p_br = best_response_nep(sc, lam)
            p_dagger = solve_nep(sc, lam).p
            assert float(np.max(np.abs(p_br - p_dagger))) <= 1e-5


def test_deviation_checks(toy):
    nep = solve_nep(toy, 1.5)
    assert check_no_profitable_deviation(toy, 1.5, nep.p)

    opt = solve_optimal(toy, 1.0)
    assert not check_no_profitable_deviation(toy, 1.0, opt.p)

    assert not check_no_profitable_deviation(toy, 1.5, [1.0, 0.0])


def test_deviation_check_on_corpus(corpus):
    for sc, loads in corpus[:10]:
        lam = float(loads[0])
        nep = solve_nep(sc, lam)
        assert check_no_profitable_deviation(sc, lam, nep.p)


def test_oracle_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(grid_step=0.0)
    with pytest.raises(ValueError):
        OracleConfig(grid_step=0.7)
    with pytest.raises(ValueError):
        OracleConfig(br_tolerance=0.0)


def test_oracle_load_validation(toy):
    with pytest.raises(InfeasibleLoadError):
        brute_force_optimal(toy, 5.0)
    with pytest.raises(InfeasibleLoadError):
        best_response_nep(toy, 0.0)
