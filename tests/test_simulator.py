"""Simulator: Poisson arrivals, probabilistic routing, Lindley queues."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest

from taskalloc import (
    AllocationKind,
    DomainError,
    Scenario,
    ServerSpec,
    SimulationConfig,
    UnsupportedModelError,
    latency,
    load_scenario_file,
    simulate,
    solve_nep,
    solve_optimal,
    validate,
)

from taskalloc.simulator import _T975, _mean_ci, _rng, _service_times
from test_latency import as_generic


def test_identical_seed_identical_report(toy):
    cfg = SimulationConfig(lam=1.2, p=(0.7, 0.3), horizon_jobs=20_000, seed=42, replications=3)
    a = simulate(toy, cfg)
    b = simulate(toy, cfg)
    assert a == b
    assert a.per_server == b.per_server

    other = SimulationConfig(lam=1.2, p=(0.7, 0.3), horizon_jobs=20_000, seed=43, replications=3)
    assert simulate(toy, other).mean_latency != a.mean_latency


def test_single_server_mm1_anchor():
    sc = Scenario((ServerSpec.mm1(0.0, 10.0),))
    cfg = SimulationConfig(lam=5.0, p=(1.0,), horizon_jobs=1_000_000, seed=7, replications=3)
    report = simulate(sc, cfg)
    assert report.mean_latency == pytest.approx(0.2, rel=0.03)
    assert abs(report.mean_latency - 0.2) <= 3.0 * report.latency_ci
    assert not report.overloaded


def test_zero_load_limit():
    servers = (ServerSpec.mm1(0.05, 20.0), ServerSpec.md1(0.05, 20.0), ServerSpec.mg1(0.05, 20.0, 3.0))
    for s in servers:
        sc = Scenario((s,))
        lam = 0.01 * s.mu
        cfg = SimulationConfig(lam=lam, p=(1.0,), horizon_jobs=200_000, seed=3, replications=2)
        report = simulate(sc, cfg)
        assert report.mean_latency == pytest.approx(0.05 + 1.0 / 20.0, rel=0.03)
        assert report.mean_latency == pytest.approx(latency(s, lam), rel=0.01)


def test_routing_rates_match_probabilities():
    sc = Scenario((ServerSpec.mm1(0.01, 30.0), ServerSpec.mm1(0.02, 20.0), ServerSpec.mm1(0.03, 10.0)))
    lam, p = 12.0, (0.5, 0.3, 0.2)
    cfg = SimulationConfig(lam=lam, p=p, horizon_jobs=200_000, seed=17, replications=1)
    report = simulate(sc, cfg)
    kept = sum(s.completed for s in report.per_server)
    for stats, q in zip(report.per_server, p):
        se = lam * math.sqrt(q * (1.0 - q) / kept)
        assert abs(stats.arrival_rate - q * lam) <= 4.0 * se


def test_mm1_sojourn_within_3pct():
    sc = Scenario((ServerSpec.mm1(0.0, 10.0),))
    for rho in (0.3, 0.6, 0.9):
        lam = rho * 10.0
        cfg = SimulationConfig(lam=lam, p=(1.0,), horizon_jobs=1_000_000, seed=11, replications=2)
        report = simulate(sc, cfg)
        assert report.mean_sojourn == pytest.approx(1.0 / (10.0 - lam), rel=0.03)


def test_mg1_sojourn_within_5pct():
    lam = 0.8 * 8.0
    for cv in (0.0, 1.0, 3.0):
        s = ServerSpec.mg1(0.0, 8.0, cv)
        cfg = SimulationConfig(lam=lam, p=(1.0,), horizon_jobs=1_000_000, seed=13, replications=2)
        report = simulate(Scenario((s,)), cfg)
        a = (1.0 + cv * cv) / 2.0
        pk = (1.0 / 8.0) * (1.0 + a * lam / (8.0 - lam))
        assert report.mean_sojourn == pytest.approx(pk, rel=0.05)


def test_aggregate_is_completion_weighted_mean(toy):
    cfg = SimulationConfig(lam=1.4, p=(0.6, 0.4), horizon_jobs=50_000, seed=5, replications=1)
    report = simulate(toy, cfg)
    total = sum(s.completed for s in report.per_server)
    weighted = sum(s.completed / total * s.mean_latency for s in report.per_server)
    assert report.mean_latency == pytest.approx(weighted, rel=1e-12)
    assert total == report.completed
    assert all(s.utilization < 1.0 for s in report.per_server)


def test_utilization_tracks_offered_load():
    sc = Scenario((ServerSpec.mm1(0.0, 10.0), ServerSpec.mm1(0.0, 5.0)))
    cfg = SimulationConfig(lam=6.0, p=(0.5, 0.5), horizon_jobs=400_000, seed=23, replications=2)
    report = simulate(sc, cfg)
    assert report.per_server[0].utilization == pytest.approx(3.0 / 10.0, rel=0.03)
    assert report.per_server[1].utilization == pytest.approx(3.0 / 5.0, rel=0.03)


def test_overload_flag_not_error(toy):
    cfg = SimulationConfig(lam=1.5, p=(0.0, 1.0), horizon_jobs=20_000, seed=1, replications=1)
    report = simulate(toy, cfg)
    assert report.overloaded
    assert math.isfinite(report.mean_latency)
    assert report.mean_latency > 1.0  # queue grows without bound


def test_config_validation():
    with pytest.raises(DomainError):
        SimulationConfig(lam=0.0, p=(1.0,))
    with pytest.raises(DomainError):
        SimulationConfig(lam=1.0, p=(1.0,), horizon_jobs=0)
    with pytest.raises(DomainError):
        SimulationConfig(lam=1.0, p=(1.0,), warmup=0.6)
    with pytest.raises(DomainError):
        SimulationConfig(lam=1.0, p=(1.0,), replications=0)
    with pytest.raises(DomainError):
        SimulationConfig(lam=1.0, p=(0.7, 0.2))
    with pytest.raises(DomainError):
        SimulationConfig(lam=1.0, p=(1.2, -0.2))


def test_exponential_service_is_gamma_of_shape_one():
    """The simulator draws M/M/1 service as gamma(1, 1/mu); pin that it is
    bit-equal to rng.exponential(1/mu) from the same substream."""
    for seed in (0, 7, 12345):
        for mu in (0.3, 1.0, 9.0, 250.0):
            s = ServerSpec.mm1(0.01, mu)
            got = _service_times(s, 20_000, _rng(seed, 1, 2))
            expected = _rng(seed, 1, 2).exponential(1.0 / mu, size=20_000)
            assert np.array_equal(got, expected)


def test_generic_model_unsupported(toy):
    sc = Scenario((as_generic(toy.servers[0]), toy.servers[1]))
    cfg = SimulationConfig(lam=1.0, p=(0.5, 0.5), horizon_jobs=1_000)
    with pytest.raises(UnsupportedModelError):
        simulate(sc, cfg)


def test_validate_examples(toy):
    rec = validate(toy, 1.0, AllocationKind.OPTIMAL)
    assert rec.analytic_latency == pytest.approx(0.9142135623730949, rel=1e-9)
    assert rec.relative_gap <= rec.tolerance and rec.passed

    rec = validate(toy, 1.5, AllocationKind.NEP)
    assert rec.analytic_latency == pytest.approx(4.0 / 3.0, rel=1e-9)
    assert rec.passed

    single = Scenario((ServerSpec.mm1(0.01, 5.0),))
    rec = validate(single, 2.0, AllocationKind.NEP)
    assert rec.analytic_latency == pytest.approx(0.01 + 1.0 / 3.0, rel=1e-12)
    assert rec.passed and rec.report is not None


def test_validate_respects_cfg_and_tolerance(toy):
    base = SimulationConfig(lam=1.0, p=(1.0,), horizon_jobs=30_000, seed=9, replications=3)
    rec = validate(toy, 1.0, AllocationKind.NEP, cfg=base, tolerance=0.05)
    assert rec.tolerance == 0.05
    assert rec.report.replications == 3
    # the solver's split overrides whatever p the template carried
    nep = solve_nep(toy, 1.0)
    assert rec.analytic_latency == pytest.approx(nep.mean_latency, rel=1e-12)


def test_raw_samples_csv(tmp_path, toy):
    path = tmp_path / "raw.csv"
    cfg = SimulationConfig(lam=1.0, p=(0.5, 0.5), horizon_jobs=2_000, seed=2,
                           replications=1, raw_samples_path=str(path))
    report = simulate(toy, cfg)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["job_id", "server", "depart_time", "latency_s"]
    assert len(rows) - 1 == report.completed
    ids = [int(r[0]) for r in rows[1:]]
    assert ids == sorted(ids)
    assert {int(r[1]) for r in rows[1:]} <= {0, 1}

    multi = SimulationConfig(lam=1.0, p=(0.5, 0.5), horizon_jobs=2_000, seed=2,
                             replications=2, raw_samples_path=str(tmp_path / "raw.csv"))
    simulate(toy, multi)
    assert (tmp_path / "raw.rep0.csv").exists()
    assert (tmp_path / "raw.rep1.csv").exists()


# float.hex() of latency_ci (aggregate, then per server) on scenario1 at
# rho 0.5, 4000 jobs, seed 3, for 3, 5, 10, 31 and 32 replications (t with
# 2, 4, 9, 30 and 31 degrees of freedom: 30 is the last entry of the stored
# quantile table, 31 the first call into scipy); recorded with
# scipy.stats.t.ppf before the table existed.
CI_GOLDEN = {
    3: ("0x1.cb643256dc619p-6",
        ["0x1.7c3e2fb91cc9fp-5", "0x1.7f6b93cedabfdp-6", "0x1.fc0b2bea89768p-7"]),
    5: ("0x1.8d5e0e9fd10cep-7",
        ["0x1.887d03e5d4c9ep-6", "0x1.e1bdd1fb993ffp-7", "0x1.6b6c98c0db3b1p-8"]),
    10: ("0x1.aa62de06f2732p-8",
         ["0x1.9706bd7470d92p-7", "0x1.9ab1e6c65a84ep-7", "0x1.3b9c86556494dp-8"]),
    31: ("0x1.370cc5333e27ep-9",
         ["0x1.40bf0c44667ecp-8", "0x1.866c2a2737b6ap-8", "0x1.5178a8df49929p-9"]),
    32: ("0x1.2d0baf52b4adap-9",
         ["0x1.38ae1f342876ap-8", "0x1.96f1a5024e90ap-8", "0x1.46a792c6efa72p-9"]),
}


@pytest.mark.parametrize("replications", sorted(CI_GOLDEN))
def test_latency_ci_bits(replications):
    """The t-quantile half-widths keep their bits beyond one degree of freedom."""
    sc = load_scenario_file(Path(__file__).resolve().parent.parent
                            / "scenarios" / "scenario1.json").scenario
    lam = 0.5 * sc.total_mu
    p = tuple(float(x) for x in solve_optimal(sc, lam).p)
    cfg = SimulationConfig(lam=lam, p=p, horizon_jobs=4000, seed=3, replications=replications)
    report = simulate(sc, cfg)
    aggregate, per_server = CI_GOLDEN[replications]
    assert report.latency_ci.hex() == aggregate
    assert [st.latency_ci.hex() for st in report.per_server] == per_server


def test_t_quantile_table_matches_scipy():
    """Each stored quantile is scipy's, bit for bit, and the table edge is seamless."""
    from scipy import stats

    assert len(_T975) == 30
    for df in range(1, 31):
        assert float.hex(_T975[df - 1]) == float.hex(float(stats.t.ppf(0.975, df)))

    rng = np.random.default_rng(12)
    for size in range(2, 35):
        values = rng.gamma(2.0, 0.1, size)
        scipy_half = float(stats.t.ppf(0.975, size - 1) * values.std(ddof=1)
                           / math.sqrt(size))
        _, half = _mean_ci(values)
        assert half.hex() == scipy_half.hex()
