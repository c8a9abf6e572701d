"""Simulator: Poisson arrivals, probabilistic routing, Lindley queues."""

import csv
import dataclasses
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskalloc import (
    AllocationKind,
    DomainError,
    Scenario,
    ServerSpec,
    SimSettings,
    SimulationConfig,
    UnsupportedModelError,
    latency,
    load_scenario_file,
    simulate,
    solve_nep,
    solve_optimal,
    validate,
)

from taskalloc.simulator import _ROUTING, _T975, _mean_ci, _rng, _routed_jobs, _service_times
from test_latency import as_generic


# Built here, not bundled: five servers of every service class (mu sums to 20),
# and one server.
BUILT = {
    "five": Scenario((ServerSpec.mm1(0.01, 5.0), ServerSpec.md1(0.02, 4.0),
                      ServerSpec.mg1(0.015, 3.0, 2.0), ServerSpec.mm1(0.03, 4.0),
                      ServerSpec.mg1(0.005, 4.0, 0.5))),
    "one": Scenario((ServerSpec.mg1(0.01, 5.0, 1.5),)),
}

SPLITS = {
    "zero": (0.5, 0.0, 0.5),
    "over": (0.25, 0.5, 0.25),
    "first_idle": (0.0, 0.3, 0.2, 0.25, 0.25),
    "last_idle": (0.3, 0.25, 0.2, 0.25, 0.0),
    "mid_idle": (0.4, 0.0, 0.0, 0.3, 0.3),
}


def _scenario(name):
    if name in BUILT:
        return BUILT[name]
    return load_scenario_file(Path(__file__).resolve().parent.parent
                              / "scenarios" / f"{name}.json").scenario


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
    with pytest.raises(DomainError, match="arrival rate must be finite, got inf"):
        SimulationConfig(lam=math.inf, p=(1.0,), horizon_jobs=1000, replications=2)


def test_settings_checks_and_their_order():
    """SimSettings checks the run length; a config checks the load first, the split last."""
    for kwargs, message in [
        (dict(horizon_jobs=0, warmup=0.6, replications=0), "horizon must be > 0 jobs, got 0"),
        (dict(warmup=0.6, replications=0), "warmup fraction must be in [0, 0.5], got 0.6"),
        (dict(replications=0), "replications must be >= 1, got 0"),
    ]:
        with pytest.raises(DomainError) as settings_error:
            SimSettings(**kwargs)
        assert str(settings_error.value) == message
        with pytest.raises(DomainError) as config_error:
            SimulationConfig(lam=1.0, p=(0.5,), **kwargs)
        assert str(config_error.value) == message
    with pytest.raises(DomainError, match="arrival rate must be > 0, got -1"):
        SimulationConfig(lam=-1.0, p=(0.5,), horizon_jobs=0)
    with pytest.raises(DomainError, match="arrival rate must be > 0, got nan"):
        SimulationConfig(lam=math.nan, p=(1.0,))


def test_a_negative_seed_is_named_after_the_run_length_checks():
    with pytest.raises(DomainError) as error:
        SimulationConfig(lam=1.0, p=(0.5, 0.5), seed=-1)
    assert str(error.value) == "seed must be >= 0, got -1"
    with pytest.raises(DomainError, match="horizon must be > 0 jobs, got -5"):
        SimulationConfig(lam=1.0, p=(0.5, 0.5), horizon_jobs=-5, seed=-1)
    assert SimSettings(seed=-1).seed == -1  # a file's settings are only checked when they run


def test_routing_vector_must_match_servers(toy):
    cfg = SimulationConfig(lam=1.0, p=(1.0,), horizon_jobs=1_000)
    with pytest.raises(DomainError, match="routing vector has 1 entries for 2 servers"):
        simulate(toy, cfg)


def test_exponential_service_is_gamma_of_shape_one():
    """The simulator draws M/M/1 service as gamma(1, 1/mu); pin that it is
    bit-equal to rng.exponential(1/mu) from the same substream."""
    for seed in (0, 7, 12345):
        for mu in (0.3, 1.0, 9.0, 250.0):
            s = ServerSpec.mm1(0.01, mu)
            got = _service_times(s, 20_000, _rng(seed, 1, 2))
            expected = _rng(seed, 1, 2).exponential(1.0 / mu, size=20_000)
            assert np.array_equal(got, expected)


@settings(max_examples=300, deadline=None)
@given(
    p=st.lists(st.one_of(st.just(0.0), st.floats(5e-324, 1e-9), st.floats(0.0, 1.0)),
               min_size=1, max_size=9).filter(lambda p: sum(p) > 0.0),
    seed=st.integers(0, 2**32 - 1),
    n_jobs=st.integers(1, 5_000),
)
def test_routing_takes_the_jobs_choice_draws(p, seed, n_jobs):
    """Each server gets exactly the jobs that Generator.choice sends it from the
    same substream, for 1-9 servers and splits with zero and tiny entries."""
    q = np.asarray(p) / np.asarray(p).sum()
    choice = _rng(seed, 0, _ROUTING).choice(len(p), size=n_jobs, p=q)
    routed = list(_routed_jobs(tuple(p), n_jobs, _rng(seed, 0, _ROUTING)))
    assert len(routed) == len(p)
    for k, idx in enumerate(routed):
        assert np.array_equal(idx, np.flatnonzero(choice == k))


def test_routing_draws_on_a_cdf_step_go_right():
    """A draw equal to a CDF step goes to the next server with mass, as
    searchsorted(side="right") in Generator.choice sends it."""
    class Draws:
        def random(self, n):
            return u[:n]

    u = np.array([0.0, np.nextafter(0.25, 0.0), 0.25, 0.5, np.nextafter(0.5, 1.0), 0.75])
    p = (0.25, 0.0, 0.25, 0.5)  # the CDF is 0.25, 0.25, 0.5, 1
    server = np.searchsorted(np.cumsum(p), u, side="right")
    assert server.tolist() == [0, 0, 2, 3, 3, 3]
    routed = list(_routed_jobs(p, u.size, Draws()))
    assert [idx.tolist() for idx in routed] == [np.flatnonzero(server == k).tolist()
                                                for k in range(len(p))]


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


def test_validate_takes_settings_or_a_config(tmp_path, toy):
    """Settings alone give the bits of a config with a placeholder split and the
    same settings; a config keeps its sample file."""
    settings = SimSettings(horizon_jobs=3_000, seed=4, replications=2, warmup=0.1)
    raw = tmp_path / "raw.csv"
    config = SimulationConfig(lam=0.5, p=(1.0, 0.0), raw_samples_path=str(raw),
                              **dataclasses.asdict(settings))

    def bits(rec):
        floats = (rec.lam, rec.analytic_latency, rec.empirical_latency, rec.latency_ci,
                  rec.relative_gap, rec.tolerance)
        return [x.hex() for x in floats], rec.passed, rec.report

    by_settings = validate(toy, 1.0, AllocationKind.NEP, settings, tolerance=0.2)
    assert not list(tmp_path.iterdir())
    by_config = validate(toy, 1.0, AllocationKind.NEP, config, tolerance=0.2)
    assert bits(by_settings) == bits(by_config)
    assert by_settings.report.replications == 2
    assert (tmp_path / "raw.rep0.csv").exists() and (tmp_path / "raw.rep1.csv").exists()


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


# sha256 of the per-job sample files of BUILT["five"] with its two middle servers
# idle ("mid_idle"), at rho 0.5, 2000 jobs, warmup 0.2, seed 8; recorded with
# Generator.choice routing.
RAW_SHA256 = {
    1: {"raw.csv": "8a1a56021755bb1c8293673b44939ce562ccd679d666d65f1dea9e79fd20a2ef"},
    2: {"raw.rep0.csv": "8a1a56021755bb1c8293673b44939ce562ccd679d666d65f1dea9e79fd20a2ef",
        "raw.rep1.csv": "4c2d659887a164a9560ef4242131b60457b4a9acaefb5a6a301cc5932154ffab"},
}


@pytest.mark.parametrize("replications", sorted(RAW_SHA256))
def test_raw_samples_bytes(tmp_path, replications):
    cfg = SimulationConfig(lam=10.0, p=SPLITS["mid_idle"], horizon_jobs=2000, warmup=0.2,
                           seed=8, replications=replications,
                           raw_samples_path=str(tmp_path / "raw.csv"))
    simulate(BUILT["five"], cfg)
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert digests == RAW_SHA256[replications]


def test_nan_split_raises_numpys_error(toy):
    """A NaN in the split gets past SimulationConfig (abs(nan - 1) > tol is False);
    routing raises Generator.choice's error for it."""
    cfg = SimulationConfig(lam=1.0, p=(math.nan, 0.5), horizon_jobs=1_000)
    with pytest.raises(ValueError) as error:
        simulate(toy, cfg)
    assert type(error.value) is ValueError
    assert str(error.value) == "Probabilities contain NaN"


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
    sc = _scenario("scenario1")
    lam = 0.5 * sc.total_mu
    p = tuple(float(x) for x in solve_optimal(sc, lam).p)
    cfg = SimulationConfig(lam=lam, p=p, horizon_jobs=4000, seed=3, replications=replications)
    report = simulate(sc, cfg)
    aggregate, per_server = CI_GOLDEN[replications]
    assert report.latency_ci.hex() == aggregate
    assert [st.latency_ci.hex() for st in report.per_server] == per_server


# Every field of simulate's report, float.hex() for floats, in field order
# (per_server, then the aggregate), at rho 0.5 and seed 5. Keys are (scenario,
# split, replications, warmup), then the horizon in jobs where it is not 4000.
# The scenarios are scenario1, scenario3_cv10 and the two of BUILT. "opt" is the
# optimal split; the others are in SPLITS: "zero" (0.5, 0, 0.5) leaves the middle
# server without jobs, "over" (0.25, 0.5, 0.25) overloads it, and on five servers
# "first_idle", "last_idle" and "mid_idle" leave the first, the last and two
# adjacent middle servers without jobs. With 3 jobs at warmup 0.5 the last server
# gets only job 0, which the warmup drops. One replication has no interval and 32
# take the scipy quantile. The five- and one-server entries were recorded with
# Generator.choice routing.
REPORT_GOLDEN = {
    ("scenario1", "opt", 1, 0.0): (
        (
            ("0x1.71eae0ccdf902p-3", "0x1.1fff5bae273e2p-3", "0x1.1aebf26ff4416p-1", 1487,
             "0x1.0e9e7c9daee81p+3", "nan"),
            ("0x1.8cabc08bf1241p-3", "0x1.4f3b1cb4e6e6ap-3", "0x1.9f5c8162356e0p-2", 671,
             "0x1.e87609bb00229p+1", "nan"),
            ("0x1.00606312cbed0p-2", "0x1.9b1b25e4c94dfp-4", "0x1.0a6de44e18cb3p-1", 1842,
             "0x1.4f39bc480fed0p+3", "nan"),
        ),
        "0x1.b82e5f2e095c5p-3", "0x1.01f4894965d93p-3", "0x1.f8b00f9f6fd7bp-2",
        4000, "nan", False, 1,
    ),
    ("scenario1", "opt", 3, 0.5): (
        (
            ("0x1.6ca6fadec64a9p-3", "0x1.1abb75c00df8ap-3", "0x1.200e6723b3518p-1", 2266,
             "0x1.0ebaacbd858b5p+3", "0x1.8cfed7df397e9p-6"),
            ("0x1.9440b8842a3ebp-3", "0x1.56d014ad20013p-3", "0x1.993d7be761afdp-2", 1000,
             "0x1.dd8cc779459e4p+1", "0x1.80c4ba66e37a8p-6"),
            ("0x1.016498077b61bp-2", "0x1.9f2bf9b78720bp-4", "0x1.0835a6e0a3f80p-1", 2734,
             "0x1.46c6df8ff8e33p+3", "0x1.9e4cc8fceeac6p-7"),
        ),
        "0x1.b7f41fece5d81p-3", "0x1.02cb5b1953661p-3", "0x1.f89732a55ac10p-2",
        6000, "0x1.ef6885b4b78dap-13", False, 3,
    ),
    ("scenario1", "zero", 32, 0.0): (
        (
            ("0x1.2510822f204e8p-2", "0x1.f8357f3f884b1p-3", "0x1.7475c735d4668p-1", 63796,
             "0x1.5e74e48718bedp+3", "0x1.4d67735a6934cp-7"),
            ("nan", "nan", "0x0.0p+0", 0,
             "0x0.0p+0", "nan"),
            ("0x1.076cc726f7c54p-2", "0x1.b74cb63578ae9p-4", "0x1.1854f2b5b031fp-1", 64204,
             "0x1.60ad541147478p+3", "0x1.bf8a683ef0c18p-9"),
        ),
        "0x1.163e14055c1d0p-2", "0x1.6990e1d62082ep-3", "0x1.b331d147adbafp-2",
        128000, "0x1.6024744050896p-8", False, 32,
    ),
    ("scenario1", "over", 3, 0.5): (
        (
            ("0x1.3045ef71fd87dp-3", "0x1.bcb4d4a68a6bdp-4", "0x1.88e6c591c0970p-2", 1553,
             "0x1.73035d7b07998p+2", "0x1.2da664e6571b1p-6"),
            ("0x1.d541a911f3d43p+4", "0x1.d4c6c7ca45bfbp+4", "0x1.3082818b4e3aep+0", 2964,
             "0x1.6221e17c626e1p+3", "0x1.a1a0c601388edp+3"),
            ("0x1.b836955afd19cp-3", "0x1.0a06c44f93cd5p-4", "0x1.0f7ea0197bea4p-2", 1483,
             "0x1.62825be3d336bp+2", "0x1.7a043914b7571p-7"),
        ),
        "0x1.d150a9f9b8e3bp+3", "0x1.cf52b9c23c2dfp+3", "0x1.39bd3ca413922p-1",
        6000, "0x1.63c6f40d66f72p+2", True, 3,
    ),
    ("scenario3_cv10", "opt", 32, 0.5): (
        (
            ("0x1.1c6b5f130a711p+2", "0x1.19dc02ea14ae8p+2", "0x1.0dbef6640776bp-1", 21722,
             "0x1.dd1b936b837dap+2", "0x1.f8d6fcee812f7p+0"),
            ("0x1.729a116d2bcbcp+1", "0x1.6ec3072fbb27fp+1", "0x1.a977c957f2b3fp-2", 10323,
             "0x1.c52aa7c2b3e50p+1", "0x1.18badea19535ep+0"),
            ("0x1.9fac9579e274dp+1", "0x1.8c796246af419p+1", "0x1.1733ef2adc3dfp-1", 31955,
             "0x1.5ee346f254f0bp+3", "0x1.54819e9729331p+0"),
        ),
        "0x1.ce15fbec98e7ep+1", "0x1.c22469887db56p+1", "0x1.fbc9dc273e09cp-2",
        64000, "0x1.abe4a413d1fb3p-1", False, 32,
    ),
    ("scenario3_cv10", "zero", 1, 0.5): (
        (
            ("0x1.81e5c86ee62a5p+3", "0x1.809e1a5a6b492p+3", "0x1.b4768fa71ae70p-1", 995,
             "0x1.6a955222f114ap+3", "nan"),
            ("nan", "nan", "0x0.0p+0", 0,
             "0x0.0p+0", "nan"),
            ("0x1.fc25b6cfde7b1p+0", "0x1.d5bf50697814bp+0", "0x1.17f27f19dd04ep-1", 1005,
             "0x1.6e3a32cd1a18bp+3", "nan"),
        ),
        "0x1.bfcdda13a87bcp+2", "0x1.b9b4ddc360650p+2", "0x1.dd9b5f2b4ff29p-2",
        2000, "nan", False, 1,
    ),
    ("scenario3_cv10", "over", 3, 0.0): (
        (
            ("0x1.935c6262464bdp+1", "0x1.8e3daa105ac6bp+1", "0x1.9aab97dc365f3p-2", 3073,
             "0x1.6fa5dd4153f8fp+2", "0x1.1e99514f11a44p+3"),
            ("0x1.0e954f42d41a1p+5", "0x1.0e57de9efd0fdp+5", "0x1.5586ce0271c50p+0", 5952,
             "0x1.641c59e9e392bp+3", "0x1.cd219747eeecdp+3"),
            ("0x1.e555707996f58p-1", "0x1.9888a3acca28cp-1", "0x1.f138bc9216578p-3", 2975,
             "0x1.63f08a5d82288p+2", "0x1.011fa519691e0p-1"),
        ),
        "0x1.1cfc9c38f3debp+4", "0x1.1bfd6293fe381p+4", "0x1.519087b2816fep-1",
        12000, "0x1.1c18e59a928e4p+3", True, 3,
    ),
    ("scenario3_cv10", "zero", 3, 0.0): (
        (
            ("0x1.4cef6a5f72a66p+3", "0x1.4ba7bc4af7c53p+3", "0x1.734fc90d14c48p-1", 6046,
             "0x1.69ab73afa475dp+3", "0x1.9b935d43dda5fp+2"),
            ("nan", "nan", "0x0.0p+0", 0,
             "0x0.0p+0", "nan"),
            ("0x1.ed87ec02b3dc8p+0", "0x1.c721859c4d761p+0", "0x1.07019658af091p-1", 5954,
             "0x1.643c1a09aa2d8p+3", "0x1.533acd3585eb3p+0"),
        ),
        "0x1.8d3bba0139350p+2", "0x1.872e27b91449dp+2", "0x1.a6e0ea43d7de7p-2",
        12000, "0x1.c76c4c96261d9p+1", False, 3,
    ),
    ("five", "first_idle", 3, 0.2): (
        (
            ("nan", "nan", "0x0.0p+0", 0,
             "0x0.0p+0", "nan"),
            ("0x1.4dab2b847b00dp-1", "0x1.436dbae0a3f69p-1", "0x1.9012211bbc691p-1", 2954,
             "0x1.9012211bbc691p+1", "0x1.39b54adc1e4e4p-5"),
            ("0x1.6151e29ae267cp+0", "0x1.5d7ad85d71c3dp+0", "0x1.382f6d9371483p-1", 1892,
             "0x1.0008bff31c9cbp+1", "0x1.000c9cfda8e7fp-2"),
            ("0x1.6d812bc5008e5p-1", "0x1.5e2502cf3dfefp-1", "0x1.41ca437f5175fp-1", 2386,
             "0x1.433794d568ef2p+1", "0x1.d58dad21dd2d3p-3"),
            ("0x1.1102d5860ad29p-1", "0x1.0e73795d15101p-1", "0x1.406e107b96875p-1", 2368,
             "0x1.40a41c2e69168p+1", "0x1.7ab2cece9e5c9p-3"),
        ),
        "0x1.9069dd680d3edp-1", "0x1.874cc884506b8p-1", "0x1.0ee52d5537895p-1",
        9600, "0x1.44247e0824f58p-5", False, 3,
    ),
    ("five", "last_idle", 3, 0.0): (
        (
            ("0x1.d4e28210b8efdp-2", "0x1.caa5116ce1e5bp-2", "0x1.364e83710925dp-1", 3656,
             "0x1.8db3d95d5076bp+1", "0x1.633298798c8f3p-4"),
            ("0x1.00f210e4c7b90p-1", "0x1.ed694081e15dbp-2", "0x1.484e574d6a358p-1", 3019,
             "0x1.484e574d6a358p+1", "0x1.062c7d4a829d8p-5"),
            ("0x1.cb0bea078f2b9p+0", "0x1.c734dfca1e87bp+0", "0x1.46eb19110c01bp-1", 2350,
             "0x1.ff61bdb9a4ad3p+0", "0x1.e618c5ba26ef8p-2"),
            ("0x1.6c936de951920p-1", "0x1.5d3744f38f02cp-1", "0x1.4378d93f7b8d3p-1", 2975,
             "0x1.4394dae0a4de9p+1", "0x1.132e63e96da2cp-3"),
            ("nan", "nan", "0x0.0p+0", 0,
             "0x0.0p+0", "nan"),
        ),
        "0x1.96633ebb95b27p-1", "0x1.8cf0879d3f3e7p-1", "0x1.01ccf5cfcbc87p-1",
        12000, "0x1.f01bb85e7c386p-5", False, 3,
    ),
    ("five", "mid_idle", 3, 0.5): (
        (
            ("0x1.0a89a152afa8ep+0", "0x1.07fa4529b9e65p+0", "0x1.a51631aea21edp-1", 2423,
             "0x1.07352cd658b12p+2", "0x1.43dab1e8aa550p-1"),
            ("nan", "nan", "0x0.0p+0", 0,
             "0x0.0p+0", "nan"),
            ("nan", "nan", "0x0.0p+0", 0,
             "0x0.0p+0", "nan"),
            ("0x1.0a26e3738a09dp+0", "0x1.0278cef8a8c22p+0", "0x1.885e9bd06e875p-1", 1777,
             "0x1.81f20c70ca6e8p+1", "0x1.62a09e5cebf14p-2"),
            ("0x1.6e8f38105b605p-1", "0x1.6bffdbe7659dcp-1", "0x1.8c328e316cdc4p-1", 1800,
             "0x1.8714f3a689b0dp+1", "0x1.d7a9b5691b908p-3"),
        ),
        "0x1.e2f534f84b8abp-1", "0x1.db92b6365cf6bp-1", "0x1.e3dc8b1365675p-2",
        6000, "0x1.b010344a0b529p-3", False, 3,
    ),
    ("five", "mid_idle", 1, 0.5, 1): (
        (
            ("nan", "nan", "0x0.0p+0", 0,
             "0x0.0p+0", "nan"),
            ("nan", "nan", "0x0.0p+0", 0,
             "0x0.0p+0", "nan"),
            ("nan", "nan", "0x0.0p+0", 0,
             "0x0.0p+0", "nan"),
            ("nan", "nan", "0x0.0p+0", 0,
             "0x0.0p+0", "nan"),
            ("0x1.48947fcb7c7d8p-3", "0x1.3e570f27a5734p-3", "0x1.909856283cfa0p-1", 1,
             "0x1.4225a949bfa4ap+2", "nan"),
        ),
        "0x1.48947fcb7c7d8p-3", "0x1.3e570f27a5734p-3", "0x1.4079de86972e6p-3",
        1, "nan", False, 1,
    ),
    ("five", "mid_idle", 3, 0.5, 3): (
        (
            ("0x1.453c8fd09458cp-3", "0x1.30c1ae88e6444p-3", "0x1.460a6106ef81bp-1", 3,
             "0x1.4921ab29aa809p+2", "0x1.e31a1841463b8p-3"),
            ("nan", "nan", "0x0.0p+0", 0,
             "0x0.0p+0", "nan"),
            ("nan", "nan", "0x0.0p+0", 0,
             "0x0.0p+0", "nan"),
            ("0x1.2086cd6b3dd57p-3", "0x1.c62c532867300p-4", "0x1.3a9ed81784835p-1", 3,
             "0x1.4921ab29aa809p+2", "0x1.bf02b30fba9c8p-4"),
            ("nan", "nan", "0x0.0p+0", 0,
             "0x0.0p+0", "nan"),
        ),
        "0x1.32e1ae9de9171p-3", "0x1.09ebec0e8cee1p-3", "0x1.0043b07294cecp-2",
        6, "0x1.1580407ff42d1p-4", False, 3,
    ),
    ("one", "opt", 3, 0.2): (
        (
            ("0x1.1497a46992f20p-1", "0x1.0f78ec17a76cfp-1", "0x1.032dc2ed07dddp-1", 9600,
             "0x1.44fda484aac2dp+1", "0x1.403300f434528p-4"),
        ),
        "0x1.1497a46992f20p-1", "0x1.0f78ec17a76cfp-1", "0x1.032dc2ed07dddp-1",
        9600, "0x1.403300f434528p-4", False, 3,
    ),
}


def _report_bits(obj):
    bits = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.name == "per_server":
            value = tuple(_report_bits(st) for st in value)
        elif isinstance(value, float):
            value = value.hex()
        bits.append(value)
    return tuple(bits)


@pytest.mark.parametrize("case", sorted(REPORT_GOLDEN))
def test_report_bits(case):
    """Every float of the report and of each ServerStats keeps its bits."""
    name, split, replications, warmup, *jobs = case
    sc = _scenario(name)
    lam = 0.5 * sc.total_mu
    p = tuple(float(x) for x in solve_optimal(sc, lam).p) if split == "opt" else SPLITS[split]
    cfg = SimulationConfig(lam=lam, p=p, horizon_jobs=jobs[0] if jobs else 4000, warmup=warmup,
                           seed=5, replications=replications)
    assert _report_bits(simulate(sc, cfg)) == REPORT_GOLDEN[case]


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
