"""Scenario files: schema validation, locations in errors, round-trips."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from taskalloc import (
    DomainError,
    QueueModel,
    ScenarioDocument,
    ScenarioParseError,
    ServerSpec,
    SimSettings,
    SweepSpec,
    dump_scenario,
    load_scenario_file,
    parse_scenario,
)
from taskalloc.solver import Scenario, SolverConfig

from test_latency import as_generic

MINIMAL = """
{
  "format": "taskalloc-scenario/1",
  "servers": [{"d_ms": 40, "mu": 15}]
}
"""


def test_minimal_document_defaults():
    doc = parse_scenario(MINIMAL)
    (server,) = doc.scenario.servers
    assert server.d == pytest.approx(0.040, rel=1e-15)
    assert server.mu == 15.0
    assert server.cv == 1.0
    assert server.model is QueueModel.MM1
    assert doc.scenario.config == SolverConfig()
    assert doc.sweep is None and doc.simulation is None


def test_model_inference_from_cv():
    text = json.dumps({
        "format": "taskalloc-scenario/1",
        "servers": [
            {"d_ms": 1, "mu": 5},
            {"d_ms": 1, "mu": 5, "cv": 0},
            {"d_ms": 1, "mu": 5, "cv": 2.5},
            {"d_ms": 1, "mu": 5, "cv": 1, "model": "mg1"},
        ],
    })
    models = [s.model for s in parse_scenario(text).scenario.servers]
    assert models == [QueueModel.MM1, QueueModel.MD1, QueueModel.MG1, QueueModel.MG1]


def test_full_document_round_trip():
    doc = parse_scenario(json.dumps({
        "format": "taskalloc-scenario/1",
        "servers": [
            {"d_ms": 40, "mu": 15, "cv": 1, "model": "mm1"},
            {"d_ms": 34.5, "mu": 9.25, "cv": 0.5, "model": "mg1"},
        ],
        "solver": {"resolution": 1e-11, "eps_sat": 1e-8},
        "sweep": {"count": 50, "rho_min": 0.05, "rho_max": 0.9},
        "simulation": {"horizon_jobs": 1000, "seed": 3, "replications": 2, "warmup": 0.1},
    }))
    assert doc.sweep == SweepSpec(count=50, rho_min=0.05, rho_max=0.9)
    assert doc.simulation == SimSettings(horizon_jobs=1000, seed=3, replications=2, warmup=0.1)
    assert parse_scenario(dump_scenario(doc)) == doc

    with_grid = ScenarioDocument(doc.scenario, sweep=SweepSpec(grid=(1.0, 2.0, 3.5)))
    assert parse_scenario(dump_scenario(with_grid)) == with_grid


_positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
_open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def _server(draw):
    if draw(st.booleans()):
        d = draw(st.floats(0.0, allow_infinity=False))
    else:  # a delay that is written as d_s, found in under 128 steps down from a normal float:
        # with a significand in [1.024, 2), d * 1000 drops 10 bits, and one in 128 consecutive
        # significands drops exactly half its last kept bit, 0.512 ulp of d after dividing by 1000
        d = math.ldexp(draw(st.floats(1.025, 2.0, exclude_max=True)), draw(st.integers(-1022, 9)))
        while d * 1000.0 / 1000.0 == d:
            d = math.nextafter(d, 0.0)
    mu = draw(_positive)
    assume(math.isfinite(d + 1.0 / mu))  # ServerSpec rejects an infinite zero-load latency
    model = draw(st.sampled_from([QueueModel.MM1, QueueModel.MD1, QueueModel.MG1]))
    cv = {QueueModel.MM1: 1.0, QueueModel.MD1: 0.0}.get(model)
    if cv is None:
        cv = draw(st.floats(0.0, 1e150))
    return ServerSpec(d, mu, cv, model)


@st.composite
def _sweep(draw):
    if draw(st.booleans()):
        return SweepSpec(grid=tuple(sorted(set(draw(st.lists(_positive, min_size=1))))))
    rho_min, rho_max = sorted((draw(_open_unit), draw(_open_unit)))
    if rho_min == rho_max:  # part them toward the side with room; (0, 1) holds a float on one side
        rho_min, rho_max = ((rho_min, math.nextafter(rho_max, 1.0)) if rho_max < 0.5
                            else (math.nextafter(rho_min, 0.0), rho_max))
    return SweepSpec(count=draw(st.integers(2, 10**6)), rho_min=rho_min, rho_max=rho_max)


def _constructs(kwargs) -> bool:
    try:
        SimSettings(**kwargs)
    except DomainError:  # e.g. 2 jobs at warmup 0.5: an empty kept window
        return False
    return True


_simulation = st.fixed_dictionaries(dict(
    horizon_jobs=st.integers(1, 10**30), seed=st.integers(), replications=st.integers(1, 10**6),
    warmup=st.floats(0.0, 0.5),
)).filter(_constructs).map(lambda kwargs: SimSettings(**kwargs))
_document = st.builds(
    ScenarioDocument,
    scenario=st.builds(Scenario, st.lists(_server(), min_size=1, max_size=5).map(tuple),
                       st.builds(SolverConfig, resolution=_positive, eps_sat=_open_unit)),
    sweep=st.none() | _sweep(),
    simulation=st.none() | _simulation,
)


@settings(max_examples=300, deadline=None, database=None)
@given(_document)
def test_dump_parse_round_trip(doc):
    assert parse_scenario(dump_scenario(doc)) == doc


def test_dump_uses_d_s_when_milliseconds_inexact():
    # a delay whose seconds value has no exact representation as value/1000
    d = 0.008194704787238938
    assert (d * 1000.0) / 1000.0 != d
    doc = parse_scenario(json.dumps({
        "format": "taskalloc-scenario/1",
        "servers": [{"d_s": d, "mu": 2}, {"d_ms": 40, "mu": 15}],
    }))
    text = dump_scenario(doc)
    servers = json.loads(text)["servers"]
    assert "d_s" in servers[0] and "d_ms" not in servers[0]
    assert "d_ms" in servers[1] and "d_s" not in servers[1]
    again = parse_scenario(text)
    assert again.scenario.servers[0].d == d


def test_json_error_carries_line_and_column():
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario('{"format": }\n', source="bad.json")
    assert err.value.location.startswith("bad.json:1:")


@pytest.mark.parametrize("mutate, location", [
    (lambda d: d.update(extra=1), "extra"),
    (lambda d: d["servers"][0].update(bogus=2), "servers[0].bogus"),
    (lambda d: d.update(solver={"foo": 1}), "solver.foo"),
    (lambda d: d.update(sweep={"speed": 9}), "sweep.speed"),
    (lambda d: d.update(simulation={"jobs": 9}), "simulation.jobs"),
])
def test_unknown_keys_rejected_with_location(mutate, location):
    doc = json.loads(MINIMAL)
    mutate(doc)
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.location == location


@pytest.mark.parametrize("doc, fragment", [
    ({}, "format"),
    ({"format": "taskalloc-scenario/2", "servers": [{"d_ms": 1, "mu": 1}]}, "unsupported format"),
    ({"format": "taskalloc-scenario/1"}, "servers"),
    ({"format": "taskalloc-scenario/1", "servers": []}, "non-empty"),
    ({"format": "taskalloc-scenario/1", "servers": [{"mu": 1}]}, "d_ms"),
    ({"format": "taskalloc-scenario/1", "servers": [{"d_ms": 1, "d_s": 0.001, "mu": 1}]}, "d_ms"),
    ({"format": "taskalloc-scenario/1", "servers": [{"d_ms": 1}]}, "mu"),
    ({"format": "taskalloc-scenario/1", "servers": [{"d_ms": 1, "mu": 1, "model": "m/m/1"}]},
     "unknown model"),
    ({"format": "taskalloc-scenario/1", "servers": [{"d_ms": 1, "mu": 1, "model": "generic"}]},
     "generic"),
    ({"format": "taskalloc-scenario/1", "servers": [{"d_ms": 1, "mu": 1, "cv": 2, "model": "mm1"}]},
     "cv"),
    ({"format": "taskalloc-scenario/1", "servers": [{"d_ms": 1, "mu": -1}]}, "mu"),
    ({"format": "taskalloc-scenario/1", "servers": [{"d_ms": 1, "mu": math.inf}]},
     "servers[0].mu: expected a finite number"),
    ({"format": "taskalloc-scenario/1", "servers": [{"d_ms": 1, "mu": 10 ** 400}]},
     "servers[0].mu: expected a finite number"),
    ({"format": "taskalloc-scenario/1", "servers": [{"d_ms": 1, "mu": 1, "cv": math.inf}]},
     "servers[0].cv: expected a finite number"),
    ({"format": "taskalloc-scenario/1", "servers": [{"d_ms": math.nan, "mu": 1}]},
     "servers[0].d_ms: expected a finite number"),
    ({"format": "taskalloc-scenario/1", "servers": [{"d_ms": 1, "mu": 1}],
      "solver": {"resolution": math.inf}}, "solver.resolution: expected a finite number"),
    ({"format": "taskalloc-scenario/1", "servers": [{"d_ms": 1, "mu": 1}],
      "simulation": {"warmup": math.nan}}, "simulation.warmup: expected a finite number"),
    ({"format": "taskalloc-scenario/1", "servers": [{"d_ms": 1, "mu": 1}],
      "sweep": {"grid": [0.5, math.inf]}}, "sweep.grid[1]: expected a finite number"),
], ids=["empty", "format", "no-servers", "empty-servers", "no-delay", "both-delays",
        "no-mu", "bad-model", "generic-model", "model-cv-clash", "negative-mu",
        "infinite-mu", "huge-integer-mu", "infinite-cv", "nan-delay", "infinite-resolution",
        "nan-warmup", "infinite-grid-load"])
def test_document_validation(doc, fragment):
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(json.dumps(doc))
    assert fragment in str(err.value)


def test_booleans_are_not_numbers():
    doc = json.loads(MINIMAL)
    doc["servers"][0]["d_ms"] = True
    with pytest.raises(ScenarioParseError, match="expected a number"):
        parse_scenario(json.dumps(doc))

    doc = json.loads(MINIMAL)
    doc["simulation"] = {"seed": True}
    with pytest.raises(ScenarioParseError, match="expected an integer"):
        parse_scenario(json.dumps(doc))

    doc = json.loads(MINIMAL)
    doc["simulation"] = {"seed": 3.5}
    with pytest.raises(ScenarioParseError, match="expected an integer"):
        parse_scenario(json.dumps(doc))


def _section_error(section: str, value) -> ScenarioParseError:
    doc = json.loads(MINIMAL)
    doc[section] = value
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(json.dumps(doc))
    return err.value


# The whole error text and location of each rejected section, so that a
# change to how the sections are read keeps every byte and the order of checks.
@pytest.mark.parametrize("sweep, message, location", [
    ({"grid": [1.0, 2.0], "count": 5}, "sweep: 'grid' excludes the count/rho keys", "sweep"),
    ({"grid": []}, "sweep.grid: expected a non-empty array", "sweep.grid"),
    ({"grid": [2.0, 1.0]}, "sweep.grid: grid must be positive and strictly increasing",
     "sweep.grid"),
    ({"grid": [0.0, 1.0]}, "sweep.grid: grid must be positive and strictly increasing",
     "sweep.grid"),
    ({"count": 1}, "sweep.count: count must be at least 2", "sweep.count"),
    ({"rho_min": 0.9, "rho_max": 0.5}, "sweep: need 0 < rho_min < rho_max < 1", "sweep"),
    ({"rho_min": 0.0}, "sweep: need 0 < rho_min < rho_max < 1", "sweep"),
    ("x", "sweep: expected an object", "sweep"),
    ({"speed": 9}, "sweep.speed: unknown key 'speed'", "sweep.speed"),
    ({"count": 2.5}, "sweep.count: expected an integer", "sweep.count"),
    ({"rho_max": 1.0}, "sweep: need 0 < rho_min < rho_max < 1", "sweep"),
    ({"count": 1, "rho_min": 0.0}, "sweep.count: count must be at least 2", "sweep.count"),
    ({"grid": [1.0], "count": "x"}, "sweep: 'grid' excludes the count/rho keys", "sweep"),
    ({"grid": 3}, "sweep.grid: expected a non-empty array", "sweep.grid"),
    ({"grid": [0.5, "x"]}, "sweep.grid[1]: expected a number", "sweep.grid[1]"),
], ids=["sweep0-grid", "sweep1-non-empty", "sweep2-strictly increasing", "sweep3-positive",
        "sweep4-count", "sweep5-rho_min", "sweep6-rho_min", "not-object", "unknown-key",
        "fractional-count", "rho_max-one", "count-checked-first", "grid-excludes-before-reading",
        "grid-not-array", "grid-string"])
def test_sweep_validation(sweep, message, location):
    err = _section_error("sweep", sweep)
    assert (str(err), err.location) == (message, location)


@pytest.mark.parametrize("kwargs", [
    {"count": 1}, {"count": 2.5}, {"count": True}, {"rho_min": 0.9, "rho_max": 0.5},
    {"rho_min": 0.0}, {"rho_max": 1.0}, {"rho_min": math.nan}, {"grid": ()},
    {"grid": (2.0, 1.0)}, {"grid": (0.0, 1.0)}, {"grid": (1.0, 1.0)}, {"grid": (1.0, math.inf)},
    {"grid": (1.0, 2.0), "count": 5},
])
def test_sweep_spec_rejects_what_the_parser_rejects(kwargs):
    with pytest.raises(DomainError):
        SweepSpec(**kwargs)


@st.composite
def _sweep_kwargs(draw):
    """Any mix of SweepSpec arguments, valid or not; an omitted one takes its default."""
    kwargs = {}
    if draw(st.booleans()):
        kwargs["grid"] = draw(st.lists(st.floats() | st.integers(-3, 10**9), max_size=5).map(tuple)
                              | st.lists(_positive, min_size=1, unique=True).map(sorted).map(tuple))
    for name, values in (("count", st.integers(-3, 10**9) | st.floats(0.0, 10.0)),
                         ("rho_min", _open_unit | st.floats()),
                         ("rho_max", _open_unit | st.floats())):
        if draw(st.booleans()):
            kwargs[name] = draw(values)
    return kwargs


@settings(max_examples=400, deadline=None, database=None)
@given(_sweep_kwargs())
def test_every_sweep_spec_that_constructs_dumps_and_reparses_equal(kwargs):
    try:
        spec = SweepSpec(**kwargs)
    except DomainError:
        return
    doc = ScenarioDocument(parse_scenario(MINIMAL).scenario, sweep=spec)
    assert parse_scenario(dump_scenario(doc)) == doc


@pytest.mark.parametrize("sim, message, location", [
    ({"horizon_jobs": 0}, "simulation.horizon_jobs: horizon_jobs must be > 0",
     "simulation.horizon_jobs"),
    ({"replications": 0}, "simulation.replications: replications must be >= 1",
     "simulation.replications"),
    ({"warmup": 0.7}, "simulation.warmup: warmup must be in [0, 0.5]", "simulation.warmup"),
    (None, "simulation: expected an object", "simulation"),
    ({"jobs": 9}, "simulation.jobs: unknown key 'jobs'", "simulation.jobs"),
    ({"horizon_jobs": True}, "simulation.horizon_jobs: expected an integer",
     "simulation.horizon_jobs"),
    ({"seed": 3.5}, "simulation.seed: expected an integer", "simulation.seed"),
    ({"warmup": "x"}, "simulation.warmup: expected a number", "simulation.warmup"),
    ({"warmup": -0.1}, "simulation.warmup: warmup must be in [0, 0.5]", "simulation.warmup"),
    ({"horizon_jobs": 0, "replications": 0, "warmup": 1},
     "simulation.horizon_jobs: horizon_jobs must be > 0", "simulation.horizon_jobs"),
    ({"horizon_jobs": 2, "warmup": 0.5},
     "simulation: a warmup of 0.5 over 2 jobs keeps a window of fewer than two arrivals", "simulation"),
], ids=["sim0", "sim1", "sim2", "not-object", "unknown-key", "boolean-horizon",
        "fractional-seed", "string-warmup", "negative-warmup", "horizon-checked-first", "empty-window"])
def test_simulation_validation(sim, message, location):
    err = _section_error("simulation", sim)
    assert (str(err), err.location) == (message, location)


def test_solver_block_overrides_config():
    doc = json.loads(MINIMAL)
    doc["solver"] = {"resolution": 1e-10}
    parsed = parse_scenario(json.dumps(doc))
    assert parsed.scenario.config.resolution == 1e-10
    assert parsed.scenario.config.eps_sat == SolverConfig().eps_sat

    for solver, message, location in [
        ({"resolution": -1.0}, "solver.resolution: resolution must be > 0", "solver.resolution"),
        ({"resolution": 0}, "solver.resolution: resolution must be > 0", "solver.resolution"),
        ({"eps_sat": 0}, "solver.eps_sat: eps_sat must be in (0, 1)", "solver.eps_sat"),
        ({"eps_sat": 1}, "solver.eps_sat: eps_sat must be in (0, 1)", "solver.eps_sat"),
        ({"resolution": -1, "eps_sat": 2}, "solver.resolution: resolution must be > 0",
         "solver.resolution"),
        (5, "solver: expected an object", "solver"),
        ([1], "solver: expected an object", "solver"),
        ({"foo": 1}, "solver.foo: unknown key 'foo'", "solver.foo"),
        ({"eps_sat": "x"}, "solver.eps_sat: expected a number", "solver.eps_sat"),
        ({"resolution": True}, "solver.resolution: expected a number", "solver.resolution"),
    ]:
        err = _section_error("solver", solver)
        assert (str(err), err.location) == (message, location), solver


def test_load_scenario_file(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(MINIMAL)
    doc = load_scenario_file(str(path))
    assert doc.scenario.servers[0].mu == 15.0

    with pytest.raises(ScenarioParseError) as err:
        load_scenario_file(str(tmp_path / "absent.json"))
    assert err.value.location == str(tmp_path / "absent.json")


def test_dump_rejects_generic(toy):
    doc = ScenarioDocument(Scenario((as_generic(toy.servers[0]),)))
    with pytest.raises(ScenarioParseError, match="generic"):
        dump_scenario(doc)


def test_bundled_scenarios_parse():
    root = Path(__file__).resolve().parent.parent / "scenarios"
    paths = sorted(root.glob("*.json"))
    assert len(paths) >= 6
    for path in paths:
        doc = load_scenario_file(str(path))
        assert len(doc.scenario.servers) >= 1
        total = doc.scenario.total_mu
        assert math.isfinite(total) and total > 0.0
