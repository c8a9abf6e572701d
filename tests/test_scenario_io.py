"""Scenario files: schema validation, locations in errors, round-trips."""

import json
import math
from pathlib import Path

import pytest

from taskalloc import (
    QueueModel,
    ScenarioDocument,
    ScenarioParseError,
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


@pytest.mark.parametrize("sweep, fragment", [
    ({"grid": [1.0, 2.0], "count": 5}, "grid"),
    ({"grid": []}, "non-empty"),
    ({"grid": [2.0, 1.0]}, "strictly increasing"),
    ({"grid": [0.0, 1.0]}, "positive"),
    ({"count": 1}, "count"),
    ({"rho_min": 0.9, "rho_max": 0.5}, "rho_min"),
    ({"rho_min": 0.0}, "rho_min"),
])
def test_sweep_validation(sweep, fragment):
    doc = json.loads(MINIMAL)
    doc["sweep"] = sweep
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(json.dumps(doc))
    assert fragment in str(err.value)


@pytest.mark.parametrize("sim", [
    {"horizon_jobs": 0},
    {"replications": 0},
    {"warmup": 0.7},
])
def test_simulation_validation(sim):
    doc = json.loads(MINIMAL)
    doc["simulation"] = sim
    with pytest.raises(ScenarioParseError):
        parse_scenario(json.dumps(doc))


def test_solver_block_overrides_config():
    doc = json.loads(MINIMAL)
    doc["solver"] = {"resolution": 1e-10}
    parsed = parse_scenario(json.dumps(doc))
    assert parsed.scenario.config.resolution == 1e-10
    assert parsed.scenario.config.eps_sat == SolverConfig().eps_sat

    doc["solver"] = {"resolution": -1.0}
    with pytest.raises(ScenarioParseError, match="resolution"):
        parse_scenario(json.dumps(doc))


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
