"""Scenario files: a small versioned JSON schema.

A scenario file carries the server list plus optional solver, sweep,
and simulation settings (shown here with their defaults):

    {
      "format": "taskalloc-scenario/1",
      "servers": [
        {"d_ms": 40, "mu": 15, "cv": 1, "model": "mm1"},
        {"d_ms": 30, "mu": 9}
      ],
      "solver": {"resolution": 1e-12, "eps_sat": 1e-9},
      "sweep": {"count": 400, "rho_min": 0.01, "rho_max": 0.999},
      "simulation": {"horizon_jobs": 200000, "seed": 0, "replications": 5, "warmup": 0.2}
    }

The keys of each optional section are exactly the fields of
``SolverConfig``, ``SweepSpec`` and ``SimSettings``, and an omitted key
takes that field's default; a ``sweep`` may instead carry an explicit
``"grid"`` of loads.  Delays are given in milliseconds (``d_ms``) or,
when a delay in seconds has no exact millisecond representation, as
``d_s``; exactly one of the two is allowed per server.  ``cv`` defaults
to 1 and ``model`` is inferred from ``cv`` when omitted.  Unknown keys
anywhere are rejected, and every parse error names the offending
location.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

from .errors import DomainError, ScenarioParseError
from .latency import QueueModel, ServerSpec
from .poa import SweepSpec
from .simulator import SimSettings
from .solver import Scenario, SolverConfig

FORMAT = "taskalloc-scenario/1"

_TOP_KEYS = {"format", "servers", "solver", "sweep", "simulation"}
_SERVER_KEYS = {"d_ms", "d_s", "mu", "cv", "model"}


@dataclass(frozen=True)
class ScenarioDocument:
    scenario: Scenario
    sweep: SweepSpec | None = None
    simulation: SimSettings | None = None


def _require(cond: bool, message: str, location: str) -> None:
    if not cond:
        raise ScenarioParseError(message, location)


def _check_keys(obj: dict, allowed: set, location: str) -> None:
    for key in obj:
        _require(key in allowed, f"unknown key '{key}'", f"{location}.{key}" if location else key)


def _finite(value, location: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             "expected a number", location)
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    _require(math.isfinite(value), "expected a finite number", location)
    return value


def _number(obj: dict, key: str, location: str, default=None):
    if key not in obj:
        return default
    return _finite(obj[key], f"{location}.{key}")


def _integer(obj: dict, key: str, location: str, default=None):
    if key not in obj:
        return default
    value = obj[key]
    _require(isinstance(value, int) and not isinstance(value, bool),
             "expected an integer", f"{location}.{key}")
    return value


def _section(obj, cls, location: str) -> None:
    """Check that a settings section is an object whose keys are fields of ``cls``."""
    _require(isinstance(obj, dict), "expected an object", location)
    _check_keys(obj, {f.name for f in fields(cls)}, location)


def _settings(obj: dict, cls, location: str) -> dict:
    """Each numeric field of ``cls``, in field order: the section's value or the default."""
    read = {int: _integer, float: _number}
    return {f.name: read[type(f.default)](obj, f.name, location, default=f.default)
            for f in fields(cls) if f.default is not None}


def _parse_server(obj, location: str) -> ServerSpec:
    _require(isinstance(obj, dict), "expected an object", location)
    _check_keys(obj, _SERVER_KEYS, location)
    has_ms = "d_ms" in obj
    has_s = "d_s" in obj
    _require(has_ms != has_s, "exactly one of 'd_ms' and 'd_s' is required", location)
    d = _number(obj, "d_ms", location) / 1000.0 if has_ms else _number(obj, "d_s", location)
    mu = _number(obj, "mu", location)
    _require(mu is not None, "missing required key 'mu'", location)
    cv = _number(obj, "cv", location, default=1.0)

    if "model" in obj:
        raw = obj["model"]
        _require(isinstance(raw, str), "expected a string", f"{location}.model")
        try:
            model = QueueModel(raw)
        except ValueError:
            raise ScenarioParseError(
                f"unknown model '{raw}' (choose mm1, mg1, or md1)", f"{location}.model"
            ) from None
        _require(model is not QueueModel.GENERIC,
                 "generic models cannot be described in a scenario file", f"{location}.model")
    elif cv == 1.0:
        model = QueueModel.MM1
    elif cv == 0.0:
        model = QueueModel.MD1
    else:
        model = QueueModel.MG1

    try:
        return ServerSpec(d=d, mu=mu, cv=cv, model=model)
    except ValueError as exc:
        raise ScenarioParseError(str(exc), location) from None


def _parse_sweep(obj, location: str) -> SweepSpec:
    _section(obj, SweepSpec, location)
    if "grid" in obj:
        _require(set(obj) == {"grid"}, "'grid' excludes the count/rho keys", location)
        raw = obj["grid"]
        _require(isinstance(raw, list) and len(raw) > 0, "expected a non-empty array",
                 f"{location}.grid")
        grid = [_finite(value, f"{location}.grid[{i}]") for i, value in enumerate(raw)]
        _require(all(b > a for a, b in zip(grid, grid[1:])) and grid[0] > 0,
                 "grid must be positive and strictly increasing", f"{location}.grid")
        return SweepSpec(grid=tuple(grid))
    spec = _settings(obj, SweepSpec, location)
    _require(spec["count"] >= 2, "count must be at least 2", f"{location}.count")
    _require(0.0 < spec["rho_min"] < spec["rho_max"] < 1.0, "need 0 < rho_min < rho_max < 1",
             location)
    return SweepSpec(**spec)


def _parse_simulation(obj, location: str) -> SimSettings:
    _section(obj, SimSettings, location)
    sim = _settings(obj, SimSettings, location)
    _require(sim["horizon_jobs"] > 0, "horizon_jobs must be > 0", f"{location}.horizon_jobs")
    _require(sim["replications"] >= 1, "replications must be >= 1", f"{location}.replications")
    _require(0.0 <= sim["warmup"] <= 0.5, "warmup must be in [0, 0.5]", f"{location}.warmup")
    try:
        return SimSettings(**sim)
    except DomainError as exc:
        raise ScenarioParseError(str(exc), location) from None


def parse_scenario(text: str, source: str = "<scenario>") -> ScenarioDocument:
    """Parse scenario-file text; errors carry a location (or line/column)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(exc.msg, f"{source}:{exc.lineno}:{exc.colno}") from None

    _require(isinstance(doc, dict), "top level must be an object", source)
    _check_keys(doc, _TOP_KEYS, "")
    _require("format" in doc, "missing required key 'format'", "format")
    _require(doc["format"] == FORMAT, f"unsupported format '{doc['format']}', expected '{FORMAT}'",
             "format")
    _require("servers" in doc, "missing required key 'servers'", "servers")
    raw_servers = doc["servers"]
    _require(isinstance(raw_servers, list) and len(raw_servers) > 0,
             "expected a non-empty array", "servers")
    servers = [_parse_server(s, f"servers[{i}]") for i, s in enumerate(raw_servers)]

    config = SolverConfig()
    if "solver" in doc:
        _section(doc["solver"], SolverConfig, "solver")
        solver = _settings(doc["solver"], SolverConfig, "solver")
        _require(solver["resolution"] > 0.0, "resolution must be > 0", "solver.resolution")
        _require(0.0 < solver["eps_sat"] < 1.0, "eps_sat must be in (0, 1)", "solver.eps_sat")
        config = SolverConfig(**solver)

    sweep = _parse_sweep(doc["sweep"], "sweep") if "sweep" in doc else None
    simulation = _parse_simulation(doc["simulation"], "simulation") if "simulation" in doc else None
    return ScenarioDocument(scenario=Scenario(tuple(servers), config), sweep=sweep,
                            simulation=simulation)


def load_scenario_file(path: str) -> ScenarioDocument:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioParseError(str(exc), path) from None
    return parse_scenario(text, source=path)


def _delay_fields(d: float) -> dict:
    ms = d * 1000.0
    if ms / 1000.0 == d:
        return {"d_ms": ms}
    return {"d_s": d}  # no exact millisecond representation


def dump_scenario(doc: ScenarioDocument) -> str:
    """Serialize so that parse_scenario returns an identical document."""
    sc = doc.scenario
    if sc.has_generic():
        raise ScenarioParseError("generic models cannot be written to a scenario file")
    out: dict = {"format": FORMAT, "servers": []}
    for s in sc.servers:
        entry = _delay_fields(s.d)
        entry["mu"] = s.mu
        entry["cv"] = s.cv
        entry["model"] = s.model.value
        out["servers"].append(entry)
    out["solver"] = asdict(sc.config)
    if doc.sweep is not None:
        sweep = asdict(doc.sweep)
        grid = sweep.pop("grid")
        out["sweep"] = sweep if grid is None else {"grid": grid}
    if doc.simulation is not None:
        out["simulation"] = asdict(doc.simulation)
    return json.dumps(out, indent=2) + "\n"
