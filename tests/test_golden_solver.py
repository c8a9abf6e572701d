"""Solver golden: the exact bits of thresholds and splits, pinned in a file.

``tests/golden_solver.json`` holds, for the bundled scenarios and seeded
random ones, ``float.hex`` of both kinds' activation thresholds and, at
each probed load, of the split p, the multiplier and the mean latency,
with the active count; a load that raises holds the exception's type and
message instead.  The loads are random ones, the float before, at and
after each threshold of the kind being solved, the load cap and a few
tiny or infeasible loads.  A change to the solver's arithmetic that moves
one bit fails here.  Regenerating the file
(``PYTHONPATH=src python tests/test_golden_solver.py``) is a deliberate
change of program output and must be recorded, with its reason, in
CHANGES.md.
"""

import json
import math
from pathlib import Path

import numpy as np

from taskalloc import AllocationKind, Scenario, ServerSpec, activation_thresholds, load_scenario_file
from taskalloc.solver import _solve

from conftest import random_loads, random_scenario
from test_latency import as_generic

GOLDEN = Path(__file__).resolve().parent / "golden_solver.json"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SIZES = (1, 2, 3, 4, 5, 6, 8, 10, 14, 20)


def _cases():
    """(label, scenario) pairs: bundled files, seeded draws, tied zero-load latencies."""
    cases = [(path.name, load_scenario_file(path).scenario) for path in sorted(SCENARIOS.glob("*.json"))]
    rng = np.random.default_rng(20261018)
    for k in range(21):
        sc = random_scenario(rng, sizes=SIZES if k < 20 else (40,))
        if k % 4 == 3 and len(sc.servers) <= 10:
            # one server through the generic (numeric inversion) path
            i = int(rng.integers(len(sc.servers)))
            servers = list(sc.servers)
            servers[i] = as_generic(servers[i])
            sc = Scenario(tuple(servers))
        cases.append((f"random{k}", sc))
    cases.append(("md1_ties", Scenario((
        ServerSpec.md1(0.02, 10.0), ServerSpec.mm1(0.02, 10.0), ServerSpec.md1(0.02, 10.0),
        ServerSpec.mg1(0.07, 20.0, 0.5), ServerSpec.md1(0.095, 40.0), ServerSpec.mm1(0.1, 8.0),
    ))))
    return cases


def _record(sc, kind, lam):
    try:
        res = _solve(sc, lam, kind)
    except Exception as exc:  # the type and message are part of the record
        return {"raises": type(exc).__name__, "message": str(exc)}
    return {
        "p": " ".join(float(q).hex() for q in res.p),
        "multiplier": res.multiplier.hex(),
        "mean": res.mean_latency.hex(),
        "active": res.active_count,
    }


def _golden(sc, seed):
    rng = np.random.default_rng(seed)
    shared = [float(x) for x in random_loads(rng, sc, 4)]
    shared += [sc.load_cap, math.nextafter(sc.load_cap, math.inf), 1e-16, 1e-9, 1e-6 * sc.total_mu]
    out = {}
    for kind in AllocationKind:
        loads = activation_thresholds(sc, kind).loads
        probes = shared + [x for t in loads
                           for x in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))]
        out[kind.value] = {
            "thresholds": [t.hex() for t in loads],
            "solves": {lam.hex(): _record(sc, kind, lam) for lam in probes},
        }
    return out


def _golden_outputs():
    return {label: _golden(sc, seed) for seed, (label, sc) in enumerate(_cases())}


def test_solver_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = _golden_outputs()
    assert sorted(actual) == sorted(expected)
    differing = [
        f"{label} {kind} {lam}"
        for label in expected
        for kind in expected[label]
        for lam, rec in expected[label][kind]["solves"].items()
        if actual[label][kind]["solves"].get(lam) != rec
    ]
    differing += [
        f"{label} {kind} thresholds"
        for label in expected
        for kind in expected[label]
        if actual[label][kind]["thresholds"] != expected[label][kind]["thresholds"]
    ]
    assert differing == []
    assert actual == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_golden_outputs(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
