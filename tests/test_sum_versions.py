"""The solver and price-of-anarchy goldens under Python 3.12's ``sum``.

From Python 3.12 on, the builtin ``sum`` adds floats with Neumaier's
compensation (gh-100425), so a float sum in ``src/`` that goes through it
gives other bits there than on 3.11.  These tests patch an emulation of
that ``sum`` into the modules that do the arithmetic and compare both
golden files, so a version-dependent sum fails on every interpreter.
"""

import builtins
import json
import math

import pytest

import test_golden_poa
import test_golden_solver
from taskalloc import delay_modes, poa, simulator, solver


def compensated_sum(iterable, /, start=0):
    """``sum`` as of Python 3.12 where every item is a float; the builtin otherwise."""
    items = list(iterable)
    if any(type(x) is not float for x in items):
        return builtins.sum(items, start)
    total, correction = float(start), 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            correction += (total - t) + x
        else:
            correction += (x - t) + total
        total = t
    if correction and math.isfinite(correction):
        total += correction
    return total


def test_compensated_sum_matches_python_312():
    assert compensated_sum([0.1] * 10) == 1.0
    assert compensated_sum([1e308, 1e308, -1e308]) == math.inf
    assert compensated_sum([], 0.5) == 0.5
    assert compensated_sum(range(4)) == 6


@pytest.mark.parametrize("golden", [test_golden_solver, test_golden_poa], ids=["solver", "poa"])
def test_goldens_hold_under_compensated_sum(golden, monkeypatch):
    for module in (solver, poa, delay_modes, simulator):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    expected = json.loads(golden.GOLDEN.read_text())
    actual = golden._golden_outputs()
    assert sorted(actual) == sorted(expected)
    assert [label for label in expected if actual[label] != expected[label]] == []


def test_simplex_check_holds_under_compensated_sum(monkeypatch):
    # Σp − 1 is 9.999999e-10 added plainly, but 1.0000001e-09 compensated: past SIMPLEX_TOL
    monkeypatch.setattr(simulator, "sum", compensated_sum, raising=False)
    p = (0.1,) * 10 + (9.999999999998e-10,)
    assert simulator.SimulationConfig(lam=1.0, p=p).p == p
