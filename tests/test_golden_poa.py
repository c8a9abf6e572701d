"""Price-of-anarchy golden: the exact bits of the per-load paths, pinned in a file.

``tests/golden_poa.json`` holds, for the scenarios of
``test_golden_solver._cases()``, ``float.hex`` of every ``worst_case_poa``
candidate (location, load, eta) and of ``poa_under_mode`` in each delay
mode (eta, alpha, U*, both active counts) at the float before, at and after
every activation threshold of both kinds of the mode's solving scenario.
A load that raises holds the exception's type and message instead.  A
change to the per-load solve that moves one bit fails here.  Regenerating
the file (``PYTHONPATH=src python tests/test_golden_poa.py``) is a
deliberate change of program output and must be recorded, with its reason,
in CHANGES.md.
"""

import json
import math
from pathlib import Path

from taskalloc import AllocationKind, DelayMode, activation_thresholds, poa_under_mode, worst_case_poa
from taskalloc.delay_modes import transformed_scenarios

from test_golden_solver import _cases

GOLDEN = Path(__file__).resolve().parent / "golden_poa.json"


def _hex(x):
    return None if x is None else float(x).hex()


def _worst(sc):
    try:
        worst = worst_case_poa(sc)
    except Exception as exc:  # the type and message are part of the record
        return {"raises": type(exc).__name__, "message": str(exc)}
    return [[c.location, _hex(c.lam), _hex(c.eta)] for c in worst.candidates]


def _moded(sc, lam, mode):
    try:
        pt = poa_under_mode(sc, lam, mode)
    except Exception as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}
    return [_hex(pt.eta), _hex(pt.alpha), _hex(pt.u_opt), pt.j_opt, pt.j_nep]


def _loads(sc):
    """The float before, at and after each threshold of both kinds, in ascending order."""
    thresholds = {t for kind in AllocationKind for t in activation_thresholds(sc, kind).loads}
    return sorted({x for t in thresholds
                   for x in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))})


def _golden(sc):
    modes = {}
    for mode in DelayMode:
        solve_sc, _ = transformed_scenarios(sc, mode)
        modes[mode.value] = {lam.hex(): _moded(sc, lam, mode) for lam in _loads(solve_sc)}
    return {"worst": _worst(sc), "modes": modes}


def _golden_outputs():
    return {label: _golden(sc) for label, sc in _cases()}


def test_poa_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = _golden_outputs()
    assert sorted(actual) == sorted(expected)
    differing = [f"{label} worst" for label in expected if actual[label]["worst"] != expected[label]["worst"]]
    differing += [
        f"{label} {mode} {lam}"
        for label in expected
        for mode, records in expected[label]["modes"].items()
        for lam, rec in records.items()
        if actual[label]["modes"][mode].get(lam) != rec
    ]
    assert differing == []
    assert actual == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_golden_outputs(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
