"""Start-up cost: the CLI commands import scipy only where they need it.

scipy takes about 1 s and 70 MB to import, most of a short CLI run.
The oracle's polish (``oracle._refine``) imports it at first use.  The
simulator's confidence interval (``simulator._mean_ci``) reads its
Student-t quantile from a stored table up to 30 degrees of freedom, so
``simulate`` and ``validate`` load scipy only with more than 31
replications.  The check runs in a fresh interpreter, because the test
process itself has long since imported scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = r"""
import io, json, sys
from contextlib import redirect_stdout

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

from taskalloc import cli
seen = {"import": scipy_modules()}

scenario = sys.argv[1]
codes = {}
for argv in (["solve", scenario, "--rho", "0.8"],
             ["nep", scenario, "--rho", "0.8"],
             ["thresholds", scenario],
             ["worst", scenario],
             ["sweep", scenario]):
    with redirect_stdout(io.StringIO()):
        codes[argv[0]] = cli.main(argv)
seen["light"] = scipy_modules()

with redirect_stdout(io.StringIO()):
    codes["simulate"] = cli.main(["simulate", scenario, "--rho", "0.5", "--jobs", "2000",
                                  "--reps", "2"])
seen["simulate"] = scipy_modules()

with redirect_stdout(io.StringIO()):
    codes["validate"] = cli.main(["validate", scenario, "--rho", "0.5"])
seen["validate"] = scipy_modules()

with redirect_stdout(io.StringIO()):
    codes["simulate_31"] = cli.main(["simulate", scenario, "--rho", "0.5", "--jobs", "2000",
                                     "--reps", "31"])
seen["simulate_31"] = scipy_modules()

with redirect_stdout(io.StringIO()):
    codes["simulate_33"] = cli.main(["simulate", scenario, "--rho", "0.5", "--jobs", "2000",
                                     "--reps", "33"])
seen["simulate_33"] = "scipy.stats" in sys.modules

from taskalloc import brute_force_optimal, load_scenario_file
sc = load_scenario_file(scenario).scenario
seen["oracle_split"] = [float(x) for x in brute_force_optimal(sc, 0.5 * sc.total_mu)]
seen["codes"] = codes
print(json.dumps(seen))
"""


def test_light_commands_do_not_import_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "scenarios" / "scenario1.json")],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["codes"] == {name: 0 for name in
                             ("solve", "nep", "thresholds", "worst", "sweep", "simulate",
                              "validate", "simulate_31", "simulate_33")}
    assert seen["light"] == []
    assert seen["simulate"] == []
    assert seen["validate"] == []
    assert seen["simulate_31"] == []
    assert seen["simulate_33"] is True
    split = seen["oracle_split"]
    assert len(split) == 3
    assert abs(sum(split) - 1.0) < 1e-9
    assert min(split) >= 0.0
