"""Start-up cost: the CLI commands import numpy and scipy only where they need them.

numpy takes about 100 ms to import, most of a light command's wall time.
The package imports it at first use, in the functions that build arrays,
so ``import taskalloc`` and the commands ``solve`` (and ``nep``),
``thresholds`` and ``worst`` load no numpy module; ``sweep``, ``simulate``
and ``validate`` load it when they first need it.  The light commands run
on scenario1 and on a nine-server file, whose priced splits are long
enough for numpy's pairwise sum to differ from an in-order one.

scipy takes about 1 s and 70 MB to import, most of a short CLI run.
The oracle's polish (``oracle._refine``) imports it at first use, and
neither ``import taskalloc`` nor any command loads the oracle.  The
simulator's confidence interval (``simulator._mean_ci``) reads its
Student-t quantile from a stored table up to 30 degrees of freedom, so
``simulate`` and ``validate`` load scipy only with more than 31
replications.  The checks run in a fresh interpreter, because the test
process itself has long since imported both.
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

def modules(name):
    return sorted(m for m in sys.modules if m == name or m.startswith(name + "."))

oracle_at = []
def check_oracle(point):
    if "taskalloc.oracle" in sys.modules:
        oracle_at.append(point)

import taskalloc
check_oracle("import taskalloc")
seen = {"numpy_import": modules("numpy")}
from taskalloc import cli
check_oracle("import cli")
seen["import"] = modules("scipy")
seen["numpy_import_cli"] = modules("numpy")

codes = {}
for file in sys.argv[1:]:  # the light commands run on every file; the largest exit code is kept
    light = {f"solve {mode}": ["solve", file, "--rho", "0.8", "--delay-mode", mode]
             for mode in ("with_delays", "ignoring_delays", "without_delays", "uniform_delays")}
    light["nep ignoring_delays"] = ["nep", file, "--rho", "0.8", "--delay-mode", "ignoring_delays"]
    light["thresholds both"] = ["thresholds", file, "--kind", "both"]
    light["worst"] = ["worst", file]
    for name, argv in light.items():
        with redirect_stdout(io.StringIO()):
            codes[name] = max(codes.get(name, 0), cli.main(argv))
        check_oracle(name)
scenario = sys.argv[1]
seen["numpy_light"] = modules("numpy")

with redirect_stdout(io.StringIO()):
    codes["sweep"] = cli.main(["sweep", scenario])
check_oracle("sweep")
seen["light"] = modules("scipy")

with redirect_stdout(io.StringIO()):
    codes["simulate"] = cli.main(["simulate", scenario, "--rho", "0.5", "--jobs", "2000",
                                  "--reps", "2"])
check_oracle("simulate")
seen["simulate"] = modules("scipy")

with redirect_stdout(io.StringIO()):
    codes["validate"] = cli.main(["validate", scenario, "--rho", "0.5"])
check_oracle("validate")
seen["validate"] = modules("scipy")

with redirect_stdout(io.StringIO()):
    codes["simulate_31"] = cli.main(["simulate", scenario, "--rho", "0.5", "--jobs", "2000",
                                     "--reps", "31"])
check_oracle("simulate_31")
seen["simulate_31"] = modules("scipy")

with redirect_stdout(io.StringIO()):
    codes["simulate_33"] = cli.main(["simulate", scenario, "--rho", "0.5", "--jobs", "2000",
                                     "--reps", "33"])
check_oracle("simulate_33")
seen["simulate_33"] = "scipy.stats" in sys.modules

seen["oracle_at"] = oracle_at
from taskalloc import load_scenario_file
from taskalloc.oracle import brute_force_optimal
sc = load_scenario_file(scenario).scenario
seen["oracle_split"] = [float(x) for x in brute_force_optimal(sc, 0.5 * sc.total_mu)]
seen["codes"] = codes
print(json.dumps(seen))
"""


# nine servers: the simplex check of a priced split sums more than eight entries
NINE_SERVERS = {"format": "taskalloc-scenario/1",
                "servers": [{"d_ms": 5 + 7 * k, "mu": 4 + 3 * k, "cv": (0.0, 1.0, 2.5)[k % 3]}
                            for k in range(9)]}


def test_light_commands_do_not_import_scipy(tmp_path):
    nine = tmp_path / "nine.json"
    nine.write_text(json.dumps(NINE_SERVERS))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "scenarios" / "scenario1.json"), str(nine)],
        capture_output=True, text=True, env=env, cwd=ROOT, check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["oracle_at"] == []
    assert seen["numpy_import"] == []
    assert seen["numpy_import_cli"] == []
    assert seen["numpy_light"] == []
    assert seen["import"] == []
    assert seen["codes"] == {name: 0 for name in
                             ("solve with_delays", "solve ignoring_delays", "solve without_delays",
                              "solve uniform_delays", "nep ignoring_delays", "thresholds both",
                              "worst", "sweep", "simulate", "validate", "simulate_31",
                              "simulate_33")}
    assert seen["light"] == []
    assert seen["simulate"] == []
    assert seen["validate"] == []
    assert seen["simulate_31"] == []
    assert seen["simulate_33"] is True
    split = seen["oracle_split"]
    assert len(split) == 3
    assert abs(sum(split) - 1.0) < 1e-9
    assert min(split) >= 0.0
