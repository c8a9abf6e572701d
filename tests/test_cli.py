"""Command-line interface: commands, flags, CSV schemas, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from taskalloc import SolverConfig, cli, default_grid, load_scenario_file, poa_at, validate
from taskalloc.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TOY = {
    "format": "taskalloc-scenario/1",
    "servers": [{"d_ms": 0, "mu": 2}, {"d_ms": 0, "mu": 1}],
}


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(TOY))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_solve_optimal(toy_file, tmp_path, capsys):
    out = tmp_path / "solve.csv"
    assert main(["solve", toy_file, "--load", "1", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "kind: optimal" in text
    assert "active servers: 2 of 2" in text
    assert "solved mean latency: 0.914214 s" in text

    rows = _read_csv(out)
    assert rows[0] == ["server", "d_ms", "mu", "cv", "model", "p", "rate", "latency_s"]
    p = [float(r[5]) for r in rows[1:]]
    assert p[0] == pytest.approx(2.0 * math.sqrt(2.0) - 2.0, abs=1e-9)
    assert p[1] == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-9)


def test_nep_alias_matches_solve_kind_nep(toy_file, tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["nep", toy_file, "--load", "1.5", "--out", str(a)]) == 0
    assert main(["solve", toy_file, "--load", "1.5", "--kind", "nep", "--out", str(b)]) == 0
    assert _read_csv(a) == _read_csv(b)
    rows = _read_csv(a)
    # equalized latencies at the equilibrium
    lat = [float(r[7]) for r in rows[1:]]
    assert lat[0] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert lat[1] == pytest.approx(4.0 / 3.0, rel=1e-12)
    assert float(rows[1][5]) == pytest.approx(5.0 / 6.0, rel=1e-9)


def test_rho_equals_absolute_load(toy_file, capsys):
    assert main(["solve", toy_file, "--load", "1"]) == 0
    by_load = capsys.readouterr().out
    assert main(["solve", toy_file, "--rho", str(1.0 / 3.0)]) == 0
    by_rho = capsys.readouterr().out
    assert by_load.splitlines()[2:] == by_rho.splitlines()[2:]  # same table


def test_load_and_rho_are_exclusive(toy_file):
    with pytest.raises(SystemExit) as err:
        main(["solve", toy_file, "--load", "1", "--rho", "0.3"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["solve", toy_file])
    assert err.value.code == 2


def test_thresholds_table(toy_file, tmp_path, capsys):
    out = tmp_path / "thr.csv"
    assert main(["thresholds", toy_file, "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["position", "server", "d_ms", "mu", "zero_load_latency_s",
                       "threshold_optimal", "threshold_nep"]
    assert float(rows[2][5]) == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)
    assert float(rows[2][6]) == pytest.approx(1.0, abs=1e-12)

    assert main(["thresholds", toy_file, "--kind", "optimal", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0][-1] == "threshold_optimal" and "threshold_nep" not in rows[0]


def test_sweep_csv(toy_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", toy_file, "--grid", "0.1:0.9:7", "--out", str(out)]) == 0
    assert "wrote 7 points" in capsys.readouterr().out
    rows = _read_csv(out)
    assert rows[0] == ["lam", "rho", "u_opt", "alpha", "eta", "j_opt", "j_nep"]
    assert len(rows) == 8
    rhos = [float(r[1]) for r in rows[1:]]
    assert rhos[0] == pytest.approx(0.1, rel=1e-9)
    assert rhos[-1] == pytest.approx(0.9, rel=1e-9)
    assert all(b > a for a, b in zip(rhos, rhos[1:]))
    assert all(float(r[4]) >= 1.0 - 1e-9 for r in rows[1:])


def test_sweep_stdout_uses_file_grid(tmp_path, capsys):
    doc = dict(TOY)
    doc["sweep"] = {"grid": [0.5, 1.0, 1.5]}
    path = tmp_path / "with_sweep.json"
    path.write_text(json.dumps(doc))
    assert main(["sweep", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lam,rho,u_opt,alpha,eta,j_opt,j_nep"
    lams = [float(line.split(",")[0]) for line in lines[1:]]
    assert lams == [0.5, 1.0, 1.5]


def test_sweep_default_grid_is_poa_at_bit_for_bit(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    header = ["lam", "rho", "u_opt", "alpha", "eta", "j_opt", "j_nep"]
    for path in sorted(SCENARIOS.glob("*.json")):
        sc = load_scenario_file(str(path)).scenario
        points = [poa_at(sc, float(lam)) for lam in default_grid(sc)]
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(header)
        writer.writerows([p.lam, p.rho, p.u_opt, p.alpha, p.eta, p.j_opt, p.j_nep] for p in points)
        assert main(["sweep", str(path), "--out", str(out)]) == 0
        assert out.read_bytes() == expected.getvalue().encode(), path.name
    capsys.readouterr()


def test_worst_output(toy_file, capsys):
    assert main(["worst", toy_file]) == 0
    text = capsys.readouterr().out
    assert "worst case: eta 1.09384 at nep activation of server 2 (lam 1)" in text
    assert "full-load limit" in text and "1.02944" in text


def test_simulate_csv_and_raw(toy_file, tmp_path, capsys):
    out, raw = tmp_path / "sim.csv", tmp_path / "raw.csv"
    rc = main(["simulate", toy_file, "--load", "1", "--kind", "nep", "--jobs", "5000",
               "--reps", "2", "--seed", "3", "--out", str(out), "--raw", str(raw)])
    assert rc == 0
    assert "aggregate mean latency" in capsys.readouterr().out
    rows = _read_csv(out)
    assert rows[0] == ["server", "p", "mean_latency_s", "mean_sojourn_s", "utilization",
                       "completed", "arrival_rate", "latency_ci_s"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "all"]
    assert (tmp_path / "raw.rep0.csv").exists() and (tmp_path / "raw.rep1.csv").exists()


def test_validate_pass_and_fail(toy_file, tmp_path, capsys, monkeypatch):
    args = ["validate", toy_file, "--load", "1", "--kind", "nep",
            "--jobs", "60000", "--reps", "3", "--seed", "1"]
    assert main(args) == 0
    text = capsys.readouterr().out
    assert "analytic latency:  1 s" in text and "PASS" in text

    records = []

    def spy(*a, **k):
        records.append(validate(*a, **k))
        return records[-1]

    monkeypatch.setattr(cli, "validate", spy)
    out = tmp_path / "validate.csv"
    assert main(args + ["--tolerance", "1e-9", "--out", str(out)]) == 5
    assert capsys.readouterr().out.endswith(f"FAIL\nwrote {out}\n")
    rec = records[0]
    header, row = _read_csv(out)
    assert header == ["kind", "lam", "analytic_latency_s", "empirical_latency_s", "latency_ci_s",
                      "relative_gap", "tolerance", "passed"]
    assert row[0] == "nep" and row[7] == "False"
    assert [float(v) for v in row[1:7]] == [rec.lam, rec.analytic_latency, rec.empirical_latency,
                                           rec.latency_ci, rec.relative_gap, rec.tolerance]


def test_exit_codes(toy_file, tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json"), "--load", "1"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad), "--load", "1"]) == 2
    assert main(["solve", toy_file, "--load", "5"]) == 3
    assert main(["solve", toy_file, "--load", "-1"]) == 3
    assert main(["simulate", toy_file, "--load", "1", "--jobs", "-5"]) == 4
    err = capsys.readouterr().err
    assert "horizon" in err
    assert main(["simulate", toy_file, "--load", "1", "--seed", "-1"]) == 4
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert main(["validate", toy_file, "--load", "1", "--jobs", "-5", "--seed", "-1"]) == 4
    assert "horizon must be > 0 jobs, got -5" in capsys.readouterr().err
    negative_seed = tmp_path / "negative_seed.json"
    negative_seed.write_text(json.dumps(dict(TOY, simulation={"seed": -1})))
    assert main(["solve", str(negative_seed), "--load", "1"]) == 0
    assert main(["simulate", str(negative_seed), "--load", "1"]) == 4
    assert capsys.readouterr().err.endswith("error: seed must be >= 0, got -1\n")

    # non-finite numbers in the file are parse errors, not NaN answers
    for servers, solver in [
        ([{"d_ms": 0, "mu": 2}, {"d_ms": 0, "mu": math.inf}], None),
        ([{"d_ms": 0, "mu": 2}, {"d_ms": 0, "mu": 1, "cv": math.inf, "model": "mg1"}], None),
        (TOY["servers"], {"resolution": math.inf}),
    ]:
        doc = dict(TOY, servers=servers, **({"solver": solver} if solver else {}))
        nonfinite = tmp_path / "nonfinite.json"
        nonfinite.write_text(json.dumps(doc))
        assert main(["solve", str(nonfinite), "--load", "5"]) == 2
        assert "expected a finite number" in capsys.readouterr().err

    # a finite cv whose queueing factor (1 + cv^2)/2 overflows, once printed as eta nan
    huge_cv = tmp_path / "huge_cv.json"
    huge_cv.write_text(json.dumps(dict(TOY, servers=[{"d_ms": 10, "mu": 5, "cv": 1e200},
                                                     {"d_ms": 20, "mu": 8}])))
    for argv in (["worst"], ["solve", "--rho", "0.5"]):
        assert main([argv[0], str(huge_cv), *argv[1:]]) == 2
        assert capsys.readouterr().err == (
            "error: servers[0]: d, mu and cv^2 must be finite, got 0.01, 5.0, 1e+200\n")

    for grid in ("nonsense", "0.9:0.1:5", "0.1:0.9:1", "nan:0.5:3", "0.1:0.9:2.5", "0.1:0.9"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", toy_file, "--grid", grid])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --grid: expected RHO_LO:RHO_HI:COUNT with 0 < lo < hi < 1, got '{grid}'\n")


@pytest.mark.parametrize("command", [
    ["solve", "--load", "1"], ["nep", "--load", "1"], ["thresholds"], ["sweep"], ["worst"],
    ["simulate", "--load", "1"], ["validate", "--load", "1"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "not_json"])
def test_file_errors_exit_2_for_every_command(command, content, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    if content is None:
        expected = f"error: {path}: [Errno 2] No such file or directory: '{path}'\n"
    else:
        path.write_text(content)
        expected = f"error: {path}:1:2: Expecting property name enclosed in double quotes\n"
    assert main([command[0], str(path), *command[1:]]) == 2
    assert capsys.readouterr() == ("", expected)


def test_delay_mode_flag(capsys):
    sc1 = str(SCENARIOS / "scenario1.json")
    assert main(["solve", sc1, "--rho", "0.5", "--delay-mode", "ignoring_delays"]) == 0
    text = capsys.readouterr().out
    assert "delay mode: ignoring_delays" in text
    solved = float(text.split("solved mean latency: ")[1].split(" s")[0])
    evaluated = float(text.split("evaluated mean latency: ")[1].split(" s")[0])
    assert evaluated > solved


def test_resolution_override(toy_file, capsys):
    assert main(["solve", toy_file, "--load", "1", "--resolution", "1e-6"]) == 0
    coarse = capsys.readouterr().out
    assert "active servers: 2 of 2" in coarse

    # rejected as in the scenario file; nan would never end the multiplier bisection
    for bad in ("nan", "inf", "0", "-1", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", toy_file, "--load", "1", "--resolution", bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"--resolution: expected a finite number > 0, got '{bad}'\n")


def test_tolerance_must_be_finite_and_non_negative(toy_file, capsys):
    args = ["validate", toy_file, "--load", "1", "--jobs", "2000", "--reps", "2"]
    for bad in ("nan", "-1", "inf", "abc"):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--tolerance", bad])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"--tolerance: expected a finite number >= 0, got '{bad}'\n")
    # a zero tolerance is a valid, if strict, request
    assert main(args + ["--tolerance", "0"]) == 5
    assert capsys.readouterr().out.endswith("FAIL\n")


@pytest.mark.parametrize("load", ["-1", "0", "nan"])
def test_nonpositive_load_exits_3_for_every_command(load, toy_file, capsys):
    results = []
    for command in ("solve", "nep", "simulate", "validate"):
        code = main([command, toy_file, "--load", load])
        results.append((code, *capsys.readouterr()))
    assert results == [(3, "", f"error: arrival rate must be > 0, got {float(load)}\n")] * 4
    # the simulation flags are checked before the load
    assert main(["validate", toy_file, "--load", load, "--jobs", "-5"]) == 4
    assert capsys.readouterr() == ("", "error: horizon must be > 0 jobs, got -5\n")


def _write(tmp_path, name: str, **sections) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(dict(TOY, **sections)))
    return str(path)


def test_kept_window_of_fewer_than_two_arrivals(tmp_path, capsys):
    """From the file, the parser's located error (exit 2); from --jobs, exit 4 as for --jobs -5."""
    message = "a warmup of 0.5 over 2 jobs keeps a window of fewer than two arrivals"
    short = _write(tmp_path, "short.json", simulation={"horizon_jobs": 2, "warmup": 0.5})
    assert main(["simulate", short, "--load", "1"]) == 2
    assert capsys.readouterr().err == f"error: simulation: {message}\n"
    half = _write(tmp_path, "half.json", simulation={"warmup": 0.5})
    for command in ("simulate", "validate"):
        assert main([command, half, "--load", "1", "--jobs", "2"]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"


def _run(capsys, argv, out):
    """Exit code, stdout and CSV bytes of one command, with the CSV path masked."""
    code = main(argv + ["--out", str(out)])
    return code, capsys.readouterr().out.replace(str(out), "{out}"), out.read_bytes()


def test_simulation_flags_override_file_field_by_field(tmp_path, capsys):
    sim = {"horizon_jobs": 1000, "seed": 3, "replications": 2, "warmup": 0.1}
    path = _write(tmp_path, "sim.json", simulation=sim)
    out = tmp_path / "sim.csv"

    def run(path, *flags):
        """Stdout and CSV of one simulate run; also the completed-job count of its 'all' row."""
        code, text, csv_bytes = _run(capsys, ["simulate", path, "--load", "1", *flags], out)
        assert code == 0
        return text, csv_bytes, csv_bytes.decode().splitlines()[-1].split(",")[5]

    text, _, completed = run(path)
    assert "replications: 2    jobs/replication: 1000    seed: 3\n" in text
    assert completed == str(2 * 900)
    text, _, completed = run(path, "--reps", "1")
    assert "replications: 1    jobs/replication: 1000    seed: 3\n" in text
    assert completed == "900"

    # each flag replaces its own field only: the same bytes as a file with that field changed
    for flag, field, value in [("--reps", "replications", 1), ("--jobs", "horizon_jobs", 500),
                               ("--seed", "seed", 4)]:
        edited = _write(tmp_path, f"{field}.json", simulation=dict(sim, **{field: value}))
        assert run(path, flag, str(value)) == run(edited), flag

    # fields the file leaves out keep their defaults: 5 replications, seed 0, warmup 0.2
    text, _, completed = run(_write(tmp_path, "partial.json", simulation={"horizon_jobs": 1000}))
    assert "replications: 5    jobs/replication: 1000    seed: 0\n" in text
    assert completed == str(5 * 800)


def test_grid_flag_replaces_file_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    explicit = _write(tmp_path, "grid.json", sweep={"grid": [0.5, 1.0, 1.5]})
    recipe = _write(tmp_path, "recipe.json", sweep={"count": 7, "rho_min": 0.1, "rho_max": 0.9})
    by_flag = _run(capsys, ["sweep", explicit, "--grid", "0.1:0.9:7"], out)
    assert by_flag[1] == "wrote 7 points to {out}; max eta 1.08232 at lam 1.12792 (rho 0.375975)\n"
    assert by_flag == _run(capsys, ["sweep", recipe], out)
    assert by_flag == _run(capsys, ["sweep", recipe, "--grid", "0.1:0.9:7"], out)


def test_resolution_flag_keeps_file_eps_sat(tmp_path, capsys, monkeypatch):
    configs = []

    def spy(sc, *args):
        configs.append(sc.config)
        return solve_under_mode(sc, *args)

    solve_under_mode = cli.solve_under_mode
    monkeypatch.setattr(cli, "solve_under_mode", spy)
    path = _write(tmp_path, "eps.json", solver={"eps_sat": 0.1})
    assert main(["solve", path, "--load", "1"]) == 0
    assert main(["solve", path, "--load", "1", "--resolution", "1e-6"]) == 0
    assert configs == [SolverConfig(eps_sat=0.1), SolverConfig(resolution=1e-6, eps_sat=0.1)]
    # the file's cap, (1 - 0.1) * 3, still rejects a load the default cap admits
    assert main(["solve", path, "--load", "2.8", "--resolution", "1e-6"]) == 3
    assert "above the admissible cap" in capsys.readouterr().err


GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
GOLDEN_COMMANDS = [
    ["solve", "{scenario}", "--rho", "0.8", "--out", "{out}"],
    ["nep", "{scenario}", "--rho", "0.97", "--delay-mode", "ignoring_delays", "--out", "{out}"],
    ["thresholds", "{scenario}", "--out", "{out}"],
    ["worst", "{scenario}", "--out", "{out}"],
    ["sweep", "{scenario}", "--grid", "0.05:0.95:12", "--out", "{out}"],
    ["sweep", "{scenario}", "--grid", "0.05:0.95:12", "--delay-mode", "ignoring_delays",
     "--out", "{out}"],
    ["simulate", "{scenario}", "--rho", "0.5", "--jobs", "4000", "--reps", "2", "--seed", "3",
     "--out", "{out}"],
    ["validate", "{scenario}", "--rho", "0.5", "--jobs", "4000", "--reps", "2", "--seed", "3",
     "--tolerance", "1"],
]


def _golden_key(argv_template, scenario: Path) -> str:
    return " ".join([scenario.name if a == "{scenario}" else a for a in argv_template])


def _golden_record(code, stdout: str, stderr: str, scenario: Path, out: Path) -> dict:
    """One golden entry: the run's bytes with the scenario and CSV paths as placeholders."""

    def normalize(text):
        return text.replace(str(out), "{out}").replace(str(scenario), "{scenario}")

    return {
        "exit": code,
        "stdout": normalize(stdout),
        "stderr": normalize(stderr),
        "csv": out.read_bytes().decode() if out.exists() else None,
    }


def _golden_run(argv_template, scenario: Path, out: Path) -> dict:
    """Exit code, stdout, stderr and CSV text of one in-process CLI run."""
    argv = [a.format(scenario=scenario, out=out) for a in argv_template]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return _golden_record(code, stdout.getvalue(), stderr.getvalue(), scenario, out)


def _golden_outputs(tmp_dir: Path) -> dict:
    outputs = {}
    out = tmp_dir / "out.csv"
    for scenario in sorted(SCENARIOS.glob("*.json")):
        for template in GOLDEN_COMMANDS:
            out.unlink(missing_ok=True)
            outputs[_golden_key(template, scenario)] = _golden_run(template, scenario, out)
    return outputs


def test_golden_output_on_bundled_scenarios(tmp_path):
    """Every byte the CLI prints or writes on the bundled scenarios is pinned.

    The golden file holds exit code, stdout, stderr and CSV text of each
    command in GOLDEN_COMMANDS on each bundled scenario, with the
    scenario and CSV paths replaced by placeholders.  A refactor must
    leave all of it unchanged.  Regenerating the file
    (``PYTHONPATH=src python tests/test_cli.py``) is a deliberate change
    of program output and must be recorded, with its reason, in
    CHANGES.md.
    """
    expected = json.loads(GOLDEN.read_text())
    actual = _golden_outputs(tmp_path)
    assert sorted(actual) == sorted(expected)
    differing = [
        f"{key}: {field}"
        for key in expected
        for field in expected[key]
        if actual[key][field] != expected[key][field]
    ]
    assert differing == []


def test_golden_output_in_fresh_processes(tmp_path):
    """The golden bytes hold for ``python -m taskalloc.cli`` in a new interpreter.

    The in-process golden test shares one interpreter with the whole
    suite, so it cannot see what only a fresh process does: which
    modules a command imports, and what importing them changes (scipy,
    for one, adds two ``warnings`` filters).  Each command of
    GOLDEN_COMMANDS on scenario1 runs as its own process here.
    """
    expected = json.loads(GOLDEN.read_text())
    scenario = SCENARIOS / "scenario1.json"
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=str(SCENARIOS.parent / "src"))
    differing = []
    for template in GOLDEN_COMMANDS:
        out.unlink(missing_ok=True)
        argv = [a.format(scenario=scenario, out=out) for a in template]
        proc = subprocess.run([sys.executable, "-m", "taskalloc.cli", *argv],
                              capture_output=True, env=env)
        actual = _golden_record(proc.returncode, proc.stdout.decode(), proc.stderr.decode(),
                                scenario, out)
        key = _golden_key(template, scenario)
        differing += [f"{key}: {field}" for field in expected[key]
                      if actual[field] != expected[key][field]]
    assert differing == []


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["worst", "sweep"])
def test_closed_stdout_exits_1_without_traceback(command, buffered):
    """A reader that is gone (``| head``, say) ends the command with exit 1 and a quiet stderr.

    Buffered, ``worst`` fits in stdout's buffer, so only the final flush
    meets the closed pipe, while the 400 rows of a default ``sweep`` meet
    it mid-write; unbuffered, both meet it at their first write.
    """
    proc = _run_into_closed_stdout([command, str(SCENARIOS / "scenario1.json")], buffered)
    assert proc.returncode == 1
    assert proc.stderr == ""  # in particular, no traceback


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]], ids=["help", "sweep-help"])
def test_closed_stdout_on_help_is_quiet(argv, buffered):
    """``--help`` into a closed stdout leaves stderr empty.

    Buffered, the help text waits in stdout's buffer until argparse exits,
    and the flush around ``main`` meets the closed pipe: exit 1.  Unbuffered,
    argparse's own write fails and argparse drops the error, so nothing is
    left to flush and ``--help`` exits 0 as usual.
    """
    proc = _run_into_closed_stdout(argv, buffered)
    assert proc.returncode == (1 if buffered else 0)
    assert proc.stderr == ""


def _run_into_closed_stdout(argv, buffered: bool) -> subprocess.CompletedProcess:
    """``python -m taskalloc.cli argv`` with stdout on a pipe whose read end is already closed."""
    env = dict(os.environ, PYTHONPATH=str(SCENARIOS.parent / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "taskalloc.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(_golden_outputs(Path(tmp)), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
