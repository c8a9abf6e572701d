"""Command-line front end.

Subcommands: solve (and its alias nep), thresholds, sweep, worst,
simulate, validate.  Every command reads a scenario file: ``main`` loads
it and applies --resolution before any command runs, so a file error is
exit 2 for every command.  Loads are given either absolutely with --load
(jobs/second) or normalized with --rho (fraction of total capacity).
Human-readable output is printed with 6 significant digits; CSV output
keeps full double precision.

Exit codes: 0 success, 2 scenario/argument parse error, 3 infeasible
load, 4 numeric failure, 5 validation mismatch; from the console script
or ``python -m``, 1 with no traceback when stdout is closed early.

numpy is imported at first use: only sweep, simulate and validate load it.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import asdict, replace
from functools import partial

from .delay_modes import DelayMode, poa_under_mode, solve_under_mode, transformed_scenarios
from .errors import DomainError, InfeasibleLoadError, ScenarioParseError, TaskAllocError
from .latency import latency, zero_load_latency
from .poa import SweepSpec, default_grid, poa_points, worst_case_poa
from .scenario_io import ScenarioDocument, load_scenario_file
from .simulator import _VALIDATE_TOLERANCE, SimSettings, SimulationConfig, simulate, validate
from .solver import AllocationKind, Scenario, _split, activation_thresholds, solve_nep, solve_optimal


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _grid_spec(text: str) -> SweepSpec:
    """Parse LO:HI:COUNT (rho range, log-spaced in 1 - rho); ``SweepSpec`` checks the range."""
    try:
        lo, hi, count = text.split(":")
        return SweepSpec(count=int(count), rho_min=float(lo), rho_max=float(hi))
    except (ValueError, DomainError):
        raise argparse.ArgumentTypeError(
            f"expected RHO_LO:RHO_HI:COUNT with 0 < lo < hi < 1, got '{text}'"
        ) from None


def _finite(text: str, sign: str = ">") -> float:
    """A finite flag value ``sign`` 0: > 0 by default, as the file requires of a resolution."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > 0.0 or sign == ">=" and value == 0.0)):
        raise argparse.ArgumentTypeError(f"expected a finite number {sign} 0, got '{text}'")
    return value


def _load_document(args) -> ScenarioDocument:
    doc = load_scenario_file(args.scenario)
    if args.resolution is not None:
        sc = doc.scenario
        config = replace(sc.config, resolution=args.resolution)
        doc = replace(doc, scenario=replace(sc, config=config))
    return doc


def _resolve_load(sc: Scenario, args) -> float:
    if args.load is not None:
        return args.load
    return args.rho * sc.total_mu


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    fh = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            fh.close()


def _save_csv(args, header: list[str], rows: list[list]) -> None:
    """Write the rows to --out, if given, and say so."""
    if args.out:
        _write_csv(args.out, header, rows)
        print(f"wrote {args.out}")


def _print_table(header: list[str], widths: list[int], rows: list[list]) -> None:
    """Right-aligned columns; floats with 6 significant digits."""
    print(" ".join(f"{h:>{w}}" for h, w in zip(header, widths)))
    for row in rows:
        cells = (v if isinstance(v, (int, str)) else _fmt(v) for v in row)
        print(" ".join(f"{c:>{w}}" for c, w in zip(cells, widths)))


def _cmd_solve(doc: ScenarioDocument, args) -> int:
    sc = doc.scenario
    lam = _resolve_load(sc, args)
    kind = AllocationKind(args.kind)
    mode = DelayMode(args.delay_mode)
    moded = solve_under_mode(sc, lam, kind, mode)
    result = moded.result
    _, eval_sc = transformed_scenarios(sc, mode)

    print(f"kind: {kind.value}    delay mode: {mode.value}")
    print(f"load: {_fmt(lam)} jobs/s    rho: {_fmt(lam / sc.total_mu)}")
    print(f"active servers: {result.active_count} of {len(sc.servers)}")
    print(f"multiplier: {_fmt(result.multiplier)} s")
    print(f"solved mean latency: {_fmt(result.mean_latency)} s")
    print(f"evaluated mean latency: {_fmt(moded.evaluated_latency)} s")
    rows = []
    for i, (s, q) in enumerate(zip(sc.servers, _split(result))):
        x = float(q) * lam
        lat = latency(eval_sc.servers[i], x)
        rows.append([i, s.d * 1000.0, s.mu, s.cv, s.model.value, float(q), x, lat])
    header = ["server", "d_ms", "mu", "cv", "model", "p", "rate", "latency_s"]
    _print_table(header, [6, 10, 10, 6, 7, 12, 12, 12], rows)
    _save_csv(args, header, rows)
    return 0


def _cmd_thresholds(doc: ScenarioDocument, args) -> int:
    sc = doc.scenario
    kinds = ([AllocationKind(args.kind)] if args.kind != "both"
             else [AllocationKind.OPTIMAL, AllocationKind.NEP])
    tables = {k: activation_thresholds(sc, k) for k in kinds}
    order = sc.order

    header = ["position", "server", "d_ms", "mu", "zero_load_latency_s"]
    header += [f"threshold_{k.value}" for k in kinds]
    rows = []
    for pos, idx in enumerate(order):
        s = sc.servers[idx]
        row = [pos + 1, idx, s.d * 1000.0, s.mu, zero_load_latency(s)]
        row += [tables[k].loads[pos] for k in kinds]
        rows.append(row)
    _print_table(header, [20] * len(header), rows)
    _save_csv(args, header, rows)
    return 0


def _cmd_sweep(doc: ScenarioDocument, args) -> int:
    sc = doc.scenario
    mode = DelayMode(args.delay_mode)
    spec = args.grid or doc.sweep or SweepSpec()
    grid = spec.grid
    if grid is None:
        grid = default_grid(sc, spec.count, spec.rho_min, spec.rho_max)
    points = (poa_points(sc, grid) if mode is DelayMode.WITH_DELAYS
              else [poa_under_mode(sc, float(lam), mode) for lam in grid])
    rows = [[point.lam, point.rho, point.u_opt, point.alpha, point.eta, point.j_opt, point.j_nep]
            for point in points]
    _write_csv(args.out, ["lam", "rho", "u_opt", "alpha", "eta", "j_opt", "j_nep"], rows)
    if args.out:
        best = max(rows, key=lambda r: r[4])
        print(f"wrote {len(rows)} points to {args.out}; "
              f"max eta {_fmt(best[4])} at lam {_fmt(best[0])} (rho {_fmt(best[1])})")
    return 0


def _cmd_worst(doc: ScenarioDocument, args) -> int:
    sc = doc.scenario
    res = worst_case_poa(sc)
    print(f"{'location':<34} {'lam':>12} {'rho':>10} {'eta':>12}")
    rows = []
    for c in res.candidates:
        lam_s = _fmt(c.lam) if c.lam is not None else "limit"
        rho_s = _fmt(c.lam / sc.total_mu) if c.lam is not None else "1"
        print(f"{c.location:<34} {lam_s:>12} {rho_s:>10} {_fmt(c.eta):>12}")
        rows.append([c.location, c.lam if c.lam is not None else "",
                     c.lam / sc.total_mu if c.lam is not None else 1.0, c.eta])
    print(f"worst case: eta {_fmt(res.max.eta)} at {res.max.location}"
          + (f" (lam {_fmt(res.max.lam)})" if res.max.lam is not None else ""))
    _save_csv(args, ["location", "lam", "rho", "eta"], rows)
    return 0


def _sim_settings(doc: ScenarioDocument, args) -> SimSettings:
    flags = {"horizon_jobs": args.jobs, "seed": args.seed, "replications": args.reps}
    return replace(doc.simulation or SimSettings(),
                   **{name: value for name, value in flags.items() if value is not None})


def _cmd_simulate(doc: ScenarioDocument, args) -> int:
    sc = doc.scenario
    lam = _resolve_load(sc, args)
    kind = AllocationKind(args.kind)
    solver = solve_optimal if kind is AllocationKind.OPTIMAL else solve_nep
    result = solver(sc, lam)
    cfg = SimulationConfig(**asdict(_sim_settings(doc, args)), lam=lam, p=result.p,
                           raw_samples_path=args.raw)
    report = simulate(sc, cfg)

    print(f"kind: {kind.value}    load: {_fmt(lam)} jobs/s    rho: {_fmt(lam / sc.total_mu)}")
    print(f"replications: {report.replications}    jobs/replication: {cfg.horizon_jobs}    "
          f"seed: {cfg.seed}")
    if report.overloaded:
        print("warning: at least one server is offered load at or above its capacity")
    print(f"aggregate mean latency: {_fmt(report.mean_latency)} s "
          f"(95% ci half-width {_fmt(report.latency_ci)})")
    print(f"analytic mean latency:  {_fmt(result.mean_latency)} s")
    header = ["server", "p", "mean_latency_s", "mean_sojourn_s", "utilization",
              "completed", "arrival_rate", "latency_ci_s"]
    rows = [[i, float(result.p[i]), st.mean_latency, st.mean_sojourn, st.utilization,
             st.completed, st.arrival_rate, st.latency_ci]
            for i, st in enumerate(report.per_server)]
    _print_table(header, [15] * len(header), rows)
    rows.append(["all", "", report.mean_latency, report.mean_sojourn, report.utilization,
                 report.completed, "", report.latency_ci])
    _save_csv(args, header, rows)
    return 0


def _cmd_validate(doc: ScenarioDocument, args) -> int:
    sc = doc.scenario
    lam = _resolve_load(sc, args)
    kind = AllocationKind(args.kind)
    record = validate(sc, lam, kind, _sim_settings(doc, args), tolerance=args.tolerance)
    print(f"kind: {kind.value}    load: {_fmt(lam)} jobs/s")
    print(f"analytic latency:  {_fmt(record.analytic_latency)} s")
    print(f"empirical latency: {_fmt(record.empirical_latency)} s "
          f"(95% ci half-width {_fmt(record.latency_ci)})")
    print(f"relative gap: {_fmt(record.relative_gap)}    tolerance: {_fmt(record.tolerance)}")
    print("PASS" if record.passed else "FAIL")
    header = ["kind", "lam", "analytic_latency_s", "empirical_latency_s", "latency_ci_s",
              "relative_gap", "tolerance", "passed"]
    row = [kind.value, lam, record.analytic_latency, record.empirical_latency, record.latency_ci,
           record.relative_gap, record.tolerance, record.passed]
    _save_csv(args, header, [row])
    return 0 if record.passed else 5


def _add_command(subs, name: str, func, help_text: str, load: bool = True):
    """A subcommand with the scenario, --resolution, --out and (if load) load flags."""
    sub = subs.add_parser(name, help=help_text)
    sub.set_defaults(func=func)
    sub.add_argument("scenario", help="path to a scenario file")
    sub.add_argument("--resolution", type=_finite, default=None,
                     help="override the solver's numerical resolution")
    sub.add_argument("--out", default=None, help="write results as CSV to this path")
    if load:
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument("--load", type=float, default=None,
                           help="absolute arrival rate, jobs/second")
        group.add_argument("--rho", type=float, default=None,
                           help="normalized load, fraction of total capacity")
    return sub


def _add_kind(sub: argparse.ArgumentParser, choices=("optimal", "nep"), default="optimal") -> None:
    sub.add_argument("--kind", choices=list(choices), default=default)


def _add_delay_mode(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--delay-mode", choices=[m.value for m in DelayMode],
                     default=DelayMode.WITH_DELAYS.value)


def _add_simulation(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--jobs", type=int, default=None, help="jobs per replication")
    sub.add_argument("--reps", type=int, default=None, help="number of replications")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskalloc",
        description="Optimal and equilibrium task allocation over latency-heterogeneous servers",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    solve = _add_command(subs, "solve", _cmd_solve, "compute one allocation at one load")
    _add_kind(solve)
    _add_delay_mode(solve)

    nep = _add_command(subs, "nep", _cmd_solve, "shorthand for solve --kind nep")
    _add_delay_mode(nep)
    nep.set_defaults(kind="nep")

    thresholds = _add_command(subs, "thresholds", _cmd_thresholds, "per-server activation loads",
                              load=False)
    _add_kind(thresholds, ("optimal", "nep", "both"), "both")

    sweep = _add_command(subs, "sweep", _cmd_sweep, "price of anarchy over a load grid (CSV)",
                         load=False)
    sweep.add_argument("--grid", type=_grid_spec, default=None, metavar="LO:HI:COUNT",
                       help="rho range, log-spaced in 1-rho (default 0.01:0.999:400)")
    _add_delay_mode(sweep)

    _add_command(subs, "worst", _cmd_worst, "worst-case price of anarchy over all loads",
                 load=False)

    sim = _add_command(subs, "simulate", _cmd_simulate,
                       "discrete-event simulation of a solved split")
    _add_kind(sim)
    _add_simulation(sim)
    sim.add_argument("--raw", default=None, help="write per-job samples as CSV to this path")

    val = _add_command(subs, "validate", _cmd_validate, "check solver output against simulation")
    _add_kind(val)
    _add_simulation(val)
    val.add_argument("--tolerance", type=partial(_finite, sign=">="), default=_VALIDATE_TOLERANCE,
                     help="relative gap allowed between analytic and empirical latency")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(_load_document(args), args)
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TaskAllocError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry_point() -> None:
    """``main`` for a process; a closed stdout exits 1, as in the Python docs' note on SIGPIPE."""
    try:
        try:
            code = main()
        finally:
            sys.stdout.flush()  # also when argparse exits, after --help
    except BrokenPipeError:
        # the flush at exit would raise again: send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry_point()
