"""Fixed, seed-independent reference measurements for the traced run.

* Micro-benchmarks of the curve functions and of the simulator, on the
  bundled MM1/MD1/MG1 servers.
* The count pass: a fixed set of operations on the bundled scenarios, run
  traced.  Every *count* metric comes from it, so counts repeat exactly
  across runs, seeds and workloads.  Its spans also stand in for the
  layers a workload's own operations do not reach.
* The CLI commands on bundled scenario1, fresh and in-process, for the
  workloads other than cli_cold.
"""

from __future__ import annotations

import os
import statistics
import time

import taskalloc as ta
import taskalloc.delay_modes as DM
import taskalloc.poa as P
import taskalloc.scenario_io as IO
import taskalloc.simulator as SIM
import taskalloc.solver as S
from taskalloc.latency import invert_latency, invert_marginal, latency, marginal_cost

import checks
from spans import Summary, Tracer
from workloads import BUNDLED, CMDS, IGNORING, NEP, CliCold, Op, power_server, sim_config

clock = time.perf_counter


def per_call(fn, args, calls: int, repeats: int = 5) -> float:
    """Median over repeats of the mean seconds per call in a tight loop."""
    samples = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            fn(*args)
        samples.append((clock() - t0) / calls)
    return statistics.median(samples)


def scenario(ctx, name: str) -> ta.Scenario:
    return IO.load_scenario_file(ctx.bundled_path(name)).scenario


def latency_micro(ctx) -> dict:
    servers = [scenario(ctx, b).servers[0] for b in ("scenario1", "scenario3_cv0", "scenario3_cv3")]
    out = {}
    # each function at half load; the inverses at the values the forward curves give there
    cases = {
        "latency": (latency, lambda s, x: x),
        "marginal_cost": (marginal_cost, lambda s, x: x),
        "invert_latency": (invert_latency, latency),
        "invert_marginal": (invert_marginal, marginal_cost),
    }
    for name, (fn, arg) in cases.items():
        ns = [per_call(fn, (s, arg(s, 0.5 * s.mu)), 20_000) * 1e9 for s in servers]
        out[f"latency.{name}.ns"] = statistics.fmean(ns)
    g = power_server(0.04, 15.0)
    out["latency.generic_invert.us"] = per_call(invert_latency, (g, latency(g, 7.5)), 200) * 1e6
    return out


def load_ms(ctx) -> float:
    paths = [ctx.bundled_path(b) for b in BUNDLED]
    return statistics.median(per_call(IO.load_scenario_file, (p,), 20, 3) for p in paths) * 1e3


def simulator_micro(ctx) -> dict:
    out = {}
    for label, name in (("exp", "scenario1"), ("det", "scenario3_cv0"), ("gamma", "scenario3_cv3")):
        sc = scenario(ctx, name)
        lam = 0.5 * sc.total_mu
        cfg = sim_config(lam, S.solve_optimal(sc, lam).p, 1, 200_000, 1)
        out[f"simulator.ns_per_job.{label}"] = per_call(SIM.simulate, (sc, cfg), 1, 3) * 1e9 / 200_000
    sc = scenario(ctx, "scenario1")
    lam = 0.5 * sc.total_mu
    raw = sim_config(lam, S.solve_optimal(sc, lam).p, 1, 20_000, 1,
                     os.path.join(ctx.tmp, "probe_raw.csv"))
    out["simulator.raw_ns_per_job"] = per_call(SIM.simulate, (sc, raw), 1, 3) * 1e9 / 20_000
    return out


def count_ops(ctx) -> tuple[list[Op], list]:
    """The count pass's operations; worst results are collected for their candidate count."""
    ops, worst = [], []
    for name in BUNDLED:
        sc = scenario(ctx, name)
        lam = 0.5 * sc.total_mu
        n = len(sc.servers)
        ops += [
            Op("solve_optimal", lambda sc=sc, lam=lam: S.solve_optimal(sc, lam),
               lambda res, sc=sc, lam=lam: checks.result(sc, lam, res)),
            Op("solve_nep", lambda sc=sc, lam=lam: S.solve_nep(sc, lam),
               lambda res, sc=sc, lam=lam: checks.result(sc, lam, res)),
            Op("solve_under_mode", lambda sc=sc, lam=lam: DM.solve_under_mode(sc, lam, NEP, IGNORING),
               lambda m, sc=sc, lam=lam: checks.result(DM.transformed_scenarios(sc, IGNORING)[0],
                                                       lam, m.result)),
            Op("worst", lambda sc=sc: P.worst_case_poa(sc),
               lambda res, n=n: (checks.worst(res, n), worst.append(res))),
        ]
    sc = scenario(ctx, "scenario1")
    grid = P.default_grid(sc)
    lam = 0.5 * sc.total_mu
    p = S.solve_optimal(sc, lam).p
    vcfg = sim_config(lam, p, 3, 20_000, 2)
    jobs = vcfg.horizon_jobs * vcfg.replications
    ops += [
        Op("sweep", lambda: P.poa_sweep(sc, grid), lambda c: checks.sweep(c.points, grid, 3)),
        Op("simulate", lambda: SIM.simulate(sc, vcfg),
           lambda rep: checks.simulation(rep, vcfg, 1.0, float("inf")), work=jobs),
        Op("validate", lambda: SIM.validate(sc, lam, NEP, vcfg, tolerance=0.15), checks.validation,
           work=jobs),
    ]
    return ops, worst


def counts(summary: Summary, ops: list[Op], worst: list) -> dict:
    solves = summary.index("solver.solve_optimal", "solver.solve_nep")
    sweeps = summary.index("poa.sweep")
    return {
        "solver.solve.calls": len(solves),
        "solver.thresholds.per_solve":
            len(summary.child_of(("solver.thresholds",), ("solver.solve_optimal", "solver.solve_nep")))
            / len(solves),
        "latency.inversions_per_solve": sum(summary.sub_leaf_n[i] for i in solves) / len(solves),
        "poa.sweep.solves_per_point":
            len(summary.under(("solver.solve_optimal", "solver.solve_nep"), "poa.sweep"))
            / (400 * len(sweeps)),
        "poa.worst.candidates": sum(len(w.candidates) for w in worst) / len(worst),
        "poa.worst.solves_per_call":
            len(summary.under(("solver.solve_optimal", "solver.solve_nep"), "poa.worst"))
            / summary.count("poa.worst"),
        "simulator.jobs": sum(op.work for op in ops if op.kind in ("simulate", "validate")),
    }


def cli_commands(ctx, execute, tally) -> dict:
    """Each command once, fresh and in-process, on scenario1 at rho 0.5."""
    cli = CliCold(0, ctx)
    path = ctx.bundled_path("scenario1")
    out = {}
    for cmd in CMDS:
        op = cli.command(cmd, path, 0.5, NEP, 1, False)
        out[f"cli.{cmd}.wall_s"] = execute(op, tally, op.run)
        out[f"cli.{cmd}.inproc_s"] = execute(op, tally, op.inproc)
    return out


def run_count_pass(ctx, execute, tally) -> tuple[Summary, dict]:
    ops, worst = count_ops(ctx)
    tracer = Tracer()
    for op in ops:
        execute(op, tally, op.run, tracer)
    summary = Summary(tracer.spans)
    return summary, counts(summary, ops, worst)
