"""The benchmark's four workloads.

Each is one process with one operation in flight at a time (a closed loop
with a single client).  A workload is a stream of rounds; a round is a
list of operations, and a run stops at the first round boundary after its
time is up, so that every run measures whole rounds of the same mix.

Every operation calls the program through module attributes
(``P.poa_sweep``, ``S.solve_nep``, ...), never through names bound at
import, so that a traced run sees each call.  Inputs come from ``gen``;
the program receives only the generated scenarios and loads.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable

import taskalloc as ta
import taskalloc.cli as C
import taskalloc.delay_modes as DM
import taskalloc.poa as P
import taskalloc.scenario_io as IO
import taskalloc.simulator as SIM
import taskalloc.solver as S

import checks
import gen

OPT, NEP = ta.AllocationKind.OPTIMAL, ta.AllocationKind.NEP
IGNORING = ta.DelayMode.IGNORING_DELAYS
BUNDLED = ("scenario0", "scenario1", "scenario2", "scenario3_cv0", "scenario3_cv1",
           "scenario3_cv10", "scenario3_cv3")
SIM_JOBS, SIM_REPS, RAW_JOBS = 200_000, 5, 20_000
CLI_TIMEOUT_S = 120.0


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    work: float = 1.0
    inproc: Callable[[], object] | None = None  # same work without a fresh process
    repeat: int = 1  # back-to-back calls per operation, for calls of about a millisecond


@dataclass
class Context:
    root: str
    tmp: str
    env: dict

    def bundled_path(self, name: str) -> str:
        return os.path.join(self.root, "scenarios", name + ".json")


def build(doc: dict) -> ta.Scenario:
    return ta.Scenario(tuple(ta.ServerSpec(d=s["d_ms"] / 1000.0, mu=s["mu"], cv=s["cv"],
                                           model=ta.QueueModel(s["model"]))
                             for s in doc["servers"]))


def power_server(d: float, mu: float, k: float = 1.5) -> ta.ServerSpec:
    """A user-supplied curve l(x) = d + mu^(k-1) / (mu - x)^k, outside the closed-form family."""
    return ta.ServerSpec.from_functions(
        d, mu,
        lambda x: d + mu ** (k - 1.0) / (mu - x) ** k,
        lambda x: k * mu ** (k - 1.0) / (mu - x) ** (k + 1.0),
    )


def spot_loads(grid) -> list[float]:
    return [float(grid[0]), float(grid[len(grid) // 2]), float(grid[-1])]


class Workload:
    name = ""
    primary: tuple = ()     # op kinds behind op_gmean_ms (and work_per_s, by default)
    secondary: tuple = ()   # op kinds behind op2_gmean_ms
    throughput: tuple = ()  # op kinds behind work_per_s, when not the primary ones
    min_ops = 1             # a traced run covers at least this many ops

    def warmup(self) -> list[Op]:
        raise NotImplementedError

    def rounds(self):
        raise NotImplementedError


# --- poa_dense ------------------------------------------------------------

def sweep_ops(sc: ta.Scenario, grid, moded: bool) -> list[Op]:
    """A plain 400-point sweep, plus the same loads through poa_under_mode when `moded`."""
    n = len(sc.servers)

    def run_plain():
        return P.poa_sweep(sc, grid).points

    def run_moded():
        # the CLI `sweep --delay-mode` path: one poa_under_mode per load
        return [DM.poa_under_mode(sc, float(lam), IGNORING) for lam in grid]

    def check(points, moded):
        checks.sweep(points, grid, n, moded)
        solve_sc, eval_sc = DM.transformed_scenarios(sc, IGNORING) if moded else (sc, sc)
        for lam in spot_loads(grid):
            opt, nep = S.solve_optimal(solve_sc, lam), S.solve_nep(solve_sc, lam)
            checks.result(solve_sc, lam, opt)
            checks.result(solve_sc, lam, nep)
            eta = S.average_latency(eval_sc, nep.p, lam) / S.average_latency(eval_sc, opt.p, lam)
            point = next(p for p in points if p.lam == lam)
            checks.require(abs(point.eta - eta) <= 1e-12 * eta, "sweep eta differs from a re-solve")

    ops = [Op("sweep", run_plain, lambda points: check(points, False), work=len(grid))]
    if moded:
        ops.append(Op("sweep_moded", run_moded, lambda points: check(points, True), work=len(grid)))
    return ops


def worst_op(sc: ta.Scenario, repeat: int = 1) -> Op:
    return Op("worst", lambda: P.worst_case_poa(sc), lambda res: checks.worst(res, len(sc.servers)),
              repeat=repeat)


class PoaDense(Workload):
    """400-point sweeps and worst cases on small scenarios, each solved 800 times in a row."""

    name = "poa_dense"
    primary = ("sweep", "sweep_moded")
    secondary = ("worst",)
    WORST_REPEAT = 10  # one call on a 3-server scenario takes about a millisecond

    def __init__(self, seed: int, ctx: Context):
        rng = gen.rng_for(seed, self.name)
        self.scenarios = [IO.load_scenario_file(ctx.bundled_path(b)).scenario for b in BUNDLED]
        # the cost of a sweep depends on how many servers are active along it, so the
        # seed jitters fixed layouts rather than drawing new ones
        seeded = [gen.jittered(rng, doc) for doc in gen.layouts((2, 4, 5, 6, 3), self.name)]
        self.scenarios += [build(doc) for doc in seeded[:-1]]
        *closed, last = seeded[-1]["servers"]
        self.scenarios.append(ta.Scenario(build({"servers": closed}).servers
                                          + (power_server(last["d_ms"] / 1000.0, last["mu"]),)))
        # moded sweeps on bundled scenario1 and the seeded 4-server scenario
        self.moded = {1, len(BUNDLED) + 1}
        self.grids = [P.default_grid(sc) for sc in self.scenarios]

    def _ops(self, i: int, count: int | None = None) -> list[Op]:
        sc = self.scenarios[i]
        grid = self.grids[i] if count is None else P.default_grid(sc, count)
        return sweep_ops(sc, grid, i in self.moded) + [worst_op(sc, self.WORST_REPEAT)]

    def warmup(self) -> list[Op]:
        return self._ops(1, 40) + self._ops(len(self.scenarios) - 1, 40)

    def rounds(self):
        ops = [op for i in range(len(self.scenarios)) for op in self._ops(i)]
        while True:
            yield ops


# --- fleet_sparse ---------------------------------------------------------

def solve_op(sc: ta.Scenario, lam: float, kind, solved: dict) -> Op:
    name = "solve_optimal" if kind is OPT else "solve_nep"

    def check(res):
        checks.result(sc, lam, res)
        solved[kind] = res
        if kind is NEP and OPT in solved:
            checks.opt_below_nep(solved[OPT].mean_latency, res.mean_latency)

    return Op(name, lambda: getattr(S, name)(sc, lam), check)


def moded_op(sc: ta.Scenario, lam: float, kind, mode) -> Op:
    def check(moded):
        solve_sc, eval_sc = DM.transformed_scenarios(sc, mode)
        checks.result(solve_sc, lam, moded.result)
        expect = S.average_latency(eval_sc, moded.result.p, lam)
        checks.require(abs(moded.evaluated_latency - expect) <= 1e-12 * expect,
                       "evaluated latency differs from the split's latency")

    return Op("solve_under_mode", lambda: DM.solve_under_mode(sc, lam, kind, mode), check)


def thresholds_op(sc: ta.Scenario) -> Op:
    return Op("thresholds",
              lambda: (S.activation_thresholds(sc, OPT), S.activation_thresholds(sc, NEP)),
              lambda tables: checks.thresholds(*tables, len(sc.servers)))


class FleetSparse(Workload):
    """Many distinct 32-1024 server scenarios, each solved only a few times.

    Every round builds new scenarios, one per size, each a fresh +-10% jitter of
    a fixed layout, at loads from narrow bands: a solve's cost depends on how
    many servers are active, and fresh draws would make the run-to-run spread
    a property of the seed.
    """

    name = "fleet_sparse"
    primary = ("solve_optimal", "solve_nep", "solve_under_mode")
    secondary = ("thresholds",)
    WORST_MAX_N = 64
    MODES = (ta.DelayMode.IGNORING_DELAYS, ta.DelayMode.WITHOUT_DELAYS, ta.DelayMode.UNIFORM_DELAYS)

    def __init__(self, seed: int, ctx: Context):
        self.seed = seed
        self.layouts = gen.layouts(gen.fleet_sizes(), self.name)

    def _scenario_ops(self, rng, layout: dict) -> list[Op]:
        sc = build(gen.jittered(rng, layout))
        n = len(sc.servers)
        ops = [thresholds_op(sc)]
        for lo, hi in ((0.25, 0.35), (0.65, 0.75)):
            lam = gen.rho(rng, lo, hi) * sc.total_mu
            solved: dict = {}
            ops += [solve_op(sc, lam, OPT, solved), solve_op(sc, lam, NEP, solved)]
        kind = rng.choice((OPT, NEP))
        ops.append(moded_op(sc, gen.rho(rng, 0.45, 0.55) * sc.total_mu, kind,
                            rng.choice(self.MODES)))
        if n <= self.WORST_MAX_N:
            ops.append(worst_op(sc))
        return ops

    def warmup(self) -> list[Op]:
        return self._scenario_ops(gen.rng_for(self.seed, "fleet:warmup"), self.layouts[0])

    def rounds(self):
        r = 0
        while True:
            rng = gen.rng_for(self.seed, f"fleet:{r}")
            yield [op for layout in self.layouts for op in self._scenario_ops(rng, layout)]
            r += 1


# --- sim_validate ---------------------------------------------------------

def sim_config(lam: float, p, seed: int, jobs: int, reps: int, raw: str | None = None):
    return SIM.SimulationConfig(lam=lam, p=tuple(p), horizon_jobs=jobs, seed=seed,
                                replications=reps, raw_samples_path=raw)


class SimValidate(Workload):
    """simulate and validate of solved splits across service classes and loads."""

    name = "sim_validate"
    primary = ("validate",)
    secondary = ("simulate",)
    throughput = ("validate", "simulate", "simulate_raw")

    def __init__(self, seed: int, ctx: Context):
        self.seed = seed
        self.raw_path = os.path.join(ctx.tmp, "raw_samples.csv")

    def _ops(self, rng, jobs: int, reps: int, raw_class: str) -> list[Op]:
        ops = []
        for service in gen.SERVICE_CLASSES:
            sc = build(gen.class_scenario(rng, service))
            lam = gen.rho(rng, 0.3, 0.9) * sc.total_mu
            kind = rng.choice((OPT, NEP))
            tol = gen.VALIDATE_TOLERANCE[service]
            n = len(sc.servers)
            vcfg = sim_config(lam, (1.0,) + (0.0,) * (n - 1), rng.randrange(2**31), jobs, reps)

            def check_validate(rec, sc=sc, vcfg=vcfg, tol=tol):
                checks.validation(rec)
                checks.simulation(rec.report, vcfg, rec.analytic_latency, tol)

            ops.append(Op("validate",
                          lambda sc=sc, lam=lam, kind=kind, vcfg=vcfg, tol=tol:
                          SIM.validate(sc, lam, kind, vcfg, tolerance=tol),
                          check_validate, work=jobs * reps))

            res = (S.solve_optimal if kind is OPT else S.solve_nep)(sc, lam)
            checks.result(sc, lam, res)
            scfg = sim_config(lam, res.p, rng.randrange(2**31), jobs, 1)
            ops.append(Op("simulate", lambda sc=sc, scfg=scfg: SIM.simulate(sc, scfg),
                          lambda rep, scfg=scfg, res=res, tol=tol:
                          checks.simulation(rep, scfg, res.mean_latency, 3 * tol),
                          work=jobs))
            if service == raw_class:
                # the simulator's write path: per-job samples to a CSV file
                rcfg = sim_config(lam, res.p, rng.randrange(2**31), RAW_JOBS, 1, self.raw_path)

                def check_raw(rep, sc=sc, rcfg=rcfg):
                    checks.simulation(rep, rcfg, 1.0, math.inf)
                    checks.raw_samples(rcfg.raw_samples_path, sc, rep.completed)

                ops.append(Op("simulate_raw", lambda sc=sc, rcfg=rcfg: SIM.simulate(sc, rcfg),
                              check_raw, work=RAW_JOBS))
        return ops

    def warmup(self) -> list[Op]:
        # the exponential class only: at cv 10 a short run is too noisy to validate
        return self._ops(gen.rng_for(self.seed, "sim:warmup"), SIM_JOBS, SIM_REPS, "exp")[:3]

    def rounds(self):
        r = 0
        while True:
            rng = gen.rng_for(self.seed, f"sim:{r}")
            yield self._ops(rng, SIM_JOBS, SIM_REPS, gen.SERVICE_CLASSES[r % 4])
            r += 1


# --- cli_cold -------------------------------------------------------------

CMDS = ("solve", "nep", "thresholds", "worst", "sweep", "simulate", "validate")
LIGHT_CMDS = ("solve", "nep", "thresholds", "worst")


def fresh_cli(ctx: Context, argv: list[str], rss_kb: list[int]):
    """Run one command in a fresh interpreter; its peak RSS is appended to `rss_kb`."""
    with (tempfile.TemporaryFile("w+", dir=ctx.tmp) as out,
          tempfile.TemporaryFile("w+", dir=ctx.tmp) as err):
        proc = subprocess.Popen([sys.executable, "-m", "taskalloc.cli", *argv], cwd=ctx.root,
                                env=ctx.env, stdout=out, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4 rather than wait: it also returns the child's own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_kb.append(usage.ru_maxrss)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read()


def inproc_cli(argv: list[str]):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = C.main(argv)
    return code, buf.getvalue(), ""


def cli_op(ctx: Context, cmd: str, argv: list[str], check, rss_kb: list[int]) -> Op:
    def checked(out):
        code, stdout, stderr = out
        checks.require(code == 0, f"`{' '.join(argv)}` exited {code}: {stderr.strip()[-300:]}")
        check(stdout)

    return Op(cmd, lambda: fresh_cli(ctx, argv, rss_kb), checked, inproc=lambda: inproc_cli(argv))


class CliCold(Workload):
    """A fresh `python -m taskalloc.cli <cmd>` process per operation."""

    name = "cli_cold"
    primary = CMDS
    secondary = LIGHT_CMDS
    min_ops = len(CMDS)
    SEEDED_SIZES = (2, 3, 4, 5, 6)

    def __init__(self, seed: int, ctx: Context):
        self.ctx = ctx
        self.rng = gen.rng_for(seed, self.name)
        self.paths = [ctx.bundled_path(b) for b in BUNDLED]
        self.classes = {}
        for path in self.paths:
            with open(path) as fh:
                self.classes[path] = gen.service_class(json.load(fh))
        for k, layout in enumerate(gen.layouts(self.SEEDED_SIZES, self.name)):
            doc = gen.jittered(self.rng, layout)
            path = os.path.join(ctx.tmp, f"seeded{k}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.paths.append(path)
            self.classes[path] = gen.service_class(doc)
        self.docs = {p: IO.load_scenario_file(p) for p in self.paths}
        self.out = os.path.join(ctx.tmp, "cli_out.csv")
        self.count = 0
        self.rss_kb: list[int] = []  # peak RSS of each command process

    def op(self, cmd: str) -> Op:
        # scenarios in a fixed rotation, so that every run times the same mix of
        # commands and scenarios; the seed picks loads, kinds and simulation seeds
        rng = self.rng
        path = self.paths[self.count % len(self.paths)]
        return self.command(cmd, path, gen.rho(rng, 0.3, 0.9), rng.choice((OPT, NEP)),
                            rng.randrange(2**31), rng.random() < 0.5)

    def command(self, cmd: str, path: str, rho: float, kind, seed: int, moded: bool) -> Op:
        """One CLI command with its output check; `moded` applies to sweep only."""
        doc, out = self.docs[path], self.out
        sc = doc.scenario
        lam = rho * sc.total_mu
        load = ["--rho", repr(rho)]
        if cmd in ("solve", "nep"):
            argv = [cmd, path, *load, "--out", out]
            if cmd == "solve":
                argv += ["--kind", kind.value]
            else:
                kind = NEP
            check = lambda _s: checks.cli_solve(sc, lam, kind, out)  # noqa: E731
        elif cmd == "thresholds":
            argv = [cmd, path, "--out", out]
            check = lambda _s: checks.cli_thresholds(sc, out)  # noqa: E731
        elif cmd == "worst":
            argv = [cmd, path, "--out", out]
            check = lambda stdout: checks.cli_worst(sc, out, stdout)  # noqa: E731
        elif cmd == "sweep":
            argv = [cmd, path, "--out", out] + (["--delay-mode", IGNORING.value] if moded else [])
            check = lambda _s: checks.cli_sweep(sc, out, 400, moded)  # noqa: E731
        elif cmd == "simulate":
            argv = [cmd, path, *load, "--kind", kind.value, "--seed", str(seed), "--out", out]
            sim = doc.simulation or IO.SimSettings()
            kept = sim.replications * (sim.horizon_jobs - int(sim.warmup * sim.horizon_jobs))
            check = lambda _s: checks.cli_simulate(sc, out, kept)  # noqa: E731
        else:
            tol = gen.VALIDATE_TOLERANCE[self.classes[path]]
            argv = [cmd, path, *load, "--kind", kind.value, "--seed", str(seed),
                    "--tolerance", repr(tol)]
            check = checks.cli_validate
        return cli_op(self.ctx, cmd, argv, check, self.rss_kb)

    def warmup(self) -> list[Op]:
        # compiles cli.py, which `import taskalloc` does not load
        return [self.command("thresholds", self.paths[1], 0.5, OPT, 0, False)]

    def rounds(self):
        while True:
            yield [self.op(CMDS[self.count % len(CMDS)])]
            self.count += 1


WORKLOADS = {w.name: w for w in (CliCold, PoaDense, FleetSparse, SimValidate)}
