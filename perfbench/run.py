"""taskalloc benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload poa_dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all                 # every workload, both modes, a report
    python3 perfbench/run.py --selftest            # wrong answers must count as failures

Run from anywhere; the checkout is the directory above this file and the
program is imported from its ``src/`` (the package need not be installed).
Each run starts fresh worker processes with BLAS threads pinned to 1.  With
``--trace 0`` the last line of standard output is a JSON object with every
end-to-end metric, with ``--trace 1`` one with every per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 3
SETUP_PROBES = 8  # speed-probe samples right after each set-up
PROBE_LOOPS = 250
REF_PROBE_S = 0.002  # the speed probe's time that timings are scaled to
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("cli_cold", "poa_dense", "fleet_sparse", "sim_validate")

# end-to-end metrics (name -> unit), the same on every workload; "op" is the
# workload's primary operation and "op2" its secondary one
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_gmean_ms": "ms", "op2_gmean_ms": "ms",
              "work_per_s": "1/s"}
# printed in the report only: a median over a fixed mix lands in whichever class of
# operation sits in the middle, with a handful of samples per run, so it is not gated
REPORTED = {"op_p50_ms": "ms", "op_tail_ms": "ms", "op2_p50_ms": "ms"}
# each workload's own names: (op, op2, their display unit, work_per_s)
NAMES = {
    "cli_cold": ("cli_wall", "cli_light", "s", "cli_cmds_per_s"),
    "poa_dense": ("sweep", "worst", "ms", "sweep_points_per_s"),
    "fleet_sparse": ("fleet_solve", "thresholds", "ms", "fleet_solves_per_s"),
    "sim_validate": ("validate", "simulate", "ms", "sim_jobs_per_s"),
}


def label(workload: str, metric: str, unit: str) -> tuple[str, str]:
    """An end-to-end metric's name and display unit in the workload's own terms."""
    op, op2, op_unit, work = NAMES[workload]
    if metric == "work_per_s":
        return work, unit
    stem, _, rest = metric.partition("_")
    if stem not in ("op", "op2"):
        return metric, unit
    stat = rest.split("_")[0]
    return f"{op if stem == 'op' else op2}_{stat}_{op_unit}", op_unit


CMDS = ("solve", "nep", "thresholds", "worst", "sweep", "simulate", "validate")
COUNT = "count"
PER_LAYER = {
    "import.wall_s": "s", "import.scipy_modules": COUNT,
    **{f"cli.{c}.{m}": "s" for c in CMDS for m in ("wall_s", "inproc_s")},
    "scenario_io.load_ms": "ms",
    "solver.solve.calls": COUNT, "solver.solve_optimal.self_us": "us",
    "solver.solve_nep.self_us": "us", "solver.thresholds.per_solve": COUNT,
    "solver.thresholds.self_us": "us", "solver.thresholds.wall_us": "us",
    "solver.thresholds.share": "ratio",
    "latency.inversions_per_solve": COUNT, "latency.inversion.share": "ratio",
    "latency.latency.ns": "ns", "latency.marginal_cost.ns": "ns", "latency.invert_latency.ns": "ns",
    "latency.invert_marginal.ns": "ns", "latency.generic_invert.us": "us",
    "poa.poa_at.self_us": "us", "poa.sweep.solves_per_point": COUNT,
    "poa.worst.candidates": COUNT, "poa.worst.solves_per_call": COUNT,
    "delay_modes.transform.us": "us", "delay_modes.solve_under_mode.self_us": "us",
    "simulator.ns_per_job.exp": "ns", "simulator.ns_per_job.det": "ns",
    "simulator.ns_per_job.gamma": "ns", "simulator.raw_ns_per_job": "ns", "simulator.jobs": COUNT,
    "simulator.validate.solve_share": "ratio",
    "trace.slowdown": "ratio",
}

clock = time.perf_counter


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # bytecode caches are written (inside the checkout) whatever the caller's setting,
    # as an installed package has them: a command then loads taskalloc, not compiles it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


# --- parent ---------------------------------------------------------------

class Deadline:
    """Kills a child that would take the run past its time limit."""

    def __init__(self, limit_s: float):
        self.end = clock() + limit_s

    def watch(self, proc: subprocess.Popen) -> threading.Timer:
        """`proc` must lead its own process group; the group is killed with it."""
        timer = threading.Timer(max(self.end - clock(), 0.0), os.killpg, (proc.pid, signal.SIGKILL))
        timer.daemon = True
        timer.start()
        return timer


def spawn_worker(args, tmp: str, deadline: Deadline, setup_only: bool):
    """Start a worker; return (seconds until it was set up, its result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", tmp] + (["--setup-only"] if setup_only else [])
    t0 = clock()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timer = deadline.watch(proc)
    try:
        first = proc.stdout.readline()
        setup = clock() - t0
        rest = proc.stdout.read()
    finally:
        proc.wait()
        timer.cancel()
    if first.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker failed (exit {proc.returncode})")
    return setup, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))


def fresh_import(deadline: Deadline) -> float:
    t0 = clock()
    proc = subprocess.Popen([sys.executable, "-c", "import taskalloc"], cwd=ROOT, env=child_env(),
                            start_new_session=True)
    timer = deadline.watch(proc)
    proc.wait()
    timer.cancel()
    if proc.returncode != 0:
        raise RuntimeError("`import taskalloc` failed")
    return clock() - t0


def run_one(args) -> dict:
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(ROOT, ".bench_tmp"))
    deadline = Deadline(RUN_LIMIT_S)
    probe = SpeedProbe()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPS - (0 if args.workload == "cli_cold" else 1)):
                setups.append(fresh_import(deadline) if args.workload == "cli_cold"
                              else spawn_worker(args, tmp, deadline, True)[0])
                for _ in range(SETUP_PROBES):
                    probe.sample()
        setup, result = spawn_worker(args, tmp, deadline, False)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not args.trace:
        if args.workload != "cli_cold":
            setups.append(setup)
        result["metrics"]["setup_s"] = (statistics.median(setups) * REF_PROBE_S
                                        / statistics.median(probe.samples))
        result["notes"]["setup_samples_s"] = setups
    return result


def report(workload: str, result: dict, trace: bool) -> None:
    notes = result["notes"]
    print(f"workload {workload}: {result['attempted']} operations, {result['failed']} failed, "
          f"failed_frac = {result['failed'] / result['attempted']:.6g} ratio")
    for error in notes.get("errors", []):
        print(f"  failure: {error}")
    units = PER_LAYER if trace else dict(END_TO_END, **REPORTED)
    for name, unit in units.items():
        value = result["metrics"].get(name, notes.get(name))
        shown, shown_unit = (name, unit) if trace else label(workload, name, unit)
        if value is None:
            print(f"  {shown:<40} n/a ({notes.get(name + '_why', '')})")
            continue
        if shown_unit == "s" and unit == "ms":
            value /= 1e3
        source = notes.get("sources", {}).get(name, "")
        gated = "" if trace or name in END_TO_END else "   (reported, not gated)"
        print(f"  {shown:<40} {value:.6g} {shown_unit}" + (f"   [{source}]" if source else "")
              + gated)
    for key in ("op_tail_percentile", "samples", "measured_s", "setup_samples_s", "unscaled",
                "probe_ms", "spans_file"):
        if key in notes:
            print(f"  ({key}: {notes[key]})")


def final_line(result: dict, trace: bool) -> str:
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def parent(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "taskalloc", "__init__.py")):
        print(f"error: no taskalloc sources under {SRC}", file=sys.stderr)
        return 2
    # one CPU for this process and every process it starts: the speed probe must
    # run on the core whose speed it corrects for, and the cores drift independently
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.selftest:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--worker",
                               "--selftest"], cwd=ROOT, env=child_env(), timeout=RUN_LIMIT_S)
        return proc.returncode
    if args.all:
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                args.workload, args.trace = workload, trace
                result = run_one(args)
                report(workload, result, bool(trace))
                ok = ok and result["failed"] == 0
        return 0 if ok else 1
    result = run_one(args)
    report(args.workload, result, bool(args.trace))
    print(final_line(result, bool(args.trace)))
    return 0


# --- worker ---------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = {}  # seconds as measured
        self.marks: dict[str, list[int]] = {}    # the speed-probe sample taken just before
        self.work: dict[str, float] = {}

    def fail(self, op, exc: Exception) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")

    def add(self, op, seconds: float, mark: int = -1) -> None:
        self.times.setdefault(op.kind, []).append(seconds)
        self.marks.setdefault(op.kind, []).append(mark)
        self.work[op.kind] = self.work.get(op.kind, 0.0) + op.work


def execute(op, tally: Tally, fn=None, tracer=None):
    """Time one operation, then check its output; return the seconds per call, or None.

    Any exception from the program or from the check counts as a failure,
    so one bad operation is reported and the run goes on.
    """
    fn = fn or op.run
    tally.attempted += 1
    if tracer is not None:
        tracer.op = tally.attempted
        tracer.install()
    try:
        t0 = clock()
        for _ in range(op.repeat - 1):
            fn()
        out = fn()
        seconds = (clock() - t0) / op.repeat
    except Exception as exc:  # noqa: BLE001 - the program's failure is the measurement
        tally.fail(op, exc)
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        op.check(out)
    except Exception as exc:  # noqa: BLE001
        tally.fail(op, exc)
        return None
    return seconds


class _Point:
    __slots__ = ("d", "mu")

    def __init__(self, d: float, mu: float):
        self.d, self.mu = d, mu


def _curve(s: _Point, x: float) -> float:
    return s.d + 1.0 / (s.mu - x)


_PROBE_POINTS = [_Point(0.001 * i, 10.0 + i) for i in range(64)]


class SpeedProbe:
    """The machine's speed now, from the time of a fixed pure-Python loop.

    The hosts this runs on share physical cores with other tenants, and a
    core's speed drifts by up to a third within minutes, in steps that move
    every timing of a run together.  The probe (calls, attribute loads and
    float division, like the solver's inner loops) runs between operations;
    each timing is scaled by REF_PROBE_S / (the mean of the probe times just
    before and just after it), so that it measures the program at one fixed
    machine speed rather than its neighbours.
    """

    def __init__(self, every_s: float = 0.1):
        self.every_s = every_s
        self.samples: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        t0 = clock()
        total = 0.0
        for _ in range(PROBE_LOOPS):
            for point in _PROBE_POINTS:
                total += _curve(point, 0.5)
        self.last = clock()
        self.samples.append(self.last - t0)

    def maybe_sample(self) -> None:
        if clock() - self.last >= self.every_s:
            self.sample()

    def scale(self, mark: int) -> float:
        """Factor from measured to reference-speed time for work between samples mark and mark+1."""
        return REF_PROBE_S / statistics.fmean(self.samples[mark:mark + 2])


def loop(wl, seconds: float, tally: Tally, min_ops: int = 1, probe: SpeedProbe | None = None):
    """Whole rounds until `seconds` have passed; returns the (op, seconds) that succeeded."""
    start = clock()
    done = []
    for ops in wl.rounds():
        for op in ops:
            if probe is not None:
                probe.maybe_sample()
            dt = execute(op, tally)
            if dt is not None:
                tally.add(op, dt, len(probe.samples) - 1 if probe is not None else -1)
                done.append((op, dt))
        if clock() - start >= seconds and len(done) >= min_ops:
            if probe is not None:
                probe.sample()  # brackets the last operations
            return done


def tail(values: list[float]):
    """The highest percentile with at least 10 samples beyond it, and that percentile."""
    if len(values) < 11:
        return None, None
    ordered = sorted(values)
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def end_to_end(wl, tally: Tally, notes: dict, probe: SpeedProbe) -> dict:
    def metrics(times: dict) -> dict:
        pick = lambda kinds: [t for k in kinds for t in times.get(k, [])]  # noqa: E731
        kinds = wl.throughput or wl.primary
        return {
            "op_gmean_ms": statistics.geometric_mean(pick(wl.primary)) * 1e3,
            "op2_gmean_ms": statistics.geometric_mean(pick(wl.secondary)) * 1e3,
            "work_per_s": sum(tally.work.get(k, 0.0) for k in kinds) / sum(pick(kinds)),
            "op_p50_ms": statistics.median(pick(wl.primary)) * 1e3,
            "op2_p50_ms": statistics.median(pick(wl.secondary)) * 1e3,
            "op_tail": tail(pick(wl.primary)),
        }

    scaled = {k: [t * probe.scale(m) for t, m in zip(v, tally.marks[k])]
              for k, v in tally.times.items()}
    out, raw = metrics(scaled), metrics(tally.times)
    value, pct = out.pop("op_tail")
    raw.pop("op_tail")
    notes.update(op_p50_ms=out.pop("op_p50_ms"), op2_p50_ms=out.pop("op2_p50_ms"),
                 op_tail_ms=value * 1e3 if value is not None else None,
                 op_tail_percentile=pct, op_tail_ms_why="fewer than 11 samples",
                 samples={k: len(v) for k, v in tally.times.items()},
                 unscaled={k: round(v, 6) for k, v in raw.items()},
                 probe_ms=round(statistics.median(probe.samples) * 1e3, 4))
    # cli_cold: the median command process, since the largest one depends on the seed's mix
    rss_kb = (statistics.median(wl.rss_kb) if wl.name == "cli_cold"
              else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    out["peak_rss_mb"] = rss_kb / 1024.0
    return out


def per_layer(wl, ctx, tally: Tally, notes: dict, seconds: float) -> dict:
    import reference
    from spans import SOLVES, Summary, Tracer

    is_cli = wl.name == "cli_cold"
    done = loop(wl, seconds / 2, tally, wl.min_ops)
    metrics = {}
    if is_cli:
        # fresh processes are out of a tracer's reach: replay the same argv in-process
        base = [(op, execute(op, tally, op.inproc)) for op, _ in done]
        for cmd in CMDS:
            metrics[f"cli.{cmd}.wall_s"] = statistics.median(tally.times[cmd])
            metrics[f"cli.{cmd}.inproc_s"] = statistics.median(
                [dt for op, dt in base if op.kind == cmd and dt is not None])
    else:
        base = done
    tracer = Tracer()
    traced = [(execute(op, tally, op.inproc or op.run, tracer), dt) for op, dt in base]
    pairs = [(t, b) for t, b in traced if t is not None and b is not None]
    metrics["trace.slowdown"] = sum(t for t, _ in pairs) / sum(b for _, b in pairs)
    path = os.path.join(ROOT, ".bench_out", f"spans-{wl.name}-seed{notes['seed']}.csv")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tracer.write(path)
    notes["spans_file"] = os.path.relpath(path, ROOT)

    own = Summary(tracer.spans)
    fallback, counts = reference.run_count_pass(ctx, execute, tally)
    metrics.update(counts)
    metrics.update(reference.latency_micro(ctx))
    metrics.update(reference.simulator_micro(ctx))
    metrics["scenario_io.load_ms"] = reference.load_ms(ctx)
    if not is_cli:
        metrics.update(reference.cli_commands(ctx, execute, tally))

    sources = notes.setdefault("sources", {})

    def from_spans(name: str, needs: tuple, fn) -> None:
        summary, source = (own, "workload") if all(own.count(n) for n in needs) else (fallback, "reference")
        metrics[name] = fn(summary)
        sources[name] = source

    solve_total = lambda s: s.total(s.index(*SOLVES))  # noqa: E731
    from_spans("solver.solve_optimal.self_us", ("solver.solve_optimal",),
               lambda s: s.mean_self("solver.solve_optimal") * 1e6)
    from_spans("solver.solve_nep.self_us", ("solver.solve_nep",),
               lambda s: s.mean_self("solver.solve_nep") * 1e6)
    from_spans("solver.thresholds.self_us", ("solver.thresholds",),
               lambda s: s.mean_self("solver.thresholds") * 1e6)
    from_spans("solver.thresholds.wall_us", ("solver.thresholds",),
               lambda s: s.mean_dur("solver.thresholds") * 1e6)
    from_spans("solver.thresholds.share", SOLVES,
               lambda s: s.total(s.child_of(("solver.thresholds",), SOLVES)) / solve_total(s))
    from_spans("latency.inversion.share", SOLVES,
               lambda s: sum(s.sub_leaf_s[i] for i in s.index(*SOLVES)) / solve_total(s))
    from_spans("poa.poa_at.self_us", ("poa.poa_at",), lambda s: s.mean_self("poa.poa_at") * 1e6)
    from_spans("delay_modes.transform.us", ("delay_modes.transform",),
               lambda s: s.mean_dur("delay_modes.transform") * 1e6)
    from_spans("delay_modes.solve_under_mode.self_us", ("delay_modes.solve_under_mode",),
               lambda s: s.mean_self("delay_modes.solve_under_mode") * 1e6)
    from_spans("simulator.validate.solve_share", ("simulator.validate",),
               lambda s: s.total(s.child_of(SOLVES, ("simulator.validate",)))
               / s.total(s.index("simulator.validate")))
    return metrics


def selftest(ctx) -> int:
    """Deliberately wrong answers must be counted as failures, right ones must not."""
    import numpy as np
    import taskalloc as ta
    import taskalloc.solver as S

    import checks
    from workloads import Op

    sc = ta.load_scenario_file(ctx.bundled_path("scenario1")).scenario
    lam = 0.6 * sc.total_mu
    opt, nep = S.solve_optimal(sc, lam), S.solve_nep(sc, lam)
    shifted = nep.p + np.array([1e-3, -1e-3, 0.0])
    cases = [
        ("correct NEP", nep, False),
        ("correct OPT", opt, False),
        ("OPT split labelled NEP", ta.AllocationResult(ta.AllocationKind.NEP, opt.p, nep.multiplier,
                                                       opt.active_count, opt.mean_latency, opt.order),
         True),
        ("NEP split moved by 1e-3", ta.AllocationResult(nep.kind, shifted, nep.multiplier,
                                                        nep.active_count, nep.mean_latency, nep.order),
         True),
        ("split summing to 1.01", ta.AllocationResult(opt.kind, opt.p * 1.01, opt.multiplier,
                                                      opt.active_count, opt.mean_latency, opt.order),
         True),
        ("mean latency off by 1%", ta.AllocationResult(opt.kind, opt.p, opt.multiplier,
                                                       opt.active_count, opt.mean_latency * 1.01,
                                                       opt.order), True),
    ]
    ok = True
    for label, res, wrong in cases:
        tally = Tally()
        execute(Op("solve", lambda res=res: res, lambda r: checks.result(sc, lam, r)), tally)
        caught = tally.failed == 1
        ok = ok and caught == wrong
        print(f"{'ok  ' if caught == wrong else 'FAIL'} {label}: counted as "
              f"{'failed' if caught else 'passed'} ({tally.errors[0] if tally.errors else 'no error'})")
    tally = Tally()
    execute(Op("solve", lambda: S.solve_nep(sc, 2.0 * sc.total_mu), lambda r: None), tally)
    ok = ok and tally.failed == 1
    print(f"{'ok  ' if tally.failed == 1 else 'FAIL'} infeasible load: raised and counted as failed")
    return 0 if ok else 1


def worker(args) -> int:
    t0 = clock()
    import taskalloc  # noqa: F401 - timed: the package import is a layer of its own

    import_s = clock() - t0
    scipy_modules = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    import workloads

    ctx = workloads.Context(root=ROOT, tmp=args.tmp or os.path.join(ROOT, ".bench_tmp"),
                            env=child_env())
    if args.selftest:
        return selftest(ctx)
    wl = workloads.WORKLOADS[args.workload](args.seed, ctx)
    tally = Tally()
    for op in wl.warmup():
        execute(op, tally)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    notes = {"seed": args.seed}
    start = clock()
    if args.trace:
        metrics = per_layer(wl, ctx, tally, notes, args.seconds)
        metrics["import.wall_s"] = import_s
        metrics["import.scipy_modules"] = scipy_modules
    else:
        probe = SpeedProbe()
        loop(wl, args.seconds, tally, wl.min_ops, probe)
        metrics = end_to_end(wl, tally, notes, probe)
    notes["measured_s"] = round(clock() - start, 3)
    notes["errors"] = tally.errors
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics, "notes": notes}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default="poa_dense")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--selftest", action="store_true", help="check that wrong answers fail")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--tmp", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker(args)
    try:
        return parent(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
