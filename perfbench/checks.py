"""Correctness checks on the program's outputs, run outside the timed region.

Each check raises ``CheckFailed`` with a reason; the benchmark counts the
operation as failed.  The invariants are the ones that define the answers:

* a split is a probability vector (sum 1, no negative entries);
* NEP: every loaded server sees the same latency and every idle one a
  zero-load latency at least that high (Wardrop), plus no profitable
  deviation by the oracle where n <= 8;
* OPT: every loaded server has the same marginal cost and every idle one
  h(0) = l(0) at least that high;
* eta >= 1 and U* <= U(NEP);
* CLI commands exit 0 and their CSV parses and meets the same invariants;
* ``validate`` reports PASS.
"""

from __future__ import annotations

import csv
import math

import taskalloc as ta
from taskalloc.latency import latency, marginal_cost, zero_load_latency
from taskalloc.oracle import check_no_profitable_deviation

REL_TOL = 1e-6  # equal-curve tolerance, far above the solver's 1e-12 resolution
SUM_TOL = 1e-9
ORACLE_MAX_N = 8


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def split(sc, lam: float, p, kind) -> None:
    """Probability vector plus the equal-curve (KKT / Wardrop) conditions."""
    p = [float(q) for q in p]
    n = len(sc.servers)
    require(len(p) == n, f"split has {len(p)} entries for {n} servers")
    require(all(math.isfinite(q) and q >= 0.0 for q in p), "split has a negative or NaN entry")
    require(abs(sum(p) - 1.0) <= SUM_TOL, f"split sums to {sum(p)!r}")
    curve = marginal_cost if kind is ta.AllocationKind.OPTIMAL else latency
    loaded = [curve(s, q * lam) for s, q in zip(sc.servers, p) if q > 0.0]
    require(bool(loaded), "no server is loaded")
    top, bottom = max(loaded), min(loaded)
    require(top - bottom <= REL_TOL * top,
            f"{kind.value}: loaded servers differ by {top - bottom:.3e} s on the equalized curve")
    for s, q in zip(sc.servers, p):
        if q == 0.0:
            require(zero_load_latency(s) >= bottom * (1.0 - REL_TOL),
                    f"{kind.value}: an idle server would be faster than the loaded ones")
    if kind is ta.AllocationKind.NEP and n <= ORACLE_MAX_N:
        require(check_no_profitable_deviation(sc, lam, p), "NEP: a profitable deviation exists")


def result(sc, lam: float, res) -> None:
    """An ``AllocationResult``: its split, its multiplier and its mean latency."""
    split(sc, lam, res.p, res.kind)
    require(1 <= res.active_count <= len(sc.servers), "active count out of range")
    require(sum(1 for q in res.p if q > 0.0) <= res.active_count,
            "more loaded servers than the reported active count")
    mean = ta.average_latency(sc, res.p, lam)
    require(abs(mean - res.mean_latency) <= REL_TOL * mean, "mean latency disagrees with the split")
    if res.kind is ta.AllocationKind.NEP:
        require(abs(res.multiplier - mean) <= REL_TOL * mean, "NEP multiplier is not the latency")


def opt_below_nep(u_opt: float, u_nep: float) -> None:
    require(math.isfinite(u_opt) and u_opt > 0.0, f"U* = {u_opt!r}")
    require(u_opt <= u_nep * (1.0 + 1e-12), f"U* {u_opt!r} above the NEP latency {u_nep!r}")


def poa_point(point, n: int, moded: bool = False) -> None:
    require(1 <= point.j_nep <= n and 1 <= point.j_opt <= n, "active counts out of range")
    require(math.isfinite(point.eta) and point.eta > 0.0, f"eta = {point.eta!r}")
    if not moded:
        # ignoring delays prices a split solved on another scenario, so eta < 1 is possible
        opt_below_nep(point.u_opt, point.alpha)
        require(point.eta >= 1.0 - 1e-12, f"eta {point.eta!r} < 1")
        require(point.j_opt >= point.j_nep, "OPT activates fewer servers than NEP")


def sweep(points, grid, n: int, moded: bool = False) -> None:
    require(len(points) == len(grid), f"{len(points)} points for {len(grid)} loads")
    for point, lam in zip(points, grid):
        require(point.lam == float(lam), "point load differs from the grid")
        poa_point(point, n, moded)


def thresholds(table_opt, table_nep, n: int) -> None:
    for table in (table_opt, table_nep):
        require(len(table.loads) == n and sorted(table.order) == list(range(n)),
                "threshold table has the wrong shape")
        require(table.loads[0] == 0.0, "first threshold is not 0")
        require(all(b >= a for a, b in zip(table.loads, table.loads[1:])),
                "thresholds are not non-decreasing")
    require(table_opt.order == table_nep.order, "OPT and NEP activation orders differ")
    require(all(o <= e * (1.0 + 1e-12) for o, e in zip(table_opt.loads, table_nep.loads)),
            "a server activates later under OPT than under NEP")


def worst(res, n: int) -> None:
    etas = [c.eta for c in res.candidates]
    require(0 < len(etas) <= n, f"{len(etas)} worst-case candidates for {n} servers")
    require(all(math.isfinite(e) and e >= 1.0 - 1e-12 for e in etas), "a candidate has eta < 1")
    require(res.max.eta == max(etas), "reported maximum is not the largest candidate")


def simulation(report, cfg, analytic: float, tolerance: float) -> None:
    kept = cfg.replications * (cfg.horizon_jobs - int(cfg.warmup * cfg.horizon_jobs))
    require(report.completed == kept, f"{report.completed} jobs kept, expected {kept}")
    require(sum(s.completed for s in report.per_server) == kept, "per-server counts do not add up")
    require(not report.overloaded, "a server is overloaded")
    gap = abs(report.mean_latency - analytic) / analytic
    require(gap <= tolerance, f"simulated latency {gap:.3f} away from analytic")


def validation(record) -> None:
    require(record.passed, f"validate FAIL: gap {record.relative_gap:.4f} > {record.tolerance}")


def raw_samples(path: str, sc, expected_rows: int) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(rows[0] == ["job_id", "server", "depart_time", "latency_s"], "raw CSV header")
    require(len(rows) - 1 == expected_rows, f"{len(rows) - 1} raw rows, expected {expected_rows}")
    for row in rows[1:]:
        # latencies are differences of absolute times of ~1e3 s, good to ~1e-13 s;
        # gamma service at cv 10 draws service times that round to 0
        require(float(row[3]) >= sc.servers[int(row[1])].d - 1e-9,
                "a job finished faster than its path delay")


# --- command-line outputs -------------------------------------------------

def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def cli_solve(sc, lam: float, kind, path: str) -> None:
    rows = read_csv(path)
    require(len(rows) == len(sc.servers), "solve CSV row count")
    require([int(r["server"]) for r in rows] == list(range(len(sc.servers))), "solve CSV servers")
    for r in rows:
        require(abs(float(r["rate"]) - float(r["p"]) * lam) <= 1e-9 * lam, "rate != p * load")
    split(sc, lam, [float(r["p"]) for r in rows], kind)


def cli_thresholds(sc, path: str) -> None:
    rows = read_csv(path)
    n = len(sc.servers)
    require(len(rows) == n, "thresholds CSV row count")
    order = tuple(int(r["server"]) for r in rows)
    opt, nep = (ta.ThresholdTable(kind, order, tuple(float(r[f"threshold_{kind.value}"]) for r in rows))
                for kind in (ta.AllocationKind.OPTIMAL, ta.AllocationKind.NEP))
    thresholds(opt, nep, n)


def cli_worst(sc, path: str, stdout: str) -> None:
    rows = read_csv(path)
    require(0 < len(rows) <= len(sc.servers), "worst CSV row count")
    etas = [float(r["eta"]) for r in rows]
    require(all(e >= 1.0 - 1e-12 for e in etas), "worst CSV has eta < 1")
    require(f"worst case: eta {max(etas):.6g}" in stdout, "worst case line disagrees with CSV")


def cli_sweep(sc, path: str, count: int, moded: bool) -> None:
    rows = read_csv(path)
    require(len(rows) == count, f"sweep CSV has {len(rows)} rows, expected {count}")
    lams = [float(r["lam"]) for r in rows]
    require(all(b > a for a, b in zip(lams, lams[1:])), "sweep loads not increasing")
    n = len(sc.servers)
    for r in rows:
        point = ta.PoaPoint(float(r["lam"]), float(r["rho"]), float(r["eta"]), float(r["alpha"]),
                            float(r["u_opt"]), int(r["j_opt"]), int(r["j_nep"]))
        poa_point(point, n, moded)


def cli_simulate(sc, path: str, expected_kept: int) -> None:
    rows = read_csv(path)
    require(len(rows) == len(sc.servers) + 1 and rows[-1]["server"] == "all", "simulate CSV rows")
    require(abs(sum(float(r["p"]) for r in rows[:-1]) - 1.0) <= SUM_TOL, "simulate CSV p sum")
    require(int(rows[-1]["completed"]) == expected_kept, "simulate CSV completed count")
    require(math.isfinite(float(rows[-1]["mean_latency_s"])), "simulate CSV mean latency")


def cli_validate(stdout: str) -> None:
    require(stdout.rstrip().endswith("PASS"), "validate did not report PASS")
