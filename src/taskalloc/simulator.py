"""Discrete-event simulation of the allocation system.

Jobs arrive in one Poisson stream and are routed independently to
server i with probability p_i.  Each job crosses half the fixed path
delay, waits in a FIFO queue, is served (exponential, deterministic, or
gamma service matched on mean and coefficient of variation), and
crosses the return half of the delay; its latency is the full
send-to-receive time.  Queueing is resolved with the Lindley recursion
in vectorized form, so a run is a handful of array operations per
server rather than an event loop.

Runs are reproducible: every replication draws arrivals, routing, and
each server's service times from independent substreams derived from
the master seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, UnsupportedModelError
from .latency import QueueModel, ServerSpec
from .solver import AllocationKind, Scenario, solve_nep, solve_optimal

_ARRIVALS, _ROUTING, _SERVICE_BASE = 0, 1, 2

# stats.t.ppf(0.975, df) for df = 1..30, stored exactly (scipy 1.17.1); entry df - 1.
_T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078,
    2.7764451051977934, 2.5705818356363146, 2.4469118511449786,
    2.364624251592784, 2.306004135204166, 2.262157162798205,
    2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776,
    2.1199052992212546, 2.1098155778333156, 2.1009220402410382,
    2.0930240544083087, 2.085963447265864, 2.0796138447276795,
    2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846,
    2.0484071417952454, 2.045229642132703, 2.0422724563012378,
)


@dataclass(frozen=True)
class SimulationConfig:
    lam: float
    p: tuple[float, ...]
    horizon_jobs: int = 200_000
    warmup: float = 0.2
    seed: int = 0
    replications: int = 5
    raw_samples_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(q) for q in self.p))
        if not (self.lam > 0.0):
            raise DomainError(f"arrival rate must be > 0, got {self.lam}")
        if self.horizon_jobs <= 0:
            raise DomainError(f"horizon must be > 0 jobs, got {self.horizon_jobs}")
        if not (0.0 <= self.warmup <= 0.5):
            raise DomainError(f"warmup fraction must be in [0, 0.5], got {self.warmup}")
        if self.replications < 1:
            raise DomainError(f"replications must be >= 1, got {self.replications}")
        if any(q < 0.0 for q in self.p) or abs(sum(self.p) - 1.0) > 1e-9:
            raise DomainError("routing probabilities must be non-negative and sum to 1")


@dataclass(frozen=True)
class SimSettings:
    """The run-length settings of a scenario file's ``simulation`` section."""

    horizon_jobs: int = SimulationConfig.horizon_jobs
    seed: int = SimulationConfig.seed
    replications: int = SimulationConfig.replications
    warmup: float = SimulationConfig.warmup


@dataclass(frozen=True)
class ServerStats:
    mean_latency: float
    mean_sojourn: float
    utilization: float
    completed: int
    arrival_rate: float
    latency_ci: float


@dataclass(frozen=True)
class SimulationReport:
    per_server: tuple[ServerStats, ...]
    mean_latency: float
    mean_sojourn: float
    utilization: float
    completed: int
    latency_ci: float
    overloaded: bool
    replications: int


@dataclass(frozen=True)
class ValidationRecord:
    kind: AllocationKind
    lam: float
    analytic_latency: float
    empirical_latency: float
    latency_ci: float
    relative_gap: float
    tolerance: float
    passed: bool
    report: SimulationReport | None = field(repr=False, compare=False, default=None)


def _rng(seed: int, rep: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, rep, purpose)))


def _service_times(s: ServerSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    if s.model is QueueModel.GENERIC:
        raise UnsupportedModelError("generic latency models define no service distribution")
    if s.cv == 0.0:
        return np.full(count, 1.0 / s.mu)
    # gamma with shape 1 draws exactly what rng.exponential(1/mu) would
    shape = 1.0 / (s.cv * s.cv)
    return rng.gamma(shape, s.cv * s.cv / s.mu, size=count)


def _one_replication(sc: Scenario, cfg: SimulationConfig, rep: int):
    n = len(sc.servers)
    n_jobs = cfg.horizon_jobs
    arrivals = np.cumsum(_rng(cfg.seed, rep, _ARRIVALS).exponential(1.0 / cfg.lam, size=n_jobs))
    p = np.asarray(cfg.p)
    choice = _rng(cfg.seed, rep, _ROUTING).choice(n, size=n_jobs, p=p / p.sum())

    cutoff = int(cfg.warmup * n_jobs)
    window = arrivals[-1] - (arrivals[cutoff] if cutoff > 0 else 0.0)

    lat_sum = np.zeros(n)
    soj_sum = np.zeros(n)
    busy = np.zeros(n)
    kept = np.zeros(n, dtype=int)
    raw: list[tuple[int, int, float, float]] = []

    for k, s in enumerate(sc.servers):
        idx = np.nonzero(choice == k)[0]
        if idx.size == 0:
            continue
        t_in = arrivals[idx] + 0.5 * s.d
        service = _service_times(s, idx.size, _rng(cfg.seed, rep, _SERVICE_BASE + k))
        # Lindley recursion: depart_i = C_i + max_{j<=i} (t_j - C_{j-1})
        csum = np.cumsum(service)
        depart = csum + np.maximum.accumulate(t_in - (csum - service))
        sojourn = depart - t_in
        latency = sojourn + s.d

        keep = idx >= cutoff
        lat_sum[k] = latency[keep].sum()
        soj_sum[k] = sojourn[keep].sum()
        busy[k] = service[keep].sum()
        kept[k] = int(keep.sum())
        if cfg.raw_samples_path is not None:
            for j, d_t, l_t in zip(idx[keep], depart[keep] + 0.5 * s.d, latency[keep]):
                raw.append((int(j), k, float(d_t), float(l_t)))

    if cfg.raw_samples_path is not None:
        path = cfg.raw_samples_path
        if cfg.replications > 1:
            stem, dot, ext = path.rpartition(".")
            path = f"{stem}.rep{rep}.{ext}" if dot else f"{path}.rep{rep}"
        raw.sort()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["job_id", "server", "depart_time", "latency_s"])
            writer.writerows(raw)

    return lat_sum, soj_sum, busy, kept, window


def _mean_ci(values: np.ndarray) -> tuple[float, float]:
    """Mean and 95% confidence half-width across replications, NaN-aware."""
    values = values[~np.isnan(values)]
    if values.size == 0:
        return math.nan, math.nan
    mean = float(values.mean())
    if values.size == 1:
        return mean, math.nan
    df = values.size - 1
    if df <= len(_T975):
        q = _T975[df - 1]
    else:
        # Importing scipy.stats costs ~0.5 s and ~60 MB, most of a short simulate or
        # validate run, so up to 30 degrees of freedom the quantile comes from _T975;
        # only larger replication counts load it (see tests/test_startup.py).
        from scipy import stats

        q = stats.t.ppf(0.975, df)
    half = float(q * values.std(ddof=1) / math.sqrt(values.size))
    return mean, half


def simulate(sc: Scenario, cfg: SimulationConfig) -> SimulationReport:
    """Run ``cfg.replications`` independent replications and aggregate."""
    n = len(sc.servers)
    if len(cfg.p) != n:
        raise DomainError(f"routing vector has {len(cfg.p)} entries for {n} servers")
    overloaded = any(q * cfg.lam >= s.mu for q, s in zip(cfg.p, sc.servers))

    reps = cfg.replications
    lat_mean = np.full((reps, n), np.nan)
    soj_mean = np.full((reps, n), np.nan)
    util = np.zeros((reps, n))
    rate = np.zeros((reps, n))
    agg_lat = np.zeros(reps)
    agg_soj = np.zeros(reps)
    agg_util = np.zeros(reps)
    counts = np.zeros((reps, n), dtype=int)

    for r in range(reps):
        lat_sum, soj_sum, busy, kept, window = _one_replication(sc, cfg, r)
        got = kept > 0
        lat_mean[r, got] = lat_sum[got] / kept[got]
        soj_mean[r, got] = soj_sum[got] / kept[got]
        util[r] = busy / window
        rate[r] = kept / window
        counts[r] = kept
        agg_lat[r] = lat_sum.sum() / kept.sum()
        agg_soj[r] = soj_sum.sum() / kept.sum()
        agg_util[r] = busy.sum() / (n * window)

    per_server = []
    for k in range(n):
        mean_k, ci_k = _mean_ci(lat_mean[:, k])
        soj_k, _ = _mean_ci(soj_mean[:, k])
        per_server.append(
            ServerStats(
                mean_latency=mean_k,
                mean_sojourn=soj_k,
                utilization=float(util[:, k].mean()),
                completed=int(counts[:, k].sum()),
                arrival_rate=float(rate[:, k].mean()),
                latency_ci=ci_k,
            )
        )
    agg_mean, agg_ci = _mean_ci(agg_lat)
    return SimulationReport(
        per_server=tuple(per_server),
        mean_latency=agg_mean,
        mean_sojourn=float(agg_soj.mean()),
        utilization=float(agg_util.mean()),
        completed=int(counts.sum()),
        latency_ci=agg_ci,
        overloaded=overloaded,
        replications=reps,
    )


def validate(
    sc: Scenario,
    lam: float,
    kind: AllocationKind,
    cfg: SimulationConfig | None = None,
    tolerance: float = 0.03,
) -> ValidationRecord:
    """Compare a solver's predicted latency against a simulation of its split."""
    solver = solve_optimal if kind is AllocationKind.OPTIMAL else solve_nep
    result = solver(sc, lam)
    p = tuple(result.p)
    cfg = SimulationConfig(lam=lam, p=p) if cfg is None else replace(cfg, lam=lam, p=p)
    report = simulate(sc, cfg)
    gap = abs(report.mean_latency - result.mean_latency) / result.mean_latency
    return ValidationRecord(
        kind=kind,
        lam=lam,
        analytic_latency=result.mean_latency,
        empirical_latency=report.mean_latency,
        latency_ci=report.latency_ci,
        relative_gap=gap,
        tolerance=tolerance,
        passed=bool(gap <= tolerance),
        report=report,
    )
