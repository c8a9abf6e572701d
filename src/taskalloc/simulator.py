"""Discrete-event simulation of the allocation system.

Jobs arrive in one Poisson stream and are routed independently to
server i with probability p_i.  Each job crosses half the fixed path
delay, waits in a FIFO queue, is served (exponential, deterministic, or
gamma service matched on mean and coefficient of variation), and
crosses the return half of the delay; its latency is the full
send-to-receive time.  Queueing is resolved with the Lindley recursion
in vectorized form, so a run is a handful of array operations per
server rather than an event loop.

Routing is an inverse-CDF lookup of one uniform draw per job from the
routing substream: the draws, and so the servers, that
``Generator.choice`` would give.  Each server's job indices come out
ascending, so the jobs kept after the warmup are a suffix of them.

A ``SimulationConfig`` is the run-length ``SimSettings`` plus the load,
the routing split and a per-job sample file.  Runs are reproducible:
every replication draws arrivals, routing, and each server's service
times from independent substreams derived from the master seed.

``simulate`` averages each server's statistics across replications, with
a 95% Student-t half-width on its mean latency, and builds the aggregate
(the CLI's ``all`` row) the same way: per replication, latency and
sojourn are weighted by completions over all servers, utilization is the
mean over servers and ``completed`` is the total.  That row leaves ``p``
and ``arrival_rate`` blank.

numpy is imported at first use, by the functions that draw and reduce the samples.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field

from .errors import DomainError, UnsupportedModelError
from .latency import QueueModel, ServerSpec
from .solver import SIMPLEX_TOL, AllocationKind, Scenario, solve_nep, solve_optimal

_ARRIVALS, _ROUTING, _SERVICE_BASE = 0, 1, 2

_VALIDATE_TOLERANCE = 0.03  # validate's and the CLI's default relative gap

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
class SimSettings:
    """The run-length settings of a scenario file's ``simulation`` section."""

    horizon_jobs: int = 200_000
    seed: int = 0
    replications: int = 5
    warmup: float = 0.2

    def __post_init__(self):
        if self.horizon_jobs <= 0:
            raise DomainError(f"horizon must be > 0 jobs, got {self.horizon_jobs}")
        if not (0.0 <= self.warmup <= 0.5):
            raise DomainError(f"warmup fraction must be in [0, 0.5], got {self.warmup}")
        if self.replications < 1:
            raise DomainError(f"replications must be >= 1, got {self.replications}")
        # the kept window runs from the cutoff job's arrival (time 0 without a cutoff) to the last
        cutoff = int(self.warmup * self.horizon_jobs)
        if 0 < cutoff >= self.horizon_jobs - 1:
            raise DomainError(f"a warmup of {self.warmup} over {self.horizon_jobs} jobs keeps a window "
                              f"of fewer than two arrivals")


@dataclass(frozen=True, kw_only=True)
class SimulationConfig(SimSettings):
    lam: float
    p: tuple[float, ...]
    raw_samples_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(float(q) for q in self.p))
        if not (self.lam > 0.0):
            raise DomainError(f"arrival rate must be > 0, got {self.lam}")
        if self.lam == math.inf:
            raise DomainError(f"arrival rate must be finite, got {self.lam}")
        super().__post_init__()
        if self.seed < 0:  # numpy's seeding would reject it without naming the seed
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        total = 0.0  # a plain loop: ``sum`` compensates from Python 3.12 on
        for q in self.p:
            total += q
        if any(not (q >= 0.0) for q in self.p) or abs(total - 1.0) > SIMPLEX_TOL:  # NaN fails q >= 0
            raise DomainError("routing probabilities must be non-negative and sum to 1")


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
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence((seed, rep, purpose)))


def _service_times(s: ServerSpec, count: int, rng: np.random.Generator) -> np.ndarray:
    if s.model is QueueModel.GENERIC:
        raise UnsupportedModelError("generic latency models define no service distribution")
    import numpy as np

    if s.cv == 0.0:
        return np.full(count, 1.0 / s.mu)
    # gamma with shape 1 draws exactly what rng.exponential(1/mu) would
    shape = 1.0 / (s.cv * s.cv)
    return rng.gamma(shape, s.cv * s.cv / s.mu, size=count)


def _routed_jobs(p: tuple[float, ...], n_jobs: int, rng: np.random.Generator):
    """Yield each server's job indices, ascending: where ``rng.choice(len(p), n_jobs,
    p=p / sum(p))`` would send each job.

    ``choice`` looks each of ``rng.random(n_jobs)`` up in the normalized CDF with
    ``searchsorted(side="right")``, so server k gets the draws u with
    ``cdf[k-1] <= u < cdf[k]``; one compare per server, kept for the next, finds them.
    """
    import numpy as np

    q = np.asarray(p)
    cdf = (q / q.sum()).cumsum()
    if np.isnan(cdf[-1]):
        raise ValueError("Probabilities contain NaN")  # choice's check and message
    cdf /= cdf[-1]
    u = rng.random(n_jobs)
    below_prev = np.zeros(n_jobs, dtype=bool)
    for c in cdf:
        below = u < c
        yield np.flatnonzero(below ^ below_prev)
        below_prev = below


def _one_replication(sc: Scenario, cfg: SimulationConfig, rep: int):
    import numpy as np

    n = len(sc.servers)
    n_jobs = cfg.horizon_jobs
    arrivals = np.cumsum(_rng(cfg.seed, rep, _ARRIVALS).exponential(1.0 / cfg.lam, size=n_jobs))
    routed = _routed_jobs(cfg.p, n_jobs, _rng(cfg.seed, rep, _ROUTING))

    cutoff = int(cfg.warmup * n_jobs)
    window = arrivals[-1] - (arrivals[cutoff] if cutoff > 0 else 0.0)

    sums = np.zeros((4, n))  # per server: latency, sojourn and busy time, jobs kept
    raw: list[tuple[int, int, float, float]] = []

    for k, (s, idx) in enumerate(zip(sc.servers, routed)):
        if idx.size == 0:
            continue
        t_in = arrivals[idx] + 0.5 * s.d
        service = _service_times(s, idx.size, _rng(cfg.seed, rep, _SERVICE_BASE + k))
        # Lindley recursion: depart_i = C_i + max_{j<=i} (t_j - C_{j-1})
        csum = np.cumsum(service)
        depart = csum + np.maximum.accumulate(t_in - (csum - service))
        sojourn = depart - t_in
        latency = sojourn + s.d

        kept = slice(int(np.searchsorted(idx, cutoff)), None)  # the jobs from the cutoff on
        sums[:, k] = (latency[kept].sum(), sojourn[kept].sum(), service[kept].sum(),
                      idx[kept].size)
        if cfg.raw_samples_path is not None:
            for j, d_t, l_t in zip(idx[kept], depart[kept] + 0.5 * s.d, latency[kept]):
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

    return sums, window


def _mean_ci(values: np.ndarray) -> tuple[float, float]:
    """Mean and 95% confidence half-width across replications, NaN-aware."""
    import numpy as np

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
    import numpy as np

    n = len(sc.servers)
    if len(cfg.p) != n:
        raise DomainError(f"routing vector has {len(cfg.p)} entries for {n} servers")
    overloaded = any(q * cfg.lam >= s.mu for q, s in zip(cfg.p, sc.servers))

    reps = cfg.replications
    # one row per replication; a column per server, then the aggregate over all servers
    lat, soj, util, kept, rate = np.empty((5, reps, n + 1))
    servers = np.append(np.ones(n), n)  # servers behind each column
    for r in range(reps):
        sums, window = _one_replication(sc, cfg, r)
        lat_sum, soj_sum, busy, count = np.append(sums, sums.sum(axis=1, keepdims=True), axis=1)
        with np.errstate(invalid="ignore"):  # a server that kept no job gives 0/0 = NaN
            lat[r] = lat_sum / count
            soj[r] = soj_sum / count
        util[r] = busy / (servers * window)
        kept[r] = count
        rate[r] = count / window

    columns = []
    for k in range(n + 1):
        mean_k, ci_k = _mean_ci(lat[:, k])
        columns.append(
            ServerStats(
                mean_latency=mean_k,
                mean_sojourn=_mean_ci(soj[:, k])[0],
                utilization=float(util[:, k].mean()),
                completed=int(kept[:, k].sum()),
                arrival_rate=float(rate[:, k].mean()),
                latency_ci=ci_k,
            )
        )
    *per_server, total = columns
    return SimulationReport(
        per_server=tuple(per_server),
        mean_latency=total.mean_latency,
        mean_sojourn=total.mean_sojourn,
        utilization=total.utilization,
        completed=total.completed,
        latency_ci=total.latency_ci,
        overloaded=overloaded,
        replications=reps,
    )


def validate(
    sc: Scenario,
    lam: float,
    kind: AllocationKind,
    cfg: SimSettings | None = None,
    tolerance: float = _VALIDATE_TOLERANCE,
) -> ValidationRecord:
    """Compare a solver's predicted latency against a simulation of its split."""
    solver = solve_optimal if kind is AllocationKind.OPTIMAL else solve_nep
    result = solver(sc, lam)
    cfg = SimulationConfig(**{**asdict(cfg or SimSettings()), "lam": lam, "p": tuple(result.p)})
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
