"""Brute-force reference solvers, for verification only.

Nothing here is fast or clever on purpose.  The grid search enumerates
the probability simplex at a fixed step and polishes the best point
with pairwise mass transfers; the equilibrium finder iterates damped
best responses until all loaded servers see the same latency.  Both are
kept independent of the closed-form solvers so the two can be compared
in tests and in the benchmark's checks.  Do not call them from
production paths: the grid is exponential in the number of servers.
Neither ``import taskalloc`` nor any command loads this module, and
scipy loads only when the polish first runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleLoadError
from .latency import QueueModel, latency
from .solver import Scenario


@dataclass(frozen=True)
class OracleConfig:
    grid_step: float = 0.02
    br_tolerance: float = 1e-10
    max_iters: int = 200_000

    def __post_init__(self):
        if not (0.0 < self.grid_step <= 0.5):
            raise ValueError(f"grid_step must be in (0, 0.5], got {self.grid_step}")
        if not (self.br_tolerance > 0.0):
            raise ValueError(f"br_tolerance must be > 0, got {self.br_tolerance}")


def _check_load(sc: Scenario, lam: float) -> None:
    if not (0.0 < lam <= sc.load_cap):
        raise InfeasibleLoadError(f"arrival rate {lam} outside (0, {sc.load_cap}]")


def _caps(sc: Scenario) -> np.ndarray:
    return np.array([s.mu * (1.0 - sc.config.eps_sat) for s in sc.servers])


def _u_of(sc: Scenario, lam: float):
    """U(p) as a plain function of the probability vector, +inf when overloaded."""
    caps = _caps(sc)

    def u(p: np.ndarray) -> float:
        x = p * lam
        if np.any(x > caps) or np.any(p < 0.0):
            return np.inf
        total = 0.0
        for q, s, xi in zip(p, sc.servers, x):
            if q > 0.0:
                total += q * latency(s, xi)
        return total

    return u


def _simplex_grid(n: int, k: int) -> np.ndarray:
    """All probability vectors with components that are multiples of 1/k."""
    if n == 1:
        return np.ones((1, 1))
    axes = np.meshgrid(*([np.arange(k + 1)] * (n - 1)), indexing="ij")
    counts = np.stack([a.ravel() for a in axes], axis=1)
    last = k - counts.sum(axis=1)
    keep = last >= 0
    counts = np.column_stack([counts[keep], last[keep]])
    return counts / float(k)


def _u_pool(sc: Scenario, lam: float, pool: np.ndarray) -> np.ndarray:
    """U(p) for a whole pool of probability vectors at once, +inf when overloaded."""
    caps = _caps(sc)
    values = np.zeros(len(pool))
    bad = np.zeros(len(pool), dtype=bool)
    for i, s in enumerate(sc.servers):
        x = pool[:, i] * lam
        bad |= x > caps[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            if s.model is QueueModel.GENERIC:
                lat = np.array([s.generic.latency_fn(min(xi, caps[i])) for xi in x])
            else:
                a = 0.5 * (1.0 + s.cv * s.cv)
                lat = s.d + (1.0 + a * x / (s.mu - x)) / s.mu
        loaded = pool[:, i] > 0.0
        values[loaded] += pool[loaded, i] * lat[loaded]
    values[bad] = np.inf
    return values


def _refine(sc: Scenario, lam: float, p: np.ndarray, window: float) -> np.ndarray:
    """Polish a simplex point with bounded pairwise mass transfers.

    Repeats full passes over server pairs until a pass improves U by
    less than a rounding-level fraction, so the result is limited by
    the latency curves rather than by the grid step.
    """
    # scipy costs ~1 s and ~70 MB to import and only this path needs it; the benchmark's
    # checks import this module for check_no_profitable_deviation alone
    from scipy.optimize import minimize_scalar

    u = _u_of(sc, lam)
    caps = _caps(sc)
    p = p.copy()
    best = u(p)
    n = len(p)
    for _ in range(80):
        before = best
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                hi = min(window, p[i], (caps[j] - p[j] * lam) / lam)
                if hi <= 0.0:
                    continue

                def along(t: float) -> float:
                    q = p.copy()
                    q[i] -= t
                    q[j] += t
                    return u(q)

                res = minimize_scalar(along, bounds=(0.0, hi), method="bounded",
                                      options={"xatol": 1e-13})
                if res.fun < best:
                    best = res.fun
                    p[i] -= res.x
                    p[j] += res.x
        if before - best <= 1e-14 * max(1.0, abs(best)):
            break
    return p


def brute_force_optimal(sc: Scenario, lam: float, cfg: OracleConfig = OracleConfig()) -> np.ndarray:
    """Minimize U(p) by simplex enumeration plus local polishing."""
    _check_load(sc, lam)
    n = len(sc.servers)
    k = max(1, round(1.0 / cfg.grid_step))
    grid = _simplex_grid(n, k)
    caps = _caps(sc)

    x = grid * lam
    feasible = np.all(x <= caps, axis=1)
    # the capacity-proportional split is always feasible; keep it as a seed
    prop = np.array([s.mu for s in sc.servers])
    prop = prop / prop.sum()
    pool = grid[feasible]
    pool = np.vstack([pool, prop]) if pool.size else prop[None, :]

    values = _u_pool(sc, lam, pool)
    start = pool[int(np.argmin(values))]
    return _refine(sc, lam, start, cfg.grid_step)


def _equalizing_mass(s_a, s_b, x_a: float, x_b: float, m_max: float) -> float:
    """Mass to move from server a to server b so their latencies meet.

    Returns m_max when even the full transfer leaves a slower than b.
    """
    if latency(s_a, x_a - m_max) - latency(s_b, x_b + m_max) > 0.0:
        return m_max
    lo, hi = 0.0, m_max
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if latency(s_a, x_a - mid) - latency(s_b, x_b + mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def best_response_nep(sc: Scenario, lam: float, cfg: OracleConfig = OracleConfig()) -> np.ndarray:
    """Find the equilibrium split by damped pairwise mass transfers.

    Each step takes the loaded server with the highest latency and moves
    half the mass that would equalize it with the currently fastest
    server.  Every such move strictly decreases the congestion potential
    sum_i integral of l_i over [0, x_i], whose unique minimizer is the
    equilibrium, so the iteration cannot cycle and the fixed point does
    not depend on the start.
    """
    _check_load(sc, lam)
    caps = _caps(sc)
    mu = np.array([s.mu for s in sc.servers])
    x = lam * mu / mu.sum()
    for _ in range(cfg.max_iters):
        lat = np.array([latency(s, min(xi, caps[i]))
                        for i, (s, xi) in enumerate(zip(sc.servers, x))])
        loaded = x > 0.0
        a = int(np.argmax(np.where(loaded, lat, -np.inf)))
        room = x < caps
        b = int(np.argmin(np.where(room, lat, np.inf)))
        if lat[a] - lat[b] <= cfg.br_tolerance:
            return x / lam

        m_max = min(x[a], caps[b] - x[b])
        m_star = _equalizing_mass(sc.servers[a], sc.servers[b], x[a], x[b], m_max)
        move = m_star if m_star >= m_max else 0.5 * m_star
        if x[a] - move < 1e-16 * lam:
            move = x[a]  # drain the dust, deactivating the server
        x[a] -= move
        x[b] += move
    raise ConvergenceError(
        f"best-response iteration did not settle below {cfg.br_tolerance} "
        f"within {cfg.max_iters} steps"
    )


def check_no_profitable_deviation(
    sc: Scenario,
    lam: float,
    p,
    delta: float | None = None,
    cfg: OracleConfig = OracleConfig(),
) -> bool:
    """True iff no small mass can lower its own latency by switching server.

    ``delta`` is the deviating arrival rate (default one millionth of
    the total); the move must beat the source latency by more than
    br_tolerance to count as profitable.
    """
    p = np.asarray(p, dtype=float)
    if delta is None:
        delta = 1e-6 * lam
    x = p * lam
    for a, s_a in enumerate(sc.servers):
        if p[a] <= 0.0:
            continue
        d_eff = min(delta, x[a])
        here = latency(s_a, x[a])
        for b, s_b in enumerate(sc.servers):
            if b == a:
                continue
            if x[b] + d_eff >= s_b.mu:
                continue
            if latency(s_b, x[b] + d_eff) < here - cfg.br_tolerance:
                return False
    return True
