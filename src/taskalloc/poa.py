"""Price of anarchy of selfish task allocation.

The price of anarchy eta(lam) = alpha / U(p*) compares the average
latency at the Nash equilibrium with the optimal average latency at the
same arrival rate.  It equals 1 while a single server is active, grows
as selfish traffic delays the activation of slower servers, and tends
to a closed-form limit as the system approaches saturation.  Between
consecutive equilibrium activation thresholds the curve has no interior
local maximum (it is quasi-convex on each segment), so its maximum over
all loads is attained either at one of those thresholds or in the
full-load limit, and the worst case is found by evaluating a finite
candidate set.  Quasi-convexity is checked, not proven: acceptance
criterion 6 and the worst-case dominance checks confirm it on sampled
scenarios.  The curve need not be convex on a segment; see
tests/test_poa.py::test_convexity_can_fail_between_activations for a
pinned counterexample.

A sweep over a grid of loads solves a closed-form scenario in one
lockstep pass (``solver.solve_lockstep``): the optimum and the
equilibrium at every load of the grid are the slots of one servers ×
slots array, and each slot takes the scalar solver's floating-point
steps, so each point is bit-identical to ``poa_at``.  Generic scenarios,
and the delay-mode sweeps of ``delay_modes.poa_under_mode``, are solved
one load at a time.

The full-load limit sums over servers in a plain loop from 0.0, not with
the builtin ``sum``, which compensates float additions from Python 3.12
on: the loop gives the same bits on every supported version.

numpy is imported at first use, by the grids and sweeps: ``poa_at`` and
``worst_case_poa`` run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, UnsupportedModelError
from .solver import (
    AllocationKind,
    Scenario,
    activation_thresholds,
    solve_lockstep,
    solve_nep,
    solve_optimal,
)

FULL_LOAD = "full-load limit"
GENERIC_LIMIT_RHO = 1.0 - 1e-6


@dataclass(frozen=True)
class PoaPoint:
    """Price of anarchy at one load; ``alpha`` is the equilibrium's mean latency."""

    lam: float
    rho: float
    eta: float
    alpha: float
    u_opt: float
    j_opt: int
    j_nep: int


@dataclass(frozen=True)
class PoaCurve:
    points: tuple[PoaPoint, ...]


@dataclass(frozen=True)
class PoaCandidate:
    """One worst-case candidate: a named location, its load, its eta.

    ``lam`` is None for the full-load limit of a closed-form scenario,
    where eta comes from the asymptotic expression rather than a solve.
    """

    location: str
    lam: float | None
    eta: float


@dataclass(frozen=True)
class WorstCaseResult:
    max: PoaCandidate
    candidates: tuple[PoaCandidate, ...]


def poa_at(sc: Scenario, lam: float) -> PoaPoint:
    """Price of anarchy at one arrival rate."""
    opt = solve_optimal(sc, lam)
    nep = solve_nep(sc, lam)
    return PoaPoint(
        lam=lam,
        rho=lam / sc.total_mu,
        eta=nep.mean_latency / opt.mean_latency,
        alpha=nep.multiplier,
        u_opt=opt.mean_latency,
        j_opt=opt.active_count,
        j_nep=nep.active_count,
    )


@dataclass(frozen=True)
class SweepSpec:
    """Either an explicit load grid or a log-spaced-in-(1-rho) recipe."""

    grid: tuple[float, ...] | None = None
    count: int = 400
    rho_min: float = 0.01
    rho_max: float = 0.999

    def __post_init__(self):
        # the checks of a scenario file's sweep section, so that every spec dumps to a valid file
        if self.grid is not None:
            grid = tuple(self.grid)
            object.__setattr__(self, "grid", grid)
            if (self.count, self.rho_min, self.rho_max) != (SweepSpec.count, SweepSpec.rho_min,
                                                             SweepSpec.rho_max):
                raise DomainError("a sweep grid excludes the count/rho settings")
            if not (grid and all(math.isfinite(lam) for lam in grid) and grid[0] > 0
                    and all(b > a for a, b in zip(grid, grid[1:]))):
                raise DomainError(f"grid must be finite, positive and strictly increasing, got {grid}")
        if isinstance(self.count, bool) or not isinstance(self.count, int) or self.count < 2:
            raise DomainError(f"sweep count must be an integer >= 2, got {self.count!r}")
        if not (0.0 < self.rho_min < self.rho_max < 1.0):
            raise DomainError(f"need 0 < rho_min < rho_max < 1, got {self.rho_min}, {self.rho_max}")


def default_grid(sc: Scenario, count: int = SweepSpec.count, rho_lo: float = SweepSpec.rho_min,
                 rho_hi: float = SweepSpec.rho_max) -> np.ndarray:
    """Load grid log-spaced in 1 - rho, to resolve the near-saturation rise."""
    import numpy as np

    gap = np.logspace(math.log10(1.0 - rho_lo), math.log10(1.0 - rho_hi), count)
    return sc.total_mu * (1.0 - gap)


def poa_sweep(sc: Scenario, grid) -> PoaCurve:
    """Price of anarchy over a strictly increasing grid of arrival rates."""
    import numpy as np

    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a non-empty 1-d sequence of arrival rates")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    return PoaCurve(points=poa_points(sc, grid))


def poa_points(sc: Scenario, grid) -> tuple[PoaPoint, ...]:
    """``poa_at`` at each load of ``grid``, in grid order, bit for bit.

    A closed-form scenario is solved in one lockstep pass, both kinds over
    the whole grid at once.  The loads the lockstep solve cannot vouch for, and every
    load of a generic scenario, go through ``poa_at``, so an error is the
    one ``poa_at`` raises at the first load that fails.
    """
    lams = [float(lam) for lam in grid]
    if sc.has_generic:
        return tuple(poa_at(sc, lam) for lam in lams)
    import numpy as np

    loads = np.array(lams)
    (_, u_opt, j_opt, opt_ok), (alpha, u_nep, j_nep, nep_ok) = solve_lockstep(sc, loads)
    total_mu = sc.total_mu
    columns = zip(lams, (opt_ok & nep_ok).tolist(), alpha.tolist(), u_nep.tolist(),
                  u_opt.tolist(), j_opt.tolist(), j_nep.tolist())
    return tuple(
        PoaPoint(lam=lam, rho=lam / total_mu, eta=un / uo, alpha=a, u_opt=uo, j_opt=jo, j_nep=jn)
        if ok else poa_at(sc, lam)
        for lam, ok, a, un, uo, jo, jn in columns
    )


def asymptotic_poa(sc: Scenario) -> float:
    """Closed-form limit of eta as the load approaches total capacity.

    Valid for the closed-form queue family; with a_j = (1 + cv_j^2)/2 the
    limit is (sum_j a_j) * (sum_j mu_j) / (sum_j sqrt(mu_j a_j))^2, which
    for all-exponential servers reduces to n * sum mu / (sum sqrt(mu))^2.
    Where mu_j a_j overflows, the formula is evaluated with every a_j
    divided by the largest; a limit that is still not finite raises
    ``DomainError``.
    """
    if sc.has_generic:
        raise UnsupportedModelError("no closed-form full-load limit for generic latency models")
    limit = _full_load_limit(sc, 1.0)
    if not math.isfinite(limit):
        # homogeneous of degree 0 in a, so the scaling keeps the value
        limit = _full_load_limit(sc, max(s.a for s in sc.servers))
        if not math.isfinite(limit):
            raise DomainError(f"the full-load limit of eta is {limit}, not a finite number")
    return limit


def _full_load_limit(sc: Scenario, scale: float) -> float:
    """``asymptotic_poa``'s formula with every a_j divided by ``scale``."""
    a_sum = root_sum = 0.0
    for s in sc.servers:
        a = s.a / scale
        a_sum += a
        root_sum += math.sqrt(s.mu * a)
    return a_sum * sc.total_mu / (root_sum * root_sum)


def worst_case_poa(sc: Scenario) -> WorstCaseResult:
    """Maximum of eta over all loads, from the finite candidate set.

    Candidates are the equilibrium activation thresholds of servers
    2..n (servers tied with the first activate at load 0, where eta is
    1, and are skipped) plus the full-load limit.
    """
    table = activation_thresholds(sc, AllocationKind.NEP)
    candidates: list[PoaCandidate] = []
    seen: set[float] = set()
    for j in range(1, len(table.loads)):
        lam = min(table.loads[j], sc.load_cap)
        if lam <= 0.0 or lam in seen:
            continue
        seen.add(lam)
        point = poa_at(sc, lam)
        candidates.append(
            PoaCandidate(location=f"nep activation of server {j + 1}", lam=lam, eta=point.eta)
        )
    if sc.has_generic:
        lam = GENERIC_LIMIT_RHO * sc.total_mu
        candidates.append(PoaCandidate(location=FULL_LOAD, lam=lam, eta=poa_at(sc, lam).eta))
    else:
        candidates.append(PoaCandidate(location=FULL_LOAD, lam=None, eta=asymptotic_poa(sc)))
    best = max(candidates, key=lambda c: c.eta)
    return WorstCaseResult(max=best, candidates=tuple(candidates))
