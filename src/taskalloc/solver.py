"""Optimal and equilibrium task allocation across heterogeneous servers.

A scenario is a set of servers, each with its own latency curve, and a
total task arrival rate ``lam`` to be split among them.  Two splits are
computed:

* the social optimum, which minimizes the average latency
  U(p) = sum_j p_j * l_j(p_j lam) by equalizing the marginal cost
  h_j(x) = l_j(x) + x l_j'(x) across active servers (equalized-price
  method, EPM), and
* the Nash equilibrium (NEP), reached when every job selfishly picks the
  fastest server, which equalizes the latencies l_j themselves.

Both reduce to a one-dimensional root find for the common multiplier
(gamma for the optimum, alpha for the equilibrium): the sum of the
per-server inverse curves evaluated at the multiplier must add up to
lam.  Servers activate one by one as the load grows; the activation
thresholds are computed in closed form by inverting the curves of the
already-active servers at the next server's zero-load latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, InfeasibleLoadError, InversionError, SaturationError
from .latency import (
    DEFAULT_RESOLUTION,
    EPS_SAT,
    QueueModel,
    ServerSpec,
    invert_latency,
    invert_marginal,
    latency,
    latency_slope,
    marginal_cost,
    zero_load_latency,
)


class AllocationKind(str, Enum):
    OPTIMAL = "optimal"
    NEP = "nep"


@dataclass(frozen=True)
class SolverConfig:
    resolution: float = DEFAULT_RESOLUTION
    eps_sat: float = EPS_SAT

    def __post_init__(self):
        if not (0.0 < self.resolution < math.inf):
            raise ValueError(f"resolution must be finite and > 0, got {self.resolution}")
        if not (0.0 < self.eps_sat < 1.0):
            raise ValueError(f"eps_sat must be in (0, 1), got {self.eps_sat}")


@dataclass(frozen=True)
class Scenario:
    """A set of reachable servers plus numerical settings.

    Servers may be listed in any order; solver outputs are reported in
    this input order with the activation-order permutation attached.
    """

    servers: tuple[ServerSpec, ...]
    config: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        object.__setattr__(self, "servers", tuple(self.servers))
        if len(self.servers) == 0:
            raise ValueError("a scenario needs at least one server")

    @property
    def total_mu(self) -> float:
        return float(sum(s.mu for s in self.servers))

    @property
    def load_cap(self) -> float:
        """Largest admissible arrival rate, (1 - eps_sat) * total capacity."""
        return (1.0 - self.config.eps_sat) * self.total_mu

    def has_generic(self) -> bool:
        return any(s.model is QueueModel.GENERIC for s in self.servers)


@dataclass(frozen=True)
class ThresholdTable:
    """Arrival rates at which successive servers start receiving traffic.

    ``loads[k]`` is the threshold of the (k+1)-th server in activation
    order; ``order[k]`` is that server's index in the scenario's input
    order.  The first entry is always 0.
    """

    kind: AllocationKind
    order: tuple[int, ...]
    loads: tuple[float, ...]


@dataclass(frozen=True)
class AllocationResult:
    """A task split over the scenario's servers, in input order."""

    kind: AllocationKind
    p: np.ndarray
    multiplier: float
    active_count: int
    mean_latency: float
    order: tuple[int, ...]


def sort_servers(sc: Scenario) -> tuple[int, ...]:
    """Input-order indices sorted by ascending zero-load latency d + 1/mu.

    The sort is stable, so servers with equal zero-load latency keep
    their input order.
    """
    return tuple(sorted(range(len(sc.servers)), key=lambda i: zero_load_latency(sc.servers[i])))


def _invert_or_zero(s: ServerSpec, kind: AllocationKind, target: float, cfg: SolverConfig) -> float:
    """Rate at which the server's curve reaches ``target``, 0 if never below it."""
    if target <= zero_load_latency(s):
        return 0.0
    inv = invert_marginal if kind is AllocationKind.OPTIMAL else invert_latency
    try:
        return inv(s, target, cfg.resolution, cfg.eps_sat)
    except SaturationError:
        # only the generic numeric path saturates; any other error is a fault
        return s.mu * (1.0 - cfg.eps_sat)


def activation_thresholds(sc: Scenario, kind: AllocationKind) -> ThresholdTable:
    """Per-server activation loads in activation (sorted) order.

    The j-th server starts receiving traffic once the already-active
    servers, driven to the j-th server's zero-load latency, absorb the
    whole arrival rate: the threshold is the sum of their inverse curves
    at that target (inverse marginal cost for the optimum, inverse
    latency for the equilibrium).
    """
    order = sort_servers(sc)
    loads = [0.0]
    for j in range(1, len(order)):
        target = zero_load_latency(sc.servers[order[j]])
        total = 0.0
        for i in range(j):
            total += _invert_or_zero(sc.servers[order[i]], kind, target, sc.config)
        loads.append(total)
    return ThresholdTable(kind=kind, order=order, loads=tuple(loads))


def _inverse_slope(s: ServerSpec, kind: AllocationKind, x: float) -> float:
    """d(inverse curve)/d(target) at the point where the curve equals the target."""
    if kind is AllocationKind.NEP:
        return 1.0 / latency_slope(s, x)
    # h'(x) = 2 a mu / (mu - x)^3 for the closed-form queue family
    a = 0.5 * (1.0 + s.cv * s.cv)
    g = s.mu - x
    return g * g * g / (2.0 * a * s.mu)


def _solve(sc: Scenario, lam: float, kind: AllocationKind) -> AllocationResult:
    if not (lam > 0.0):
        raise InfeasibleLoadError(f"arrival rate must be > 0, got {lam}")
    if lam > sc.load_cap:
        raise InfeasibleLoadError(
            f"arrival rate {lam} above the admissible cap {sc.load_cap} "
            f"((1 - eps_sat) * total capacity)"
        )
    cfg = sc.config
    table = activation_thresholds(sc, kind)
    order = table.order
    servers = [sc.servers[i] for i in order]
    n = len(servers)

    # strict comparison: at a threshold the newly activating server still idles
    j = sum(1 for t in table.loads if t < lam)

    p_sorted = np.zeros(n)
    if j == 1:
        # single active server: no equation to solve
        x = lam
        s = servers[0]
        mult = marginal_cost(s, x) if kind is AllocationKind.OPTIMAL else latency(s, x)
        p_sorted[0] = 1.0
        mean = latency(s, x)
    else:
        active = servers[:j]

        def remaining(t: float) -> float:
            return sum(_invert_or_zero(s, kind, t, cfg) for s in active) - lam

        lo = zero_load_latency(active[-1]) + cfg.resolution
        if j < n:
            hi = zero_load_latency(servers[j])
        else:
            hi = 2.0 * zero_load_latency(active[-1])
            grow = 0
            while remaining(hi) < 0.0:
                hi *= 2.0
                grow += 1
                if grow > 200:
                    raise InversionError(
                        "could not bracket the multiplier; a generic latency model "
                        "may not be strictly increasing"
                    )
        f_lo = remaining(lo)
        if f_lo > 0.0:
            # the +resolution shift overshot an extremely sharp curve
            lo = zero_load_latency(active[-1])
        mult = _bisect_multiplier(remaining, lo, hi, cfg.resolution)
        if not sc.has_generic():
            # Newton polish to push the normalization residual to rounding level
            for _ in range(3):
                x_now = [_invert_or_zero(s, kind, mult, cfg) for s in active]
                slope = sum(
                    _inverse_slope(s, kind, x) for s, x in zip(active, x_now) if x > 0.0
                )
                if slope <= 0.0:
                    break
                step = remaining(mult) / slope
                nxt = mult - step
                if not (lo <= nxt <= hi):
                    break
                mult = nxt
        rates = [_invert_or_zero(s, kind, mult, cfg) for s in active]
        p_sorted[:j] = np.asarray(rates) / lam
        mean = float(sum(q * latency(s, r) for q, s, r in zip(p_sorted[:j], active, rates)))

    p = np.zeros(n)
    p[list(order)] = p_sorted
    return AllocationResult(
        kind=kind,
        p=p,
        multiplier=float(mult),
        active_count=j,
        mean_latency=float(mean),
        order=order,
    )


def _bisect_multiplier(residual, lo: float, hi: float, resolution: float) -> float:
    """Root of an increasing residual on [lo, hi], to absolute/ulp resolution."""
    if residual(hi) < 0.0:
        # can only happen through rounding at an exact threshold load
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if residual(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= resolution:
            return 0.5 * (lo + hi)


def solve_optimal(sc: Scenario, lam: float) -> AllocationResult:
    """Latency-minimizing split of arrival rate ``lam`` (equalized marginal cost)."""
    return _solve(sc, lam, AllocationKind.OPTIMAL)


def solve_nep(sc: Scenario, lam: float) -> AllocationResult:
    """Nash-equilibrium split of arrival rate ``lam`` (equalized latency)."""
    return _solve(sc, lam, AllocationKind.NEP)


def average_latency(sc: Scenario, p, lam: float) -> float:
    """Average latency U(p) = sum_i p_i * l_i(p_i * lam) of an arbitrary split."""
    p = np.asarray(p, dtype=float)
    if p.shape != (len(sc.servers),):
        raise DomainError(f"probability vector has shape {p.shape}, expected ({len(sc.servers)},)")
    if np.any(p < -1e-12) or abs(float(p.sum()) - 1.0) > 1e-9:
        raise DomainError("probability vector is not on the simplex")
    total = 0.0
    for q, s in zip(p, sc.servers):
        if q <= 0.0:
            continue
        x = q * lam
        if x >= s.mu:
            raise DomainError(f"rate {x} overloads a server with capacity {s.mu}")
        total += q * latency(s, x)
    return float(total)
