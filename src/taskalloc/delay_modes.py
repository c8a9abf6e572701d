"""What-if transforms for the fixed path delays.

These support studies of how much the fixed delays matter: solve the
allocation on a modified copy of the scenario and, where it makes
sense, evaluate the resulting split back on the true one.

with_delays      solve and evaluate on the scenario as given.
ignoring_delays  solve with every d set to 0, then evaluate the split
                 with the true delays (the delays exist, the allocator
                 just pretended otherwise).
without_delays   set every d to 0 for both solving and evaluation.
uniform_delays   replace every d with the arithmetic mean delay.

The transforms stay out of the solver itself: a mode is just a pair of
scenarios (one to solve on, one to evaluate on).  The mean delay is
summed in a plain loop from 0.0, not with the builtin ``sum``, which
compensates float additions from Python 3.12 on: the loop gives the same
bits on every supported version.  A split is priced from the solver's
floats (``solver._split``), so a moded solve imports no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .latency import GenericLatencyModel, QueueModel, ServerSpec
from .poa import PoaPoint
from .solver import (
    AllocationKind,
    AllocationResult,
    Scenario,
    _split,
    average_latency,
    solve_nep,
    solve_optimal,
)


class DelayMode(str, Enum):
    WITH_DELAYS = "with_delays"
    IGNORING_DELAYS = "ignoring_delays"
    WITHOUT_DELAYS = "without_delays"
    UNIFORM_DELAYS = "uniform_delays"


def _with_delay(s: ServerSpec, new_d: float) -> ServerSpec:
    if s.model is QueueModel.GENERIC:
        # shift the whole curve so its fixed part becomes new_d
        offset = new_d - s.d
        fn = s.generic.latency_fn
        generic = GenericLatencyModel(lambda x: fn(x) + offset, s.generic.derivative_fn)
        return replace(s, d=new_d, generic=generic)
    return replace(s, d=new_d)


def transformed_scenarios(sc: Scenario, mode: DelayMode) -> tuple[Scenario, Scenario]:
    """The (solve-on, evaluate-on) scenario pair for a delay mode."""
    if mode is DelayMode.WITH_DELAYS:
        return sc, sc
    if mode is DelayMode.UNIFORM_DELAYS:
        total_d = 0.0
        for s in sc.servers:
            total_d += s.d
        mean_d = total_d / len(sc.servers)
        uniform = Scenario(tuple(_with_delay(s, mean_d) for s in sc.servers), sc.config)
        return uniform, uniform
    zeroed = Scenario(tuple(_with_delay(s, 0.0) for s in sc.servers), sc.config)
    return zeroed, (sc if mode is DelayMode.IGNORING_DELAYS else zeroed)


@dataclass(frozen=True)
class ModedAllocation:
    """A solve under a delay mode plus its latency on the evaluation scenario."""

    mode: DelayMode
    result: AllocationResult
    evaluated_latency: float


def solve_under_mode(sc: Scenario, lam: float, kind: AllocationKind, mode: DelayMode) -> ModedAllocation:
    solve_sc, eval_sc = transformed_scenarios(sc, mode)
    solver = solve_optimal if kind is AllocationKind.OPTIMAL else solve_nep
    result = solver(solve_sc, lam)
    return ModedAllocation(
        mode=mode,
        result=result,
        evaluated_latency=average_latency(eval_sc, _split(result), lam),
    )


def poa_under_mode(sc: Scenario, lam: float, mode: DelayMode) -> PoaPoint:
    """Price of anarchy with both splits solved under the mode.

    Both the equilibrium and the optimum come from the mode's solving
    scenario and both are priced on the evaluation scenario, so the
    ratio shows what the mode's modeling error does to the comparison.
    """
    opt = solve_under_mode(sc, lam, AllocationKind.OPTIMAL, mode)
    nep = solve_under_mode(sc, lam, AllocationKind.NEP, mode)
    return PoaPoint(
        lam=lam,
        rho=lam / sc.total_mu,
        eta=nep.evaluated_latency / opt.evaluated_latency,
        alpha=nep.evaluated_latency,
        u_opt=opt.evaluated_latency,
        j_opt=opt.result.active_count,
        j_nep=nep.result.active_count,
    )
