"""Optimal and equilibrium task allocation over latency-heterogeneous servers.

The package computes how a stream of tasks should be split across
servers that differ in fixed path delay and queueing behavior: the
socially optimal split, the Nash equilibrium reached by selfish task
routing, the activation thresholds at which servers start receiving
traffic, and the price of anarchy between the two regimes.  A
discrete-event simulator backs the analytic results, and a
scenario-file CLI drives batch studies.  The brute-force reference
solvers that check them live in ``taskalloc.oracle``, which this
package does not import.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    InfeasibleLoadError,
    InversionError,
    SaturationError,
    ScenarioParseError,
    TaskAllocError,
    UnsupportedModelError,
)
from .latency import (
    DEFAULT_RESOLUTION,
    EPS_SAT,
    GenericLatencyModel,
    QueueModel,
    ServerSpec,
    invert_latency,
    invert_marginal,
    latency,
    latency_slope,
    marginal_cost,
    zero_load_latency,
)
from .solver import (
    AllocationKind,
    AllocationResult,
    Scenario,
    SolverConfig,
    ThresholdTable,
    activation_thresholds,
    average_latency,
    solve_nep,
    solve_optimal,
)
from .poa import (
    PoaCandidate,
    PoaCurve,
    PoaPoint,
    SweepSpec,
    WorstCaseResult,
    asymptotic_poa,
    default_grid,
    poa_at,
    poa_sweep,
    worst_case_poa,
)
from .simulator import (
    SimSettings,
    SimulationConfig,
    SimulationReport,
    ServerStats,
    ValidationRecord,
    simulate,
    validate,
)
from .scenario_io import (
    FORMAT,
    ScenarioDocument,
    dump_scenario,
    load_scenario_file,
    parse_scenario,
)
from .delay_modes import (
    DelayMode,
    ModedAllocation,
    poa_under_mode,
    solve_under_mode,
    transformed_scenarios,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationKind",
    "AllocationResult",
    "ConvergenceError",
    "DEFAULT_RESOLUTION",
    "DelayMode",
    "DomainError",
    "EPS_SAT",
    "FORMAT",
    "GenericLatencyModel",
    "InfeasibleLoadError",
    "InversionError",
    "ModedAllocation",
    "PoaCandidate",
    "PoaCurve",
    "PoaPoint",
    "QueueModel",
    "SaturationError",
    "Scenario",
    "ScenarioDocument",
    "ScenarioParseError",
    "ServerSpec",
    "ServerStats",
    "SimSettings",
    "SimulationConfig",
    "SimulationReport",
    "SolverConfig",
    "SweepSpec",
    "TaskAllocError",
    "ThresholdTable",
    "UnsupportedModelError",
    "ValidationRecord",
    "WorstCaseResult",
    "activation_thresholds",
    "asymptotic_poa",
    "average_latency",
    "default_grid",
    "dump_scenario",
    "invert_latency",
    "invert_marginal",
    "latency",
    "latency_slope",
    "load_scenario_file",
    "marginal_cost",
    "parse_scenario",
    "poa_at",
    "poa_sweep",
    "poa_under_mode",
    "simulate",
    "solve_nep",
    "solve_optimal",
    "solve_under_mode",
    "transformed_scenarios",
    "validate",
    "worst_case_poa",
    "zero_load_latency",
]
