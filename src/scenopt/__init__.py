"""Scenario optimization with batched constraint discarding.

Modules:
  lp          deterministic LP solver with a lexicographic tie-break
  engine      scenario programs, support sets, cascaded and greedy removal
  bounds      violation-probability tail bounds and their inversion
  experiments seeded generators, Monte Carlo estimators, experiment runners
  cli         command-line interface
"""

from scenopt.lp import (
    LinearProgram,
    LpInputError,
    LpSolution,
    LpStatus,
    check_feasible,
    solve,
)
from scenopt.engine import (
    AssumptionViolated,
    CascadeError,
    CascadeTrace,
    DegeneracyDetected,
    GreedyTrace,
    InsufficientScenarios,
    RemovalMode,
    ScenarioProgram,
    StageRecord,
    StageSolveError,
    greedy_removal,
    is_nondegenerate,
    padding_set,
    run_cascade,
    support_set,
    verify_compression,
)
from scenopt.bounds import (
    BoundValue,
    EpsilonInversion,
    analytic_violation_cdf,
    binom_tail,
    bound_cascade,
    bound_classical,
    bound_compression,
    invert_epsilon,
    max_removable,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolated",
    "BoundValue",
    "CascadeError",
    "CascadeTrace",
    "DegeneracyDetected",
    "EpsilonInversion",
    "GreedyTrace",
    "InsufficientScenarios",
    "LinearProgram",
    "LpInputError",
    "LpSolution",
    "LpStatus",
    "RemovalMode",
    "ScenarioProgram",
    "StageRecord",
    "StageSolveError",
    "analytic_violation_cdf",
    "binom_tail",
    "bound_cascade",
    "bound_classical",
    "bound_compression",
    "check_feasible",
    "greedy_removal",
    "invert_epsilon",
    "is_nondegenerate",
    "max_removable",
    "padding_set",
    "run_cascade",
    "solve",
    "support_set",
    "verify_compression",
    "__version__",
]
