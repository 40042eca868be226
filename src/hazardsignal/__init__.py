"""Signaling-equilibrium solver for road-hazard warning games.

Drivers choose caution or recklessness; reckless mass raises the accident
probability; accidents trigger warnings that only V2V-equipped cars can
see. This package computes the resulting signaling equilibria in closed
form, optimizes the warning display quality for accident frequency and
for social cost, and cross-validates everything against a brute-force
eps-equilibrium oracle.
"""

from .model import (
    AffineHazard,
    BehaviorProfile,
    ConstantReach,
    CurveError,
    HazardCurve,
    InputError,
    LinearReach,
    ModelError,
    ParameterError,
    PowerHazard,
    RangeError,
    SignalReachCurve,
    SignalingGame,
    TableHazard,
    validate_game,
    validate_profile,
)
from .consistency import (
    ConsistencyResult,
    DegenerateSignalError,
    GroupCosts,
    group_costs,
    posterior_no_signal,
    solve_profile_P,
)
from .equilibrium import (
    EquilibriumReport,
    LogicError,
    Region,
    classify_region,
    solve_equilibrium,
)
from .design import (
    DesignObjective,
    DesignResult,
    SweepRecord,
    optimal_beta_accidents,
    optimal_beta_social,
    single_peaked,
    sweep_beta,
    with_beta,
)
from .oracle import (
    BestResponsePath,
    ConditionCheck,
    ConditionStatus,
    EpsilonEquilibriumSet,
    best_response_dynamics,
    check_equilibrium_conditions,
    epsilon_equilibria,
)
from .scenario import (
    BetaSweep,
    Scenario,
    ScenarioError,
    format_curve,
    load_scenario,
    parse_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AffineHazard",
    "BehaviorProfile",
    "BestResponsePath",
    "BetaSweep",
    "ConditionCheck",
    "ConditionStatus",
    "ConsistencyResult",
    "ConstantReach",
    "CurveError",
    "DegenerateSignalError",
    "DesignObjective",
    "DesignResult",
    "EpsilonEquilibriumSet",
    "EquilibriumReport",
    "GroupCosts",
    "HazardCurve",
    "InputError",
    "LinearReach",
    "LogicError",
    "ModelError",
    "ParameterError",
    "PowerHazard",
    "RangeError",
    "Region",
    "Scenario",
    "ScenarioError",
    "SignalReachCurve",
    "SignalingGame",
    "SweepRecord",
    "TableHazard",
    "best_response_dynamics",
    "check_equilibrium_conditions",
    "classify_region",
    "epsilon_equilibria",
    "format_curve",
    "group_costs",
    "load_scenario",
    "optimal_beta_accidents",
    "optimal_beta_social",
    "parse_scenario",
    "posterior_no_signal",
    "single_peaked",
    "solve_equilibrium",
    "solve_profile_P",
    "sweep_beta",
    "validate_game",
    "validate_profile",
    "with_beta",
]
