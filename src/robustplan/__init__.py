"""Robust planning under probabilistic forecasts.

Forecasts are modeled as expectation constraints on the unknown distribution
of a scalar outcome; the package computes the decision that maximizes the
worst-case expected utility over every distribution consistent with the
forecasts, interprets the optimal multipliers as per-forecast sensitivities,
and drives an iterative refinement loop that asks an oracle to tighten the
most valuable forecast first.
"""

from .bruteforce import GridSpec, brute_force_plan, brute_force_scan, brute_force_worst_case, duality_gap
from .errors import (
    AmbiguitySetEmpty,
    ContractViolation,
    ConvergenceFailure,
    NumericalFailure,
    RobustPlanError,
    ValidationError,
)
from .forecast import (
    AffineFunction,
    DiscreteDistribution,
    Domain,
    Forecast,
    ForecastSet,
    IndicatorInterval,
    NegatedIndicatorInterval,
    NegatedPowerFunction,
    PowerFunction,
    PredictionIntervals,
    feasibility_ball_radius,
    strict_feasibility_slack,
    to_generic,
)
from .refine import (
    ClampedStepOracle,
    RefinementOracle,
    RefinementRecord,
    RefinementTrace,
    refine_loop,
)
from .scenario import Scenario, bundled_scenario_names, load_scenario, parse_scenario
from .sensitivity import (
    SensitivityEntry,
    SensitivityReport,
    lower_bound_after_change,
    sensitivities,
)
from .simplex import LinearProgram, LpResult, solve_lp
from .solver import (
    ExchangeConfig,
    PlanningSolution,
    solve_forecast_set,
    sweep,
    true_expected,
    worst_case_value,
)
from .utility import Utility, market_bidding

__version__ = "0.1.0"

__all__ = [
    "AffineFunction",
    "AmbiguitySetEmpty",
    "ClampedStepOracle",
    "ContractViolation",
    "ConvergenceFailure",
    "DiscreteDistribution",
    "Domain",
    "ExchangeConfig",
    "Forecast",
    "ForecastSet",
    "GridSpec",
    "IndicatorInterval",
    "LinearProgram",
    "LpResult",
    "NegatedIndicatorInterval",
    "NegatedPowerFunction",
    "NumericalFailure",
    "PlanningSolution",
    "PowerFunction",
    "PredictionIntervals",
    "RefinementOracle",
    "RefinementRecord",
    "RefinementTrace",
    "RobustPlanError",
    "Scenario",
    "SensitivityEntry",
    "SensitivityReport",
    "Utility",
    "ValidationError",
    "brute_force_plan",
    "brute_force_scan",
    "brute_force_worst_case",
    "bundled_scenario_names",
    "duality_gap",
    "feasibility_ball_radius",
    "lower_bound_after_change",
    "load_scenario",
    "market_bidding",
    "parse_scenario",
    "refine_loop",
    "sensitivities",
    "solve_forecast_set",
    "solve_lp",
    "strict_feasibility_slack",
    "sweep",
    "to_generic",
    "true_expected",
    "worst_case_value",
    "__version__",
]
