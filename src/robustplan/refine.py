"""Iterative forecast refinement driven by dual prices.

Each round solves the robust problem, asks an external oracle to tighten the
forecast with the largest multiplier (walking down the ranking when the
oracle declines), and repeats. Tightening the bound with multiplier lambda_j
by an amount d is guaranteed to raise the robust objective by at least
lambda_j * d, so the objective trace is nondecreasing by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import AmbiguitySetEmpty, ContractViolation, ValidationError
from .forecast import DiscreteDistribution, ForecastSet
from .sensitivity import sensitivities
from .solver import ExchangeConfig, solve_forecast_set
from .utility import Utility

MAX_ITERATIONS = "max_iterations"
NO_REFINABLE_FORECAST = "no_refinable_forecast"
IMPROVEMENT_BELOW_TOLERANCE = "improvement_below_tolerance"

#: Multipliers at or below this are treated as zero: tightening such a
#: forecast carries no guaranteed improvement, so the oracle is never asked.
MIN_SENSITIVITY = 1e-8


class RefinementOracle(Protocol):
    """External procedure that can tighten one forecast bound on request."""

    def refine(self, forecast_index: int, current_bound: float) -> float | None:
        """New bound <= current_bound, or None when this forecast is exhausted."""
        ...


@dataclass(frozen=True)
class ClampedStepOracle:
    """Oracle that walks a bound toward its true value in fixed steps.

    Each request moves the bound down by ``step``, clamped so it never gets
    closer than ``margin`` to the true expectation under ``truth``; once the
    bound is within margin (plus slop) of the truth it declines further
    requests. The truth therefore satisfies every constraint at every stage.
    """

    forecast_set: ForecastSet
    truth: DiscreteDistribution
    step: float
    margin: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValidationError("step", f"must be finite and > 0, got {self.step}")
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise ValidationError("margin", f"must be finite and >= 0, got {self.margin}")

    def refine(self, forecast_index: int, current_bound: float) -> float | None:
        fn = self.forecast_set.forecasts[forecast_index].function
        floor = self.truth.expectation(fn) + self.margin
        if current_bound <= floor + 1e-12:
            return None
        return max(current_bound - self.step, floor)


@dataclass(frozen=True)
class RefinementRecord:
    """One iterate: the bounds in force and the solve they produced.

    ``refined_index`` names the forecast whose tightening produced this
    iterate; it is None on the initial record.
    """

    iteration: int
    refined_index: int | None
    bounds: np.ndarray
    objective: float
    b_star: float
    lambda_star: np.ndarray


@dataclass(frozen=True)
class RefinementTrace:
    """The full refinement history plus why it stopped.

    ``failed_refinement`` records an (index, attempted_bound) pair whose
    application left no feasible distribution; the bounds were rolled back
    and the loop stopped, so the trace's records never include it.
    """

    iterations: tuple[RefinementRecord, ...]
    termination_reason: str
    failed_refinement: tuple[int, float] | None = None


def refine_loop(
    fs: ForecastSet,
    u: Utility,
    oracle: RefinementOracle,
    max_iterations: int = 50,
    improvement_tolerance: float = 1e-6,
    cfg: ExchangeConfig | None = None,
) -> RefinementTrace:
    """Run sensitivity-ranked refinement until the oracle or budget runs out.

    Per iteration: solve, then walk the ``sensitivities`` ranking (multiplier
    descending, ties to the lowest index) and ask the oracle to tighten the
    best-priced forecast with multiplier above MIN_SENSITIVITY, walking down
    the ranking when it declines. Stops on max_iterations, when no refinable
    forecast remains, or when the last accepted refinement improved the
    objective by less than improvement_tolerance. An oracle answer above the
    current bound raises ContractViolation; an answer that empties the
    ambiguity set is rolled back and recorded on the trace.
    """
    if max_iterations < 1:
        raise ValidationError("max_iterations", f"must be >= 1, got {max_iterations}")
    if improvement_tolerance < 0:
        raise ValidationError(
            "improvement_tolerance", f"must be >= 0, got {improvement_tolerance}"
        )

    sol = solve_forecast_set(fs, u, cfg)
    records = [
        RefinementRecord(0, None, fs.bounds, sol.objective, sol.b_star, sol.lambda_star)
    ]
    failed = None
    reason = MAX_ITERATIONS
    for k in range(1, max_iterations + 1):
        chosen = None
        for entry in sensitivities(sol, fs).entries:
            if entry.value <= MIN_SENSITIVITY:
                continue
            j = entry.forecast_index
            current = fs.forecasts[j].bound
            answer = oracle.refine(j, current)
            if answer is None:
                continue
            if answer > current + 1e-12:
                raise ContractViolation(
                    f"oracle raised forecast {j} from {current} to {answer}"
                )
            chosen = (j, float(answer))
            break
        if chosen is None:
            reason = NO_REFINABLE_FORECAST
            break

        j, new_bound = chosen
        bounds = fs.bounds
        bounds[j] = new_bound
        candidate = fs.with_bounds(bounds)
        try:
            new_sol = solve_forecast_set(candidate, u, cfg)
        except AmbiguitySetEmpty:
            failed = (j, new_bound)
            reason = NO_REFINABLE_FORECAST
            break

        improvement = new_sol.objective - sol.objective
        fs, sol = candidate, new_sol
        records.append(
            RefinementRecord(k, j, fs.bounds, sol.objective, sol.b_star, sol.lambda_star)
        )
        if improvement < improvement_tolerance:
            reason = IMPROVEMENT_BELOW_TOLERANCE
            break

    return RefinementTrace(
        iterations=tuple(records), termination_reason=reason, failed_refinement=failed
    )
