"""Brute-force primal check path: discretize the distribution and solve directly.

Instead of dualizing, restrict the adversary to distributions supported on a
finite grid and minimize expected utility over the atom probabilities by LP.
With the grid augmented by every indicator endpoint, a just-inside probe for
each (standing in for the half-open boundary), and the utility's outcome
kinks, the discretization is exact for interval forecasts: the concave
piecewise-affine utility attains each cell's minimum at a grid point. This
module exists to verify the dual solver path and refinement traces, not to
replace them; ``brute_force_scan`` checks many decisions on one grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguitySetEmpty, NumericalFailure, ValidationError, check_count
from .forecast import (
    BOUNDARY_SHIFT,
    DiscreteDistribution,
    ForecastSet,
    IndicatorInterval,
    NegatedIndicatorInterval,
    grid_constraints,
    outcome_grid,
)
from .simplex import EQ, INFEASIBLE, LE, OPTIMAL, LinearProgram, LpResult, solve_lp
from .solver import ExchangeConfig, worst_case_value
from .utility import Utility


@dataclass(frozen=True)
class GridSpec:
    """Discretization: uniform base points, augmented by forecast.outcome_grid."""

    base_points: int = 512

    def __post_init__(self):
        check_count("base_points", self.base_points, 2)


def _grid_solves(fs: ForecastSet, u: Utility, decisions, grid: GridSpec | None) -> tuple[np.ndarray, list[LpResult]]:
    """The outcome grid of ``decisions`` and each decision's optimal worst-case LP on it, in order.

    The grid holds every decision's outcome kinks, so only the objective
    J(., b) changes from one LP to the next: the last optimal basis stays
    primal feasible, and each LP after the first starts from it.
    """
    grid = grid or GridSpec()
    decisions = [u.check_decision(b) for b in decisions]
    for i, fc in enumerate(fs.forecasts):
        fn = fc.function
        # The just-inside probe of an indicator must stay inside it.
        if isinstance(fn, (IndicatorInterval, NegatedIndicatorInterval)) and fn.hi - fn.lo <= BOUNDARY_SHIFT:
            raise ValidationError(
                f"constraints[{i}]",
                f"indicator width {fn.hi - fn.lo} must exceed the boundary probe shift {BOUNDARY_SHIFT}",
            )
    lo, hi = fs.domain.lower, fs.domain.upper
    xs = outcome_grid(fs, grid.base_points, [x for b in decisions for x in u.outcome_kinks(b, lo, hi)])
    matrix, rhs = grid_constraints(fs, xs)
    results: list[LpResult] = []
    for b in decisions:
        lp = LinearProgram(
            objective=u.values_at(xs, b),
            matrix=matrix,
            senses=(EQ,) + (LE,) * len(fs.forecasts),
            rhs=rhs,
            lower=np.zeros(xs.size),
            upper=np.full(xs.size, np.inf),
            sense="minimize",
        )
        result = solve_lp(lp, start=results[-1].basis if results else None)
        if result.status == INFEASIBLE:
            raise AmbiguitySetEmpty("no grid-supported distribution satisfies every forecast bound")
        if result.status != OPTIMAL:
            # The feasible set is a face of the probability simplex, hence bounded.
            raise NumericalFailure(f"discretized worst-case LP unexpectedly {result.status}")
        results.append(result)
    return xs, results


def brute_force_worst_case(
    fs: ForecastSet, u: Utility, b: float, grid: GridSpec | None = None
) -> tuple[float, DiscreteDistribution]:
    """Minimum expected utility over grid-supported feasible distributions.

    Returns the value and the minimizing distribution (atoms with zero
    probability dropped). Raises AmbiguitySetEmpty when no grid-supported
    distribution satisfies the forecasts.
    """
    xs, [result] = _grid_solves(fs, u, [b], grid)
    keep = result.solution > 1e-12
    probs = result.solution[keep]
    worst = DiscreteDistribution(atoms=tuple(zip(xs[keep], probs / probs.sum())))
    return float(result.objective_value), worst


def brute_force_scan(fs: ForecastSet, u: Utility, decisions, grid: GridSpec | None = None) -> list[float]:
    """``brute_force_worst_case``'s value at each decision, on one grid holding every decision's kinks.

    So a value can only lie below the one on the decision's own grid (on
    prediction intervals it is equal, within rounding). Raises as
    ``brute_force_worst_case`` does.
    """
    return [float(result.objective_value) for result in _grid_solves(fs, u, decisions, grid)[1]]


def brute_force_plan(
    fs: ForecastSet, u: Utility, b_grid: int, grid: GridSpec | None = None
) -> tuple[float, float]:
    """Maximize the discretized worst case over a uniform decision grid, on one ``brute_force_scan``.

    Returns (decision, value); ties go to the lowest decision.
    """
    check_count("b_grid", b_grid, 2)
    decisions = np.linspace(*u.decision_bounds, b_grid).tolist()
    values = brute_force_scan(fs, u, decisions, grid)
    best = int(np.argmax(values))  # the first of tied maxima
    return decisions[best], values[best]


def duality_gap(
    fs: ForecastSet, u: Utility, b: float, grid: GridSpec | None = None, *, cfg: ExchangeConfig | None = None
) -> float:
    """|discretized primal minus dual solver| at a fixed decision.

    ``cfg`` configures the dual solver's exchange loop on generic forecasts.
    """
    primal, _ = brute_force_worst_case(fs, u, b, grid)
    dual, _, _ = worst_case_value(fs, u, b, cfg=cfg)
    return abs(primal - dual)
