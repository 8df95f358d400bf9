"""Brute-force primal check path: discretize the distribution and solve directly.

Instead of dualizing, restrict the adversary to distributions supported on a
finite grid and minimize expected utility over the atom probabilities by LP.
With the grid augmented by every indicator endpoint, a just-inside probe for
each (standing in for the half-open boundary), and the utility's outcome
kinks, the discretization is exact for interval forecasts: the concave
piecewise-affine utility attains each cell's minimum at a grid point. This
module exists to verify the dual solver path and refinement traces, not to
replace them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmbiguitySetEmpty, NumericalFailure, ValidationError
from .forecast import (
    BOUNDARY_SHIFT,
    DiscreteDistribution,
    ForecastSet,
    IndicatorInterval,
    NegatedIndicatorInterval,
    outcome_grid,
)
from .simplex import EQ, INFEASIBLE, LE, OPTIMAL, LinearProgram, solve_lp
from .solver import ExchangeConfig, worst_case_value
from .utility import Utility


@dataclass(frozen=True)
class GridSpec:
    """Discretization: uniform base points, augmented by forecast.outcome_grid."""

    base_points: int = 512

    def __post_init__(self):
        if self.base_points < 2:
            raise ValidationError("base_points", f"must be >= 2, got {self.base_points}")


def brute_force_worst_case(
    fs: ForecastSet, u: Utility, b: float, grid: GridSpec | None = None
) -> tuple[float, DiscreteDistribution]:
    """Minimum expected utility over grid-supported feasible distributions.

    Returns the value and the minimizing distribution (atoms with zero
    probability dropped). Raises AmbiguitySetEmpty when no grid-supported
    distribution satisfies the forecasts.
    """
    grid = grid or GridSpec()
    b = u.check_decision(b)
    for i, fc in enumerate(fs.forecasts):
        fn = fc.function
        # The just-inside probe of an indicator must stay inside it.
        if isinstance(fn, (IndicatorInterval, NegatedIndicatorInterval)) and fn.hi - fn.lo <= BOUNDARY_SHIFT:
            raise ValidationError(
                f"constraints[{i}]",
                f"indicator width {fn.hi - fn.lo} must exceed the boundary probe shift {BOUNDARY_SHIFT}",
            )
    xs = outcome_grid(fs, grid.base_points, u.outcome_kinks(b, fs.domain.lower, fs.domain.upper))
    k = xs.size
    n = len(fs.forecasts)

    lp = LinearProgram(
        objective=u.values_at(xs, b),
        matrix=np.vstack([np.ones(k), fs.values(xs)]),
        senses=(EQ,) + (LE,) * n,
        rhs=np.concatenate([[1.0], fs.bounds]),
        lower=np.zeros(k),
        upper=np.full(k, np.inf),
        sense="minimize",
    )
    result = solve_lp(lp)
    if result.status == INFEASIBLE:
        raise AmbiguitySetEmpty("no grid-supported distribution satisfies every forecast bound")
    if result.status != OPTIMAL:
        # The feasible set is a face of the probability simplex, hence bounded.
        raise NumericalFailure(f"discretized worst-case LP unexpectedly {result.status}")

    keep = result.solution > 1e-12
    probs = result.solution[keep]
    worst = DiscreteDistribution(atoms=tuple(zip(xs[keep], probs / probs.sum())))
    return float(result.objective_value), worst


def brute_force_plan(
    fs: ForecastSet, u: Utility, b_grid: int, grid: GridSpec | None = None
) -> tuple[float, float]:
    """Maximize the discretized worst case over a uniform decision grid.

    Returns (decision, value); ties go to the lowest decision.
    """
    if b_grid < 2:
        raise ValidationError("b_grid", f"must be >= 2, got {b_grid}")
    lo, hi = u.decision_bounds
    best_b, best_value = None, -np.inf
    for b in np.linspace(lo, hi, b_grid):
        value, _ = brute_force_worst_case(fs, u, float(b), grid)
        if value > best_value:
            best_b, best_value = float(b), value
    return best_b, best_value


def duality_gap(
    fs: ForecastSet, u: Utility, b: float, grid: GridSpec | None = None, *, cfg: ExchangeConfig | None = None
) -> float:
    """|discretized primal minus dual solver| at a fixed decision.

    ``cfg`` configures the dual solver's exchange loop on generic forecasts.
    """
    primal, _ = brute_force_worst_case(fs, u, b, grid)
    dual, _, _ = worst_case_value(fs, u, b, cfg=cfg)
    return abs(primal - dual)
