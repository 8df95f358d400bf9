"""Robust planning against every distribution consistent with the forecasts.

The planner picks a decision b maximizing the worst-case expected utility
over the ambiguity set — all distributions F on the outcome domain with
E_F[g_i(x)] <= eps_i for every forecast i. Dualizing the inner minimization
turns the max-min into a single maximization over (b, lambda, eta):

    maximize  -sum_i lambda_i * eps_i - eta
    s.t.      J(x, b) + sum_i lambda_i * g_i(x) + eta >= 0   for all x,
              lambda >= 0,  b in [lo, hi].

Evaluating a fixed decision is the same program with lo = hi = b, so one
LP builder serves both the optimal plan and the value of a given plan.

The pointwise constraint is handled two ways. When every g_i is an interval
indicator, the domain splits into finitely many cells on which all g_i are
constant and J (concave, piecewise affine) attains its minimum at cell
endpoints, so the continuum of constraints collapses to an exact finite LP.
Otherwise an exchange loop grows a finite working set of points until the
most violated point found by a dense grid search is within tolerance.

The dual LP always admits feasible points (eta is free), and its value is
finite exactly when the ambiguity set is nonempty; an unbounded solve
therefore reports AmbiguitySetEmpty.

The LP carries the offset negated, as nu = -eta. The simplex starts every
column at its lower bound, so in the exchange loop's boxed LP it starts at
eta = +OFFSET_BOX, where every row holds: each row starts on its own slack
and the solve needs no phase 1. Carried as eta, the start would be
eta = -OFFSET_BOX, which violates every row, and phase 1 would spend about
one pivot per row just to reach a feasible point. The boxed columns keep
their own coordinates in the simplex, so the start only sets the slacks near
OFFSET_BOX; the first pivot brings nu into the basis and drops them to O(1),
and later basic values stay at the scale of the utility and the forecasts.
On the exact path eta is free and the negation only swaps its two split
columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AmbiguitySetEmpty,
    ConvergenceFailure,
    NumericalFailure,
    ValidationError,
)
from .forecast import DiscreteDistribution, ForecastSet, outcome_grid
from .simplex import GE, OPTIMAL, UNBOUNDED, LinearProgram, _log_debug, solve_lp
from .utility import Utility

#: Box applied to the dual variables inside the exchange loop. The finite
#: working-set relaxation of an empty ambiguity set is unbounded, so the box
#: keeps every intermediate LP solvable; a multiplier pressed against it after
#: the violation search converges is the emptiness signal.
MULTIPLIER_BOX = 1e6
OFFSET_BOX = 1e6
_BOX_MARGIN = 1e-3


@dataclass(frozen=True)
class PlanningSolution:
    """Optimal decision plus the dual certificate that prices each forecast.

    ``lambda_star`` is indexed like the ForecastSet that produced it (for
    prediction intervals: upper bounds first, then lower bounds, in interval
    order). ``objective`` equals ``-lambda_star @ bounds - eta_star``: the
    guaranteed worst-case expected utility of playing ``b_star``.
    ``max_violation`` reports the residual of the exchange loop's final
    violation search (None on the exact interval path).
    """

    b_star: float
    lambda_star: np.ndarray
    eta_star: float
    objective: float
    max_violation: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "b_star", float(self.b_star))
        object.__setattr__(self, "eta_star", float(self.eta_star))
        object.__setattr__(self, "objective", float(self.objective))
        object.__setattr__(self, "lambda_star", np.asarray(self.lambda_star, dtype=float).copy())


@dataclass(frozen=True)
class ExchangeConfig:
    """Knobs for the exchange loop on generic (non-indicator) forecasts."""

    initial_grid_points: int = 64
    violation_tolerance: float = 1e-7
    max_rounds: int = 100
    search_grid_points: int = 10_000

    def __post_init__(self):
        if self.initial_grid_points <= 0:
            raise ValidationError("initial_grid_points", f"must be positive, got {self.initial_grid_points}")
        if not (math.isfinite(self.violation_tolerance) and self.violation_tolerance > 0):
            raise ValidationError(
                "violation_tolerance", f"must be finite and positive, got {self.violation_tolerance}"
            )
        if self.max_rounds <= 0:
            raise ValidationError("max_rounds", f"must be positive, got {self.max_rounds}")
        if self.search_grid_points < 2:
            raise ValidationError("search_grid_points", f"must be >= 2, got {self.search_grid_points}")


def _cell_rows(fs: ForecastSet) -> tuple[np.ndarray, np.ndarray]:
    """Finite (G, xs) rows equivalent to the pointwise dual constraint.

    Valid when every forecast is an interval indicator: the indicator ends cut
    the domain into open cells on which all g_i are constant (their value at
    the cell's midpoint), and the concave piecewise-affine utility attains its
    minimum over a cell's closure at one of its two ends. So a cell gives a
    row at each of its ends, and each cut gives a row with its own g. At each
    cut the distinct rows among (left cell, the cut itself, right cell) are
    kept, in that order. Column j of G is the g-vector of the row at outcome
    xs[j].
    """
    lo, hi = fs.domain.lower, fs.domain.upper
    cuts = np.array(sorted({lo, hi, *(e for e in fs.indicator_endpoints() if lo < e < hi)}))
    values = fs.values(np.concatenate([cuts, (cuts[:-1] + cuts[1:]) / 2.0]))
    at_cut, in_cell = values[:, : cuts.size], values[:, cuts.size :]
    # The domain ends have a cell on one side only; the cut stands in for the
    # missing one and is dropped as a repeat.
    left = np.hstack([at_cut[:, :1], in_cell])
    right = np.hstack([in_cell, at_cut[:, -1:]])

    def differs(a, b):
        return np.any(a != b, axis=0)

    keep = np.column_stack(
        [np.ones(cuts.size, dtype=bool), differs(at_cut, left), differs(right, at_cut) & differs(right, left)]
    ).ravel()
    G = np.stack([left, at_cut, right], axis=2).reshape(values.shape[0], 3 * cuts.size)
    return G[:, keep], np.repeat(cuts, 3)[keep]


def _dual_lp_solution(
    fs: ForecastSet,
    u: Utility,
    G: np.ndarray,
    xs: np.ndarray,
    decision: tuple[float, float],
    boxed: bool,
) -> PlanningSolution:
    """Solve the dual LP restricted to the outcome points xs.

    Variables are (b, lambda_1..lambda_n, eta) with b in the closed interval
    ``decision``; a fixed decision is the pair (b, b). ``G`` holds the
    g-vector at each point as a column. Each point contributes one row per
    utility piece via the hypograph trick: J(x, b) >= -(...) iff every affine
    piece is. Rows are point-major, piece-minor.

    The last column is nu = -eta (column of -1, cost +1), so that when
    ``boxed`` the simplex's start at nu's lower bound, eta = +OFFSET_BOX,
    satisfies every row and no row needs an artificial. The box is symmetric,
    so it bounds eta as before.
    """
    n = G.shape[0]
    a, c, d = np.array(u.pieces).T
    matrix = np.empty((xs.size * a.size, n + 2))
    matrix[:, 0] = np.tile(d, xs.size)
    matrix[:, 1:-1] = np.repeat(G.T, a.size, axis=0)
    matrix[:, -1] = -1.0
    rhs = -(a + c * xs[:, None]).ravel()

    objective = np.zeros(n + 2)
    objective[1:-1] = -fs.bounds
    objective[-1] = 1.0
    lower = np.zeros(n + 2)
    upper = np.full(n + 2, MULTIPLIER_BOX if boxed else np.inf)
    lower[0], upper[0] = decision
    lower[-1], upper[-1] = (-OFFSET_BOX, OFFSET_BOX) if boxed else (-np.inf, np.inf)

    lp = LinearProgram(
        objective=objective,
        matrix=matrix,
        senses=(GE,) * rhs.size,
        rhs=rhs,
        lower=lower,
        upper=upper,
        sense="maximize",
    )
    result = solve_lp(lp)
    if result.status == UNBOUNDED:
        raise AmbiguitySetEmpty("no distribution satisfies every forecast bound")
    if result.status != OPTIMAL:
        # eta is free (or generously boxed), which makes every row satisfiable
        # for reasonable utilities; reaching this indicates a numerical breakdown.
        raise NumericalFailure(f"dual subproblem unexpectedly {result.status}")
    x = result.solution
    # Adding 0.0 turns the -0.0 that negating a zero gives into 0.0.
    return PlanningSolution(b_star=x[0], lambda_star=x[1:-1], eta_star=-x[-1] + 0.0, objective=result.objective_value)


def _solve(fs: ForecastSet, u: Utility, decision: tuple[float, float], cfg: ExchangeConfig) -> PlanningSolution:
    """The exact reduction for indicator-only sets, the exchange loop otherwise."""
    if fs.all_indicators():
        return _dual_lp_solution(fs, u, *_cell_rows(fs), decision, boxed=False)
    return _exchange(fs, u, cfg, decision)


def worst_case_value(
    fs: ForecastSet, u: Utility, b: float, *, cfg: ExchangeConfig | None = None
) -> tuple[float, np.ndarray, float]:
    """Worst-case expected utility of a fixed decision, with its dual prices.

    Returns (value, multipliers, offset): the tightest guaranteed expected
    utility over the ambiguity set, via the exact finite reduction when all
    forecasts are interval indicators and the exchange loop (with the given
    or default configuration) otherwise.
    """
    b = u.check_decision(b)
    sol = _solve(fs, u, (b, b), cfg or ExchangeConfig())
    return sol.objective, sol.lambda_star, sol.eta_star


def solve_forecast_set(fs: ForecastSet, u: Utility, cfg: ExchangeConfig | None = None) -> PlanningSolution:
    """Optimal robust decision for any forecast set.

    Dispatches to the exact interval reduction when possible, otherwise to
    the exchange loop with the given (or default) configuration. The returned
    multipliers are indexed like the forecast set (for prediction intervals
    converted by to_generic: upper bounds first, then lower bounds).
    """
    return _solve(fs, u, u.decision_bounds, cfg or ExchangeConfig())


def _violation_search(
    fs: ForecastSet, u: Utility, sol: PlanningSolution, cfg: ExchangeConfig
) -> tuple[float, float]:
    """Most violated point of the pointwise dual constraint at the iterate."""
    xs = outcome_grid(fs, cfg.search_grid_points, u.outcome_kinks(sol.b_star, fs.domain.lower, fs.domain.upper))
    residual = u.values_at(xs, sol.b_star) + sol.eta_star + sol.lambda_star @ fs.values(xs)
    worst = int(np.argmin(residual))
    return float(xs[worst]), float(residual[worst])


def _exchange(
    fs: ForecastSet, u: Utility, cfg: ExchangeConfig, decision: tuple[float, float]
) -> PlanningSolution:
    """Cutting-plane loop for the semi-infinite dual constraint.

    Solves the dual LP over a growing working set of outcome points, adding
    the most violated point each round until the dense-grid violation search
    comes back within tolerance. The first working set is the outcome grid
    with the utility's kinks at both decision bounds and their midpoint.
    """
    lo, hi = decision
    kinks = [x for b in (lo, 0.5 * (lo + hi), hi) for x in u.outcome_kinks(b, fs.domain.lower, fs.domain.upper)]
    working = outcome_grid(fs, cfg.initial_grid_points, kinks)

    sol: PlanningSolution | None = None
    violation = np.inf
    for round_number in range(1, cfg.max_rounds + 1):
        sol = _dual_lp_solution(fs, u, fs.values(working), working, decision, boxed=True)
        x_worst, residual = _violation_search(fs, u, sol, cfg)
        violation = max(0.0, -residual)
        _log_debug("exchange round %d: %d working points, violation %.3e", round_number, working.size, violation)
        if violation <= cfg.violation_tolerance:
            if np.any(sol.lambda_star >= MULTIPLIER_BOX - _BOX_MARGIN) or abs(sol.eta_star) >= OFFSET_BOX - _BOX_MARGIN:
                raise AmbiguitySetEmpty(
                    "dual variables diverged: no distribution satisfies every forecast bound"
                )
            return replace(sol, max_violation=violation)
        working = np.unique(np.append(working, x_worst))

    raise ConvergenceFailure(
        f"exchange loop still violated by {violation:.3e} after {cfg.max_rounds} rounds",
        solution=sol,
        residual=violation,
    )


def sweep(
    fs: ForecastSet, u: Utility, grid_size: int, *, cfg: ExchangeConfig | None = None
) -> list[tuple[float, float]]:
    """Worst-case expected utility across a uniform grid of decisions.

    Returns grid_size (b, value) pairs covering both decision bounds.
    """
    if grid_size < 2:
        raise ValidationError("grid_size", f"must be >= 2, got {grid_size}")
    lo, hi = u.decision_bounds
    return [(float(b), worst_case_value(fs, u, float(b), cfg=cfg)[0]) for b in np.linspace(lo, hi, grid_size)]


def true_expected(truth: DiscreteDistribution, u: Utility, b: float) -> float:
    """Expected utility of decision b under a known outcome distribution."""
    return float(truth.probabilities @ u.values_at(truth.locations, b))
