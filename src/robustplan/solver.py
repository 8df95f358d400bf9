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

The exact path's LP always admits feasible points (eta is free), and its
value is finite exactly when the ambiguity set is nonempty; an unbounded
solve therefore reports AmbiguitySetEmpty. It carries the offset negated,
as nu = -eta; eta is free, so the negation only swaps its two split columns.

The exchange loop solves the LP dual of the (b, lambda, eta) program over
its working set, with lambda and eta boxed: a program over the adversary's
point masses, with n + 2 rows and one column per (working point, utility
piece). Its row duals are the plan. A new point adds columns, which leaves
the previous round's optimal basis primal feasible, so every round after
the first reoptimizes with a few primal steps (Dantzig & Wolfe, Oper. Res.
8(1), 1960; Hettich & Kortanek, SIAM Review 35(3), 1993: the exchange
method is column generation on this side).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AmbiguitySetEmpty,
    ConvergenceFailure,
    NumericalFailure,
    ValidationError,
    check_count,
    finite_real,
)
from .forecast import DiscreteDistribution, ForecastSet, outcome_grid
from .simplex import EQ, GE, LE, OPTIMAL, UNBOUNDED, Basis, LinearProgram, LpResult, _log_debug, solve_lp
from .utility import Utility

#: Box applied to the dual variables inside the exchange loop. The finite
#: working-set relaxation of an empty ambiguity set is unbounded, so the box
#: keeps every intermediate LP solvable; a multiplier pressed against it after
#: the violation search converges is the emptiness signal. On the
#: distribution side the boxes are the costs of the elastic columns.
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
        check_count("initial_grid_points", self.initial_grid_points, 1)
        if not (finite_real(self.violation_tolerance) and self.violation_tolerance > 0):
            raise ValidationError(
                "violation_tolerance", f"must be finite and positive, got {self.violation_tolerance}"
            )
        check_count("max_rounds", self.max_rounds, 1)
        check_count("search_grid_points", self.search_grid_points, 2)


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


def _dual_lp(
    fs: ForecastSet, u: Utility, G: np.ndarray, xs: np.ndarray, decision: tuple[float, float]
) -> LinearProgram:
    """The dual LP restricted to the outcome points xs.

    Variables are (b, lambda_1..lambda_n, eta) with b in the closed interval
    ``decision``; a fixed decision is the pair (b, b). ``G`` holds the
    g-vector at each point as a column. Each point contributes one row per
    utility piece via the hypograph trick: J(x, b) >= -(...) iff every affine
    piece is. Rows are point-major, piece-minor.

    The last column is nu = -eta (column of -1, cost +1), free.
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
    upper = np.full(n + 2, np.inf)
    lower[0], upper[0] = decision
    lower[-1] = -np.inf

    return LinearProgram(
        objective=objective,
        matrix=matrix,
        senses=(GE,) * rhs.size,
        rhs=rhs,
        lower=lower,
        upper=upper,
        sense="maximize",
    )


def _planning_solution(result: LpResult) -> PlanningSolution:
    """The plan a solved ``_dual_lp`` gives; raises when it has none."""
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
        return _planning_solution(solve_lp(_dual_lp(fs, u, *_cell_rows(fs), decision)))
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
    fs: ForecastSet, u: Utility, sol: PlanningSolution, grid: np.ndarray, grid_values: np.ndarray
) -> tuple[float, np.ndarray, float]:
    """Most violated point of the pointwise dual constraint at the iterate, with its g-vector and residual.

    The points searched are ``grid``, whose g-vectors ``grid_values`` holds,
    and the utility's kinks at b*. A tied minimum goes to the lowest point.
    The two blocks of g-vectors are priced apart, so the grid's is never
    copied.
    """
    kinks = np.array(u.outcome_kinks(sol.b_star, fs.domain.lower, fs.domain.upper))
    kink_values = fs.values(kinks)
    xs = np.concatenate([grid, kinks])
    priced = np.concatenate([sol.lambda_star @ grid_values, sol.lambda_star @ kink_values])
    residual = u.values_at(xs, sol.b_star) + sol.eta_star + priced
    tied = np.flatnonzero(residual == residual.min())
    worst = int(tied[np.argmin(xs[tied])])
    g = grid_values[:, worst] if worst < grid.size else kink_values[:, worst - grid.size]
    return float(xs[worst]), g, float(residual[worst])


def _distribution_lp(
    fs: ForecastSet, u: Utility, G: np.ndarray, xs: np.ndarray, decision: tuple[float, float]
) -> LinearProgram:
    """The LP dual of the (b, lambda, eta) program over the outcome points xs, with lambda and eta boxed.

    Its variables, all >= 0, are n + 4 fixed columns (v_1..v_n, w+, w-, s+,
    s-) and then a mass mu_jk for each point xs[j] and utility piece k,
    point-major, piece-minor; ``G`` holds the g-vector at each point as a
    column:

        minimize  sum mu_jk (a_k + c_k x_j) + hi s+ - lo s-
                  + MULTIPLIER_BOX sum v + OFFSET_BOX (w+ + w-)
        s.t.      sum mu_jk g(x_j) - v <= eps   (one row per forecast)
                  sum mu - w+ + w- = 1          (total mass)
                  sum mu_jk d_k - s+ + s- = 0   (balance)

    The elastic columns v and w+- stand for the boxes lambda <=
    MULTIPLIER_BOX and |eta| <= OFFSET_BOX, and s+- for b in [lo, hi]
    (``decision``). The row duals are -lambda, -eta and -b.
    """
    n = G.shape[0]
    lo, hi = decision
    a, c, d = np.array(u.pieces).T
    fixed = n + 4
    matrix = np.zeros((n + 2, fixed + xs.size * a.size))
    matrix[:n, :n] = -np.eye(n)
    matrix[n:, n:fixed] = [[-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.0]]
    matrix[:n, fixed:] = np.repeat(G, a.size, axis=1)
    matrix[n, fixed:] = 1.0
    matrix[n + 1, fixed:] = np.tile(d, xs.size)
    objective = np.concatenate(
        [np.full(n, MULTIPLIER_BOX), [OFFSET_BOX, OFFSET_BOX, hi, -lo], (a + c * xs[:, None]).ravel()]
    )
    return LinearProgram(
        objective=objective,
        matrix=matrix,
        senses=(LE,) * n + (EQ, EQ),
        rhs=np.concatenate([fs.bounds, [1.0, 0.0]]),
        lower=np.zeros(objective.size),
        upper=np.full(objective.size, np.inf),
        sense="minimize",
    )


def _elastic_start(bounds: np.ndarray, columns: int) -> Basis:
    """A primal feasible basis of ``_distribution_lp`` with ``columns`` variables, so its first solve skips phase 1.

    That LP's standard form is its variables, one column each, then a slack
    or surplus column per forecast row, then an artificial column per
    forecast row with a negative bound (a row the standard form negates)
    and per equation. Each forecast row is basic on its slack, at eps >= 0,
    or on its elastic column, at v = -eps > 0; the mass row on w- = 1 and
    the balance row on s- = 0. An elastic column is thus basic only where
    no masses meet a bound yet, and it leaves at the first tie, being of
    lower index than every mass. A cold phase 1 can instead leave one basic
    at zero, which prices its forecast at MULTIPLIER_BOX.
    """
    n = bounds.size
    negative = bounds < 0
    basis = np.concatenate([np.where(negative, np.arange(n), columns + np.arange(n)), [n + 1, n + 3]])
    return Basis(basis, np.zeros(columns + n + np.count_nonzero(negative) + 2, dtype=bool))


def _exchange_solution(result: LpResult, bounds: np.ndarray, decision: tuple[float, float]) -> PlanningSolution:
    """The plan a solved ``_distribution_lp`` gives: its row duals, each clipped to its box."""
    if result.status != OPTIMAL:
        # The elastic columns make every round feasible, and reasonable
        # utilities keep it bounded; reaching this is a numerical breakdown.
        raise NumericalFailure(f"dual subproblem unexpectedly {result.status}")
    n = bounds.size
    # Adding 0.0 turns the -0.0 that negating a zero gives into 0.0.
    lambda_star = np.clip(-result.duals[:n], 0.0, MULTIPLIER_BOX) + 0.0
    eta_star = float(np.clip(-result.duals[n], -OFFSET_BOX, OFFSET_BOX)) + 0.0
    return PlanningSolution(
        b_star=np.clip(-result.duals[n + 1], *decision),
        lambda_star=lambda_star,
        eta_star=eta_star,
        objective=-bounds @ lambda_star - eta_star,
    )


def _exchange(
    fs: ForecastSet, u: Utility, cfg: ExchangeConfig, decision: tuple[float, float]
) -> PlanningSolution:
    """Cutting-plane loop for the semi-infinite dual constraint, run as column generation.

    Solves ``_distribution_lp`` over a growing working set of outcome
    points, adding the most violated point each round until the dense-grid
    violation search comes back within tolerance. The first working set is
    the outcome grid with the utility's kinks at both decision bounds and
    their midpoint. The search grid's g-vectors are evaluated once.

    A new point's columns go after the last ones, so every round after the
    first starts from the previous round's optimal basis with the new
    columns nonbasic at zero. That basis stays primal feasible, and the
    simplex reoptimizes it with primal steps, about one per round, instead
    of solving the grown LP from scratch.
    """
    lo, hi = decision
    kinks = [x for b in (lo, 0.5 * (lo + hi), hi) for x in u.outcome_kinks(b, fs.domain.lower, fs.domain.upper)]
    working = outcome_grid(fs, cfg.initial_grid_points, kinks)
    G = fs.values(working)
    grid = outcome_grid(fs, cfg.search_grid_points)
    grid_values = fs.values(grid)
    bounds, pieces = fs.bounds, len(u.pieces)

    sol: PlanningSolution | None = None
    violation = np.inf
    start = None
    for round_number in range(1, cfg.max_rounds + 1):
        lp = _distribution_lp(fs, u, G, working, decision)
        result = solve_lp(lp, start=_elastic_start(bounds, lp.objective.size) if start is None else start)
        sol = _exchange_solution(result, bounds, decision)
        x_worst, g_worst, residual = _violation_search(fs, u, sol, grid, grid_values)
        violation = max(0.0, -residual)
        _log_debug("exchange round %d: %d working points, violation %.3e", round_number, working.size, violation)
        if violation <= cfg.violation_tolerance:
            if np.any(sol.lambda_star >= MULTIPLIER_BOX - _BOX_MARGIN) or abs(sol.eta_star) >= OFFSET_BOX - _BOX_MARGIN:
                raise AmbiguitySetEmpty(
                    "dual variables diverged: no distribution satisfies every forecast bound"
                )
            return replace(sol, max_violation=violation)
        if x_worst in working:
            start = result.basis
        else:
            # Every variable is one standard-form column, so the structural block ends after the last one.
            start = result.basis.with_inserted_columns(lp.objective.size, pieces)
            working = np.append(working, x_worst)
            G = np.column_stack([G, g_worst])

    raise ConvergenceFailure(
        f"exchange loop still violated by {violation:.3e} after {cfg.max_rounds} rounds",
        solution=sol,
        residual=violation,
    )


def sweep(
    fs: ForecastSet, u: Utility, grid_size: int, *, cfg: ExchangeConfig | None = None
) -> list[tuple[float, float]]:
    """Worst-case expected utility across a uniform grid of decisions.

    Returns grid_size (b, value) pairs covering both decision bounds, each
    value the one ``worst_case_value`` finds at that b. On indicator-only
    sets b enters the exact LP only through its right-hand side, so the cell
    rows are built once and each point's solve starts from the previous
    point's optimal basis, which stays optimal across a run of points. Past
    the end of such a run it is still dual feasible, and dual steps
    reoptimize it; where a row's sign flips in the standard form, the point
    is solved cold. Generic sets run the exchange loop at every point.
    """
    check_count("grid_size", grid_size, 2)
    lo, hi = u.decision_bounds
    grid = [float(b) for b in np.linspace(lo, hi, grid_size)]
    if not fs.all_indicators():
        return [(b, worst_case_value(fs, u, b, cfg=cfg)[0]) for b in grid]
    G, xs = _cell_rows(fs)
    pairs, start = [], None
    for b in grid:
        result = solve_lp(_dual_lp(fs, u, G, xs, (b, b)), start=start)
        pairs.append((b, _planning_solution(result).objective))
        start = result.basis
    return pairs


def true_expected(truth: DiscreteDistribution, u: Utility, b: float) -> float:
    """Expected utility of decision b under a known outcome distribution."""
    return float(truth.probabilities @ u.values_at(truth.locations, b))
