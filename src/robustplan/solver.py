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
endpoints, so the continuum of constraints collapses to an exact finite set
of points. Otherwise an exchange loop grows a finite working set of points
until the most violated point found by a dense grid search is within
tolerance.

Both paths solve one LP over their points: the LP dual of the (b, lambda,
eta) program, a program over the adversary's point masses with n + 2 rows
and one column per (point, utility piece). Its row duals are the plan. On
the exact path the points are exact, so the LP is feasible exactly when the
ambiguity set is nonempty, and a phase 1 that ends infeasible reports
AmbiguitySetEmpty. That LP leaves out each row whose bound is 0 and whose g
is <= 0 at every point, such as a lower probability of 0, because every
distribution on the points meets it. The exchange loop's working set is
not exact, so its LP adds elastic columns that box lambda and eta, and a
new point adds columns, which leaves the previous round's optimal basis
primal feasible: every round after the first reoptimizes with a few primal
steps (Dantzig & Wolfe, Oper. Res. 8(1), 1960; Hettich & Kortanek, SIAM
Review 35(3), 1993: the exchange method is column generation on this side).

A sweep of the decision grid over prediction intervals needs no LP. With
cells partitioning the domain and l_i <= P(cell i) <= u_i, the worst case
at a fixed b is a continuous knapsack: every cell starts at l_i and the
remaining mass goes to the cells with the smallest m_i(b), the minimum of
J(., b) over the cell's closure, each up to u_i. Its values equal those
``worst_case_value`` finds within 1e-12, not bit for bit.
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
from .forecast import (
    DiscreteDistribution,
    ForecastSet,
    IndicatorInterval,
    NegatedIndicatorInterval,
    outcome_grid,
)
from .simplex import (
    EQ,
    FEASIBILITY_TOL,
    INFEASIBLE,
    LE,
    OPTIMAL,
    Basis,
    LinearProgram,
    LpResult,
    _TIE_BAND,
    _log_debug,
    solve_lp,
)
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


def _solve(fs: ForecastSet, u: Utility, decision: tuple[float, float], cfg: ExchangeConfig) -> PlanningSolution:
    """The exact reduction for indicator-only sets, the exchange loop otherwise."""
    if not fs.all_indicators():
        return _exchange(fs, u, cfg, decision)
    G, xs = _cell_rows(fs)
    bounds = fs.bounds
    # A bound of 0 on a g that is <= 0 at every point holds for every distribution on them.
    kept = np.flatnonzero((bounds != 0.0) | np.any(G > 0.0, axis=1))
    result = solve_lp(_distribution_lp(bounds[kept], u, G[kept], xs, decision, elastic=False))
    if result.status == INFEASIBLE:
        raise AmbiguitySetEmpty("no distribution satisfies every forecast bound")
    # A row left out has multiplier 0 until the lift sets it.
    duals = np.zeros(bounds.size + 2)
    duals[np.append(kept, [bounds.size, bounds.size + 1])] = result.duals
    sol = _exchange_solution(replace(result, duals=duals), bounds, decision)
    return _lift_zero_bound_rows(sol, bounds, u, G, xs)


def _lift_zero_bound_rows(
    sol: PlanningSolution, bounds: np.ndarray, u: Utility, G: np.ndarray, xs: np.ndarray
) -> PlanningSolution:
    """``sol`` with the multiplier of each forecast whose bound is 0 raised to the top of its range.

    Such a row's multiplier does not enter the objective, so every value
    that keeps J(x, b*) + lambda.g(x) + eta >= 0 at the points xs is
    optimal. Each is raised, in row order, to the largest of them: on the
    dual face that is the one-sided rate at which the worst case falls as
    the bound tightens (Danskin), which is what ``refine`` ranks forecasts
    by. A row that no point limits keeps its value, and one whose top is
    within _TIE_BAND of zero gets 0. A prediction interval's lower
    probability of 0 thus gets (m_i - t)+, with m_i the minimum of J(., b*)
    over cell i and t = -eta the value of the marginal mass; a negative
    lower probability is a positive bound and keeps lambda = 0. A row that
    ``_solve`` left out of the LP comes in with lambda = 0.
    """
    lam = sol.lambda_star.copy()
    offset = u.values_at(xs, sol.b_star) + sol.eta_star
    for i in np.flatnonzero(bounds == 0.0):
        limits = G[i] < 0.0
        if limits.any():
            # Found without row i's own term, so that rows tied in exact arithmetic tie in floating point.
            lam[i] = 0.0
            top = np.min((offset[limits] + lam @ G[:, limits]) / -G[i, limits])
            # A top within _TIE_BAND of zero is the rounding of a tie J(x, b*) = -eta.
            lam[i] = top if top > _TIE_BAND else 0.0
    return replace(sol, lambda_star=lam)


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
    bounds: np.ndarray, u: Utility, G: np.ndarray, xs: np.ndarray, decision: tuple[float, float], elastic: bool = True
) -> LinearProgram:
    """The LP dual of the (b, lambda, eta) program over the outcome points xs.

    Its variables, all >= 0, are the fixed columns (v_1..v_n, w+, w-, s+,
    s-) and then a mass mu_jk for each point xs[j] and utility piece k,
    point-major, piece-minor; ``G`` holds the g-vector at each point as a
    column, and ``bounds`` the eps of each of its rows:

        minimize  sum mu_jk (a_k + c_k x_j) + hi s+ - lo s-
                  + MULTIPLIER_BOX sum v + OFFSET_BOX (w+ + w-)
        s.t.      sum mu_jk g(x_j) - v <= eps   (one row per forecast)
                  sum mu - w+ + w- = 1          (total mass)
                  sum mu_jk d_k - s+ + s- = 0   (balance)

    The elastic columns v and w+- stand for the boxes lambda <=
    MULTIPLIER_BOX and |eta| <= OFFSET_BOX, and s+- for b in [lo, hi]
    (``decision``). Without ``elastic`` they are left out, and the fixed
    columns are s+ and s-. The row duals are -lambda, -eta and -b.
    """
    n = G.shape[0]
    lo, hi = decision
    a, c, d = np.array(u.pieces).T
    fixed = n + 4 if elastic else 2
    matrix = np.zeros((n + 2, fixed + xs.size * a.size))
    if elastic:
        matrix[:n, :n] = -np.eye(n)
        matrix[n, n : n + 2] = [-1.0, 1.0]
    matrix[n + 1, fixed - 2 : fixed] = [-1.0, 1.0]
    matrix[:n, fixed:] = np.repeat(G, a.size, axis=1)
    matrix[n, fixed:] = 1.0
    matrix[n + 1, fixed:] = np.tile(d, xs.size)
    boxes = [np.full(n, MULTIPLIER_BOX), [OFFSET_BOX, OFFSET_BOX]] if elastic else []
    objective = np.concatenate([*boxes, [hi, -lo], (a + c * xs[:, None]).ravel()])
    return LinearProgram(
        objective=objective,
        matrix=matrix,
        senses=(LE,) * n + (EQ, EQ),
        rhs=np.concatenate([bounds, [1.0, 0.0]]),
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
    return Basis(np.concatenate([np.where(bounds < 0, np.arange(n), columns + np.arange(n)), [n + 1, n + 3]]))


def _exchange_solution(result: LpResult, bounds: np.ndarray, decision: tuple[float, float]) -> PlanningSolution:
    """The plan a solved ``_distribution_lp`` gives: its row duals, with lambda clipped to >= 0 and b to ``decision``."""
    if result.status != OPTIMAL:
        # The points keep every mass bounded for reasonable utilities, and the
        # elastic columns make every exchange round feasible; reaching this is
        # a numerical breakdown.
        raise NumericalFailure(f"dual subproblem unexpectedly {result.status}")
    n = bounds.size
    # Adding 0.0 turns the -0.0 that negating a zero gives into 0.0.
    lambda_star = np.maximum(-result.duals[:n], 0.0) + 0.0
    eta_star = float(-result.duals[n]) + 0.0
    return PlanningSolution(
        b_star=np.clip(-result.duals[n + 1], *decision) + 0.0,
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
        lp = _distribution_lp(bounds, u, G, working, decision)
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


def _partition(fs: ForecastSet) -> np.ndarray | None:
    """The breakpoints of the cells when ``fs`` is a prediction-interval partition, else None.

    That is: ``interval_count`` is some m >= 1, constraint i is an
    IndicatorInterval and constraint m + i a NegatedIndicatorInterval on
    the same (lo, hi, closed_right), the cells run contiguously from one
    domain end to the other, and only the last is closed on the right.
    """
    m = fs.interval_count
    if not m:
        return None
    ends = [fs.domain.lower]
    for i, (up, low) in enumerate(zip(fs.forecasts[:m], fs.forecasts[m:])):
        up, low = up.function, low.function
        if not (isinstance(up, IndicatorInterval) and isinstance(low, NegatedIndicatorInterval)):
            return None
        if (up.lo, up.hi, up.closed_right) != (low.lo, low.hi, low.closed_right):
            return None
        if up.lo != ends[-1] or up.closed_right != (i == m - 1):
            return None
        ends.append(up.hi)
    return np.array(ends) if ends[-1] == fs.domain.upper else None


def _interval_values(breakpoints: np.ndarray, bounds: np.ndarray, u: Utility, decisions: np.ndarray) -> np.ndarray:
    """Worst-case expected utility W(b) at every decision, for the cells between ``breakpoints``.

    ``bounds`` are the partition's forecast bounds: the m upper probabilities
    u, then the m lower ones negated. Row j of the matrix m holds each
    cell's minimum of J(., decisions[j]), its smaller value at the cell's
    two ends (J is concave). W = m.l plus the remaining mass 1 - sum(l)
    filled into the capacities u - l in increasing order of the row, ties by
    cell order. A cell's mass cannot go below zero, so a negative l counts
    as zero. Raises AmbiguitySetEmpty when no masses fit the bounds beyond
    FEASIBILITY_TOL.
    """
    m = breakpoints.size - 1
    upper, lower = bounds[:m], np.maximum(-bounds[m:], 0.0)
    tol = FEASIBILITY_TOL
    if lower.sum() > 1.0 + tol or upper.sum() < 1.0 - tol or np.any(upper < lower - tol):
        raise AmbiguitySetEmpty("no distribution satisfies every forecast bound")
    a, c, d = (coef[:, None, None] for coef in np.array(u.pieces).T)
    at_ends = np.min(a + c * breakpoints + d * decisions[:, None], axis=0)
    cell_min = np.minimum(at_ends[:, :-1], at_ends[:, 1:])
    order = np.argsort(cell_min, axis=1, kind="stable")
    room = np.maximum(upper - lower, 0.0)[order]
    before = np.zeros_like(room)
    np.cumsum(room[:, :-1], axis=1, out=before[:, 1:])
    fill = np.clip(1.0 - lower.sum() - before, 0.0, room)
    return cell_min @ lower + np.sum(np.take_along_axis(cell_min, order, axis=1) * fill, axis=1)


def sweep(
    fs: ForecastSet, u: Utility, grid_size: int, *, cfg: ExchangeConfig | None = None
) -> list[tuple[float, float]]:
    """Worst-case expected utility across a uniform grid of decisions.

    Returns grid_size (b, value) pairs covering both decision bounds, each
    value the one ``worst_case_value`` finds at that b. Prediction intervals
    (``_partition``) take the continuous knapsack at every point at once;
    their values agree with ``worst_case_value``'s within 1e-12, not bit for
    bit. Every other set calls ``worst_case_value`` at each point.
    """
    check_count("grid_size", grid_size, 2)
    lo, hi = u.decision_bounds
    decisions = np.linspace(lo, hi, grid_size)
    grid = decisions.tolist()
    breakpoints = _partition(fs)
    if breakpoints is not None:
        _log_debug("sweep: closed form, %d decisions, %d cells", grid_size, breakpoints.size - 1)
        return list(zip(grid, _interval_values(breakpoints, fs.bounds, u, decisions).tolist()))
    return [(b, worst_case_value(fs, u, b, cfg=cfg)[0]) for b in grid]


def true_expected(truth: DiscreteDistribution, u: Utility, b: float) -> float:
    """Expected utility of decision b under a known outcome distribution."""
    return float(truth.probabilities @ u.values_at(truth.locations, b))
