"""Shared helpers for building randomized test instances, and a reference pivot loop."""

import numpy as np

from robustplan import simplex
from robustplan.errors import NumericalFailure
from robustplan.forecast import (
    DiscreteDistribution,
    ForecastSet,
    PredictionIntervals,
    outcome_grid,
)
from robustplan.utility import Utility, market_bidding


def random_interval_instance(rng: np.random.Generator, m: int | None = None):
    """A valid prediction-interval instance on [0, 1] plus a compatible truth.

    Cell widths and true cell masses are Dirichlet draws mixed with a uniform
    floor so no cell is degenerate; the bounds are the true masses +/- a
    random spread, clipped to [0, 1]. The truth is placed at cell midpoints,
    which keeps every constraint strictly slack.
    """
    if m is None:
        m = int(rng.integers(2, 9))
    widths = 0.3 / m + 0.7 * rng.dirichlet(np.ones(m))
    breakpoints = np.concatenate([[0.0], np.cumsum(widths)])
    breakpoints[-1] = 1.0
    true_mass = 0.9 * rng.dirichlet(np.ones(m)) + 0.1 / m
    spread = rng.uniform(0.05, 0.3, size=m)
    pi = PredictionIntervals(
        breakpoints=tuple(breakpoints),
        lower_probs=tuple(np.clip(true_mass - spread, 0.0, None)),
        upper_probs=tuple(np.clip(true_mass + spread, None, 1.0)),
    )
    midpoints = (breakpoints[:-1] + breakpoints[1:]) / 2.0
    truth = DiscreteDistribution(atoms=tuple(zip(midpoints, true_mass)))
    return pi, truth


def random_market(rng: np.random.Generator):
    """A market utility with 0 < price < penalty <= 3."""
    price = float(rng.uniform(0.2, 2.5))
    penalty = float(rng.uniform(price + 0.1, 3.0))
    return market_bidding(price, penalty)


def dual_feasibility_margin(fs: ForecastSet, u: Utility, sol) -> float:
    """Smallest value of J(x, b*) + lambda*.g(x) + eta* over the checked points.

    Checked points: domain endpoints, indicator endpoints and their
    just-inside probes, and the utility's outcome kinks at the returned
    decision. Nonnegative (within tolerance) certifies dual feasibility.
    """
    xs = outcome_grid(fs, 2, u.outcome_kinks(sol.b_star, fs.domain.lower, fs.domain.upper))
    values = u.values_at(xs, sol.b_star) + sol.eta_star + sol.lambda_star @ fs.values(xs)
    return float(values.min())


def reference_iterate(A, b, cost, basis, artificial, pin_artificials, tally):
    """``simplex._iterate`` as a from-scratch revised simplex: three dense solves per pivot.

    The pivot loop the kept-inverse one replaced, with the same pricing,
    tie-breaking and tolerances; a drop-in for ``simplex._iterate`` (it only
    counts pivots in ``tally``).
    """
    m, _ = A.shape
    pin_zero = artificial if pin_artificials else np.zeros_like(artificial)
    basis = np.array(basis, dtype=int)
    bland = False
    stall = 0
    best_objective = np.inf

    while True:
        if sum(tally.phase_pivots) >= simplex.MAX_PIVOTS:
            raise NumericalFailure(f"pivot cap of {simplex.MAX_PIVOTS} exhausted")
        B = A[:, basis]
        try:
            x_basic = np.linalg.solve(B, b)
            duals = np.linalg.solve(B.T, cost[basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"singular basis matrix: {exc}") from exc

        objective = float(cost[basis] @ x_basic)
        if objective < best_objective - 1e-12:
            best_objective = objective
            stall = 0
            bland = False
        else:
            stall += 1
            if stall >= simplex._DEGENERATE_STALL_LIMIT:
                bland = True

        reduced = cost - A.T @ duals
        candidates = ~artificial
        candidates[basis] = False
        candidates &= reduced < -simplex.REDUCED_COST_TOL
        idx = np.where(candidates)[0]
        if idx.size == 0:
            return basis, x_basic

        entering = int(idx[0]) if bland else int(idx[np.argmin(reduced[idx])])
        direction = np.linalg.solve(B, A[:, entering])

        basic_vals = np.maximum(x_basic, 0.0)
        blocking = direction > simplex._PIVOT_TOL
        pinned_rows = pin_zero[basis] & (np.abs(direction) > simplex._PIVOT_TOL)
        ratios = np.full(m, np.inf)
        ratios[blocking] = basic_vals[blocking] / direction[blocking]
        ratios[pinned_rows] = 0.0
        theta = ratios.min(initial=np.inf)
        if not np.isfinite(theta):
            raise simplex._Unbounded

        tied = np.where(ratios <= theta + 1e-12)[0]
        leave_pos = min(tied, key=lambda r: (not pin_zero[basis[r]], basis[r]))
        basis[leave_pos] = entering
        tally.phase_pivots[int(pin_artificials)] += 1


def solve_with_reference(problem):
    """``simplex.solve_lp`` run on ``reference_iterate`` instead of the kept-inverse loop."""
    kept, simplex._iterate = simplex._iterate, reference_iterate
    try:
        return simplex.solve_lp(problem)
    finally:
        simplex._iterate = kept


def assert_same_result(result, expected):
    """Same status, and the same solution and objective bytes."""
    assert result.status == expected.status
    assert (result.solution is None) == (expected.solution is None)
    if expected.solution is not None:
        assert result.solution.tobytes() == expected.solution.tobytes()
    assert np.float64(result.objective_value).tobytes() == np.float64(expected.objective_value).tobytes()
