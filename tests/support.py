"""Shared helpers for building test instances, and a reference pivot loop."""

import logging
import re

import numpy as np

from robustplan import simplex, solver
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


def scaled(u: Utility, factor: float) -> Utility:
    """The utility u with every piece coefficient multiplied by factor."""
    return Utility(
        pieces=tuple((factor * a, factor * c, factor * d) for a, c, d in u.pieces),
        decision_bounds=u.decision_bounds,
    )


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


def moment_window_doc(mean_hi, mean_lo, exponent, moment_hi):
    """Scenario document: E[x] in [mean_lo, mean_hi] and E[x^exponent] <= moment_hi on [0, 1]."""
    return {
        "domain": {"lower": 0.0, "upper": 1.0},
        "decision": {"lower": 0.0, "upper": 1.0},
        "utility": {"type": "market_bidding", "p": 1.0, "q": 1.6},
        "forecasts": {
            "type": "generic",
            "constraints": [
                {"g": {"type": "affine", "offset": 0.0, "slope": 1.0}, "epsilon": mean_hi},
                {"g": {"type": "affine", "offset": 0.0, "slope": -1.0}, "epsilon": -mean_lo},
                {"g": {"type": "power", "exponent": exponent}, "epsilon": moment_hi},
            ],
        },
    }


#: ``moment_window_doc`` arguments of moment sets that once ended in
#: NumericalFailure: two moment-bank instances, and E[x^30] <= 0.01 (a point
#: mass at 0.45 meets every bound with room, so it is strictly feasible).
MOMENT_WINDOWS = {
    "mean-x4": (0.8418217781325632, 0.7545851673688955, 4, 0.5044861846771284),
    "mean-x2": (0.2121404983089195, 0.16720264110684108, 2, 0.12382713669969554),
    "x30": (0.5, 0.4, 30, 0.01),
}


def reference_iterate(std, cost, basis, at_upper, pin_artificials, tally, warm=False):
    """``simplex._iterate`` as a from-scratch bounded-variable simplex: a freshly inverted basis per step.

    The pivot loop without a kept inverse, with the same pricing, bound
    flips, dual steps from a ``warm`` start, tie-breaking and tolerances; a
    drop-in for ``simplex._iterate`` (it only counts steps in ``tally``). Every
    step inverts the basis matrix anew (with ``simplex._basis_inverse``, as
    ``_iterate``'s refactor steps do) and takes x_B, the duals, and the
    entering direction or a dual step's leaving row of B⁻¹ from that inverse.
    """
    A, b, lower, upper, artificial = std.matrix, std.rhs, std.lower, std.upper, std.artificial
    m, n = A.shape
    pin_zero = artificial if pin_artificials else np.zeros_like(artificial)
    basis = np.array(basis, dtype=int)
    at_upper = at_upper.copy()
    bland = False
    stall = 0
    best_objective = np.inf
    dual = warm
    best_dual = -np.inf

    while True:
        if sum(tally.phase_pivots) + tally.dual_pivots >= simplex.MAX_PIVOTS:
            raise NumericalFailure(f"pivot cap of {simplex.MAX_PIVOTS} exhausted")
        nonbasic = np.ones(n, dtype=bool)
        nonbasic[basis] = False
        # Nonbasic columns away from zero: boxed ones at a nonzero bound.
        z_nonbasic = np.where(at_upper, upper, lower)
        off = np.flatnonzero(nonbasic & (z_nonbasic != 0.0))
        rhs = b - A[:, off] @ z_nonbasic[off] if off.size else b
        try:
            B_inv = simplex._basis_inverse(std, basis)
        except np.linalg.LinAlgError as exc:
            if dual:
                raise simplex._ColdStart from exc
            raise NumericalFailure(f"singular basis matrix: {exc}") from exc
        x_basic = B_inv @ rhs
        duals = cost[basis] @ B_inv

        objective = float(cost[basis] @ x_basic)
        if np.isfinite(upper).any():
            objective += float(cost[off] @ z_nonbasic[off])
        reduced = cost - A.T @ duals
        reduced[at_upper] = -reduced[at_upper]
        candidates = ~artificial
        candidates[basis] = False

        if dual:
            lower_basic, upper_basic = lower[basis], upper[basis]
            outside = np.flatnonzero(
                (x_basic < lower_basic - simplex.FEASIBILITY_TOL) | (x_basic > upper_basic + simplex.FEASIBILITY_TOL)
            )
            if outside.size:
                if (candidates & (reduced < -simplex.REDUCED_COST_TOL)).any():
                    raise simplex._ColdStart
                if objective > best_dual + 1e-12:
                    best_dual = objective
                    stall = 0
                else:
                    stall += 1
                    if stall >= simplex._DEGENERATE_STALL_LIMIT:
                        raise simplex._ColdStart
                excess = np.maximum(lower_basic - x_basic, x_basic - upper_basic)
                leave_pos = int(outside[np.argmax(excess[outside])])
                below = x_basic[leave_pos] < lower_basic[leave_pos]
                # How the leaving column moves back toward its bound as each
                # nonbasic column moves off its own bound.
                toward = B_inv[leave_pos] @ A
                toward[at_upper] = -toward[at_upper]
                if below:
                    toward = -toward
                eligible = np.flatnonzero(candidates & (toward > simplex._PIVOT_TOL))
                if eligible.size == 0:
                    raise simplex._ColdStart
                ratios = np.maximum(reduced[eligible], 0.0) / toward[eligible]
                entering = int(eligible[ratios <= ratios.min() + 1e-12][0])
                tally.dual_pivots += 1
                at_upper[basis[leave_pos]] = not below
                at_upper[entering] = False
                basis[leave_pos] = entering
                continue
            dual = False
            stall = 0

        if objective < best_objective - 1e-12:
            best_objective = objective
            stall = 0
            bland = False
        else:
            stall += 1
            if stall >= simplex._DEGENERATE_STALL_LIMIT:
                bland = True

        candidates &= reduced < -simplex.REDUCED_COST_TOL
        idx = np.where(candidates)[0]
        if idx.size == 0:
            return basis, at_upper, x_basic, duals

        if bland:
            entering = int(idx[0])
        else:
            entering = int(idx[reduced[idx] <= reduced[idx].min() + 1e-12][0])
        direction = B_inv @ A[:, entering]
        # Moving the entering column off its bound moves x_B by -theta * toward.
        toward = -direction if at_upper[entering] else direction

        lower_basic, upper_basic = lower[basis], upper[basis]
        falls = toward > simplex._PIVOT_TOL
        rises = (toward < -simplex._PIVOT_TOL) & np.isfinite(upper_basic)
        pinned_rows = pin_zero[basis] & (np.abs(direction) > simplex._PIVOT_TOL)
        ratios = np.full(m, np.inf)
        ratios[falls] = np.maximum(x_basic - lower_basic, 0.0)[falls] / toward[falls]
        ratios[rises] = np.maximum(upper_basic - x_basic, 0.0)[rises] / -toward[rises]
        ratios[pinned_rows] = 0.0
        theta = ratios.min(initial=np.inf)
        width = upper[entering] - lower[entering]
        if not np.isfinite(min(theta, width)):
            raise simplex._Unbounded

        tally.phase_pivots[int(pin_artificials)] += 1
        if width <= theta:
            at_upper[entering] = not at_upper[entering]
            continue
        tied = np.where(ratios <= theta + 1e-12)[0]
        leave_pos = min(tied, key=lambda r: (not pin_zero[basis[r]], basis[r]))
        at_upper[basis[leave_pos]] = rises[leave_pos]
        at_upper[entering] = False
        basis[leave_pos] = entering


def record_solves(monkeypatch, *modules):
    """Patch ``solve_lp`` in ``modules`` (default: the solver) to record each call; return the (lp, start) list."""
    calls = []

    def recording_solve_lp(lp, start=None):
        calls.append((lp, start))
        return simplex.solve_lp(lp, start=start)

    for module in modules or (solver,):
        monkeypatch.setattr(module, "solve_lp", recording_solve_lp)
    return calls


#: ``solve_lp``'s DEBUG line, every field.
LOG_LINE = re.compile(
    r"solve_lp: standard form (\d+) x (\d+), pivots (\d+) \+ (\d+) \(phase 1 \+ 2\), (\d+) dual pivots, "
    r"(\d+) bound flips, (\d+) refactorizations, start (none|used|dual|rejected)"
)


def log_fields(message):
    """The DEBUG line's counts as ints, then what became of the start."""
    *counts, start = LOG_LINE.fullmatch(message).groups()
    return (*map(int, counts), start)


def logged_solves(caplog, monkeypatch, *problem):
    """The LPs ``solve_forecast_set(*problem)`` solves, each with its start and the fields of its DEBUG line."""
    calls = record_solves(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="robustplan"):
        solver.solve_forecast_set(*problem)
    lines = [r for r in caplog.records if r.name == "robustplan" and r.getMessage().startswith("solve_lp:")]
    assert len(lines) == len(calls)
    return [(lp, start, log_fields(r.getMessage())) for (lp, start), r in zip(calls, lines)]


def solve_with_reference(problem, start=None):
    """``simplex.solve_lp`` run on ``reference_iterate`` instead of the kept-inverse loop."""
    kept, simplex._iterate = simplex._iterate, reference_iterate
    try:
        return simplex.solve_lp(problem, start=start)
    finally:
        simplex._iterate = kept


def assert_same_result(result, expected):
    """Same status, and the same solution and objective bytes."""
    assert result.status == expected.status
    assert (result.solution is None) == (expected.solution is None)
    if expected.solution is not None:
        assert result.solution.tobytes() == expected.solution.tobytes()
    assert np.float64(result.objective_value).tobytes() == np.float64(expected.objective_value).tobytes()


#: Pivots per phase, dual pivots and the start's outcome, from ``solve_lp``'s DEBUG line.
_PIVOT_FIELDS = re.compile(r"pivots (\d+) \+ (\d+) \(phase 1 \+ 2\), (\d+) dual pivots, .* start (\w+)")


def assert_same_pivoting(caplog, problem, start=None):
    """``solve_lp`` and ``solve_with_reference`` take the same pivots per phase and dual pivots, to the same bytes."""
    results, counts = [], []
    for solve in (simplex.solve_lp, solve_with_reference):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="robustplan"):
            results.append(solve(problem, start=start))
        [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve_lp:")]
        counts.append(_PIVOT_FIELDS.search(line).groups())
    assert_same_result(*results)
    assert counts[0] == counts[1]
