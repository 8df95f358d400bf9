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


def tall_program(fs, u, G, xs, decision, boxes=(np.inf, np.inf)) -> simplex.LinearProgram:
    """The (b, lambda, nu = -eta) program over the points xs, one >= row per (point, piece), point-major.

    ``G`` holds the g-vector at each point as a column and b lies in
    ``decision``. ``boxes`` caps each lambda and |eta|; by default neither
    is capped, and the program is the LP dual of the exact path's. The cap
    on |eta| is two more rows on the free nu: as bounds it would shift nu
    by -OFFSET_BOX in the standard form, and the rows would lose the
    precision of the difference.
    """
    n = G.shape[0]
    a, c, d = np.array(u.pieces).T
    rows = [[dk, *G[:, j], -1.0] for j in range(xs.size) for dk in d]
    rhs = [-(ak + ck * x) for x in xs for ak, ck in zip(a, c)]
    multiplier_box, offset_box = boxes
    if offset_box < np.inf:
        rows += [[0.0] * (n + 1) + [1.0], [0.0] * (n + 1) + [-1.0]]
        rhs += [-offset_box, -offset_box]
    return simplex.LinearProgram(
        objective=np.concatenate([[0.0], -fs.bounds, [1.0]]),
        matrix=np.array(rows).reshape(len(rows), n + 2),
        senses=(simplex.GE,) * len(rows),
        rhs=np.array(rhs),
        lower=np.concatenate([[decision[0]], np.zeros(n), [-np.inf]]),
        upper=np.concatenate([[decision[1]], np.full(n, multiplier_box), [np.inf]]),
        sense="maximize",
    )


def reference_iterate(std, cost, basis, pin_artificials, tally, start=False):
    """``simplex._iterate`` as a from-scratch simplex: a freshly inverted basis per step.

    The pivot loop without a kept inverse, with the same pricing, start
    checks, tie-breaking and tolerances; a drop-in for ``simplex._iterate``
    (it only counts pivots in ``tally``). Every step inverts the basis
    matrix anew, as ``_iterate``'s refactor steps do, and takes x_B, the
    duals and the entering direction from that inverse.
    """
    A, b, artificial = std.matrix, std.rhs, std.artificial
    m = A.shape[0]
    pin_zero = artificial if pin_artificials else np.zeros_like(artificial)
    basis = np.array(basis, dtype=int)
    bland = False
    stall = 0
    best_objective = np.inf

    while True:
        if sum(tally.phase_pivots) >= simplex.MAX_PIVOTS:
            raise NumericalFailure(f"pivot cap of {simplex.MAX_PIVOTS} exhausted")
        try:
            B_inv = np.linalg.inv(A[:, basis])
        except np.linalg.LinAlgError as exc:
            if start:
                raise simplex._ColdStart from exc
            raise NumericalFailure(f"singular basis matrix: {exc}") from exc
        x_basic = B_inv @ b
        if start and (x_basic < -simplex.FEASIBILITY_TOL).any():
            raise simplex._ColdStart
        start = False
        duals = cost[basis] @ B_inv

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
        candidates = ~artificial & (reduced < -simplex.REDUCED_COST_TOL)
        candidates[basis] = False
        idx = np.where(candidates)[0]
        if idx.size == 0:
            return basis, x_basic, duals

        if bland:
            entering = int(idx[0])
        else:
            entering = int(idx[reduced[idx] <= reduced[idx].min() + 1e-12][0])
        direction = B_inv @ A[:, entering]

        falls = direction > simplex._PIVOT_TOL
        pinned_rows = pin_zero[basis] & (np.abs(direction) > simplex._PIVOT_TOL)
        ratios = np.full(m, np.inf)
        ratios[falls] = np.maximum(x_basic, 0.0)[falls] / direction[falls]
        ratios[pinned_rows] = 0.0
        theta = ratios.min(initial=np.inf)
        if theta == np.inf:
            raise simplex._Unbounded

        tally.phase_pivots[int(pin_artificials)] += 1
        tied = np.where(ratios <= theta + 1e-12)[0]
        leave_pos = min(tied, key=lambda r: (not pin_zero[basis[r]], basis[r]))
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
    r"solve_lp: standard form (\d+) x (\d+), pivots (\d+) \+ (\d+) \(phase 1 \+ 2\), "
    r"(\d+) refactorizations, start (none|used|rejected)"
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


#: Pivots per phase and the start's outcome, from ``solve_lp``'s DEBUG line.
_PIVOT_FIELDS = re.compile(r"pivots (\d+) \+ (\d+) \(phase 1 \+ 2\), .* start (\w+)")


def assert_same_pivoting(caplog, problem, start=None):
    """``solve_lp`` and ``solve_with_reference`` take the same pivots per phase, to the same bytes."""
    results, counts = [], []
    for solve in (simplex.solve_lp, solve_with_reference):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="robustplan"):
            results.append(solve(problem, start=start))
        [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("solve_lp:")]
        counts.append(_PIVOT_FIELDS.search(line).groups())
    assert_same_result(*results)
    assert counts[0] == counts[1]
