"""Tests for the dense two-phase simplex core."""

import collections
import logging
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustplan import simplex
from robustplan.errors import NumericalFailure, ValidationError
from robustplan.forecast import to_generic
from robustplan.scenario import load_scenario, parse_scenario
from robustplan.simplex import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    Basis,
    LinearProgram,
    _standard_form,
    solve_lp,
)
from robustplan.solver import _cell_rows, _dual_lp, solve_forecast_set
from robustplan.utility import market_bidding
from support import (
    MOMENT_WINDOWS,
    assert_same_pivoting,
    assert_same_result,
    log_fields,
    logged_solves,
    moment_window_doc,
    random_interval_instance,
    solve_with_reference,
)

INF = np.inf


def make_lp(objective, matrix, senses, rhs, lower, upper, sense="maximize"):
    return LinearProgram(
        objective=np.asarray(objective, dtype=float),
        matrix=np.asarray(matrix, dtype=float).reshape(len(senses), len(objective)),
        senses=tuple(senses),
        rhs=np.asarray(rhs, dtype=float),
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        sense=sense,
    )


class TestBasicSolves:
    def test_single_variable_binding_bound(self):
        # maximize x s.t. x <= 1, x >= 0
        lp = make_lp([1.0], [[1.0]], [LE], [1.0], [0.0], [INF])
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.solution[0] == pytest.approx(1.0, abs=1e-9)
        assert res.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_contradictory_rows_infeasible(self):
        # x >= 1 and x <= 0 cannot both hold.
        lp = make_lp([1.0], [[1.0], [1.0]], [GE, LE], [1.0, 0.0], [0.0], [INF])
        assert solve_lp(lp).status == INFEASIBLE

    def test_two_variable_polygon_vertex(self):
        # maximize 3a + 2b s.t. a + b <= 4, a <= 2, a,b >= 0.
        # Vertex enumeration: (0,0)->0, (2,0)->6, (0,4)->8, (2,2)->10. Max is 10.
        lp = make_lp(
            [3.0, 2.0],
            [[1.0, 1.0], [1.0, 0.0]],
            [LE, LE],
            [4.0, 2.0],
            [0.0, 0.0],
            [INF, INF],
        )
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.solution == pytest.approx([2.0, 2.0], abs=1e-9)
        assert res.objective_value == pytest.approx(10.0, abs=1e-8)

    def test_unbounded_direction(self):
        lp = make_lp([1.0], np.zeros((0, 1)), [], [], [0.0], [INF])
        assert solve_lp(lp).status == UNBOUNDED

    def test_zero_rows_optimum(self):
        # minimize x s.t. x >= 1 as a bound, with no rows at all.
        lp = make_lp([1.0], np.zeros((0, 1)), [], [], [1.0], [INF], sense="minimize")
        assert _standard_form(lp).matrix.shape == (0, 1)
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.solution.tolist() == [1.0]
        assert res.objective_value == 1.0

    def test_equality_and_free_variable(self):
        # minimize 2x + y s.t. x + y = 3, y in [0, 1], x free.
        # Substitute x = 3 - y: objective 6 - y, minimized at y = 1 -> x = 2, value 5.
        lp = make_lp(
            [2.0, 1.0],
            [[1.0, 1.0]],
            [EQ],
            [3.0],
            [-INF, 0.0],
            [INF, 1.0],
            sense="minimize",
        )
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.solution == pytest.approx([2.0, 1.0], abs=1e-9)
        assert res.objective_value == pytest.approx(5.0, abs=1e-8)

    def test_upper_bounded_only_variable(self):
        # maximize x with x <= 2 and no lower bound, pinned by a harmless row.
        lp = make_lp([1.0], [[1.0]], [LE], [5.0], [-INF], [2.0])
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.solution[0] == pytest.approx(2.0, abs=1e-9)

    def test_greater_equal_rows_via_artificials(self):
        # minimize x + y s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0.
        # Vertices: (0, 6)->6, (4, 0)->4, intersection x+2y=4 & 3x+y=6 at
        # (8/5, 6/5) -> 14/5 = 2.8. Min is 2.8.
        lp = make_lp(
            [1.0, 1.0],
            [[1.0, 2.0], [3.0, 1.0]],
            [GE, GE],
            [4.0, 6.0],
            [0.0, 0.0],
            [INF, INF],
            sense="minimize",
        )
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.objective_value == pytest.approx(2.8, abs=1e-8)
        assert res.solution == pytest.approx([1.6, 1.2], abs=1e-8)

    def test_degenerate_cycling_instance_terminates(self):
        # A classic cycling trap for naive most-negative-cost pricing.
        # KKT-verified optimum: x = (0.04, 0, 1, 0), objective -0.05
        # (row-2 multiplier 1.5, upper-bound multiplier on x3 = 0.05,
        # reduced costs 15 and 10.5 on the zero variables).
        lp = make_lp(
            [-0.75, 150.0, -0.02, 6.0],
            [
                [0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0],
            ],
            [LE, LE, LE],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
            [INF, INF, INF, INF],
            sense="minimize",
        )
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.objective_value == pytest.approx(-0.05, abs=1e-8)

    def test_pricing_tie_goes_to_the_lowest_column(self):
        # The reduced costs -3 and -3 - 4.4e-16 lie within _TIE_BAND of each
        # other, so x0 enters first, and then x1 has no gain left to enter.
        lp = make_lp([3.0, 3.0 + 1e-15], [[1.0, 1.0]], [LE], [1.0], [0.0, 0.0], [INF, INF])
        assert solve_lp(lp).solution.tolist() == [1.0, 0.0]


class TestResultInvariants:
    def _polygon_lp(self):
        return make_lp(
            [3.0, 2.0],
            [[1.0, 1.0], [1.0, 0.0]],
            [LE, LE],
            [4.0, 2.0],
            [0.0, 0.0],
            [INF, INF],
        )

    def test_feasibility_within_tolerance(self):
        res = solve_lp(self._polygon_lp())
        a, b = res.solution
        assert a + b <= 4 + 1e-9
        assert a <= 2 + 1e-9
        assert a >= -1e-9 and b >= -1e-9

    def test_beats_random_feasible_points(self):
        res = solve_lp(self._polygon_lp())
        rng = np.random.default_rng(20240817)
        accepted = 0
        while accepted < 100:
            a, b = rng.uniform(0.0, 4.0, size=2)
            if a + b <= 4 and a <= 2:
                accepted += 1
                assert res.objective_value >= 3 * a + 2 * b - 1e-8

    def test_bit_for_bit_determinism(self):
        first = solve_lp(self._polygon_lp())
        second = solve_lp(self._polygon_lp())
        assert first.status == second.status
        assert np.array_equal(first.solution, second.solution)
        assert first.objective_value == second.objective_value


class TestFixedVariables:
    """A variable with equal bounds is a constant folded into the right-hand side."""

    def test_matches_substitution_by_hand(self):
        # maximize 3a + 2b + c s.t. a + b + c <= 4, a - c >= -1, with b fixed at 1.5:
        # by hand, maximize 3a + c s.t. a + c <= 2.5, a - c >= -1, plus 3.
        fixed = make_lp(
            [3.0, 2.0, 1.0],
            [[1.0, 1.0, 1.0], [1.0, 0.0, -1.0]],
            [LE, GE],
            [4.0, -1.0],
            [0.0, 1.5, 0.0],
            [INF, 1.5, 5.0],
        )
        by_hand = make_lp([3.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [LE, GE], [2.5, -1.0], [0.0, 0.0], [INF, 5.0])
        res, ref = solve_lp(fixed), solve_lp(by_hand)
        assert res.status == ref.status == OPTIMAL
        assert res.solution[1] == 1.5
        assert np.array_equal(res.solution[[0, 2]], ref.solution)
        assert res.objective_value == pytest.approx(ref.objective_value + 3.0, abs=1e-12)
        assert res.objective_value == pytest.approx(10.5, abs=1e-9)
        # No column and no zero-width bound row for the fixed variable.
        assert _standard_form(fixed).matrix.shape == _standard_form(by_hand).matrix.shape

    def test_all_columns_fixed(self):
        lp = make_lp([1.0, -2.0], [[1.0, 1.0], [1.0, -1.0]], [LE, GE], [3.0, -1.0], [1.0, 2.0], [1.0, 2.0])
        std = _standard_form(lp)
        assert std.var.size == 0  # no structural column
        assert std.matrix.shape == (2, 3)  # the <= slack, the >= surplus and its artificial
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.solution.tolist() == [1.0, 2.0]
        assert res.objective_value == -3.0

    def test_all_columns_fixed_infeasible(self):
        lp = make_lp([1.0, -2.0], [[1.0, 1.0]], [LE], [2.0], [1.0, 2.0], [1.0, 2.0])
        assert solve_lp(lp).status == INFEASIBLE


class TestStandardForm:
    """One LP with a column of each bound kind and a row of each sense, both rhs signs."""

    # x0 fixed at 2, x1 >= 1, x2 <= 3, x3 in [-1, 4], x4 free.
    LP = make_lp(
        [1.0, 2.0, 3.0, 4.0, 5.0],
        [
            [1.0, 1.0, 1.0, 1.0, 1.0],
            [0.0, 1.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 0.0, 1.0, 1.0],
            [0.0, 0.0, 0.0, -1.0, 0.0],
        ],
        [LE, GE, EQ, LE, GE, EQ, LE],
        # Minus the row at the base point (2, 1, 3, 0, 0): 14, 3, 2, -2, -4, -6, 0.5.
        # At the start, x3 at its lower bound -1: 15, 4, 2, -2, -4, -5, -0.5.
        [20.0, 4.0, 5.0, 0.0, -3.0, -6.0, 0.5],
        [2.0, 1.0, -INF, -1.0, -INF],
        [2.0, INF, 3.0, 4.0, INF],
    )

    def test_system(self):
        std = _standard_form(self.LP)
        # Structural columns z0..z4 stand for x1, -x2, x3, x4+, x4-. The boxed
        # x3 keeps its own coordinates and bounds, with no width row. Rows 3-6
        # are negative at the start and are negated, so row 3 (<=) gets a
        # surplus, row 4 (>=) a slack, and row 6 (<=), whose rhs is positive
        # until x3 starts at -1, a surplus.
        structural = [
            [1, -1, 1, 1, -1],
            [1, 0, 1, 0, 0],
            [0, -1, 0, 1, -1],
            [0, 0, 0, -1, 1],
            [-1, 0, 0, 1, -1],
            [0, 0, -1, -1, 1],
            [0, 0, 1, 0, 0],
        ]
        # Slack/surplus columns for rows 0, 1, 3, 4, 6; artificials for rows 1, 2, 3, 5, 6.
        slack = np.zeros((7, 5))
        slack[[0, 1, 3, 4, 6], range(5)] = [1, -1, -1, 1, -1]
        artificial = np.zeros((7, 5))
        artificial[[1, 2, 3, 5, 6], range(5)] = 1
        assert np.array_equal(std.matrix, np.hstack([structural, slack, artificial]))
        assert std.rhs.tolist() == [14.0, 3.0, 2.0, 2.0, 4.0, 6.0, -0.5]
        assert std.lower.tolist() == [0.0, 0.0, -1.0] + [0.0] * 12
        assert std.upper.tolist() == [INF, INF, 4.0] + [INF] * 12
        # Every starting basic value, with each nonbasic column at its lower bound, is >= 0.
        assert (std.rhs - std.matrix @ std.lower).tolist() == [15.0, 4.0, 2.0, 2.0, 4.0, 5.0, 0.5]
        assert std.basis.tolist() == [5, 10, 11, 12, 8, 13, 14]
        assert std.artificial.tolist() == [False] * 10 + [True] * 5
        assert std.unit_row.tolist() == [-1] * 5 + [0, 1, 3, 4, 6] + [1, 2, 3, 5, 6]
        # Maximize, so the cost of each structural column is -sign * c[var].
        assert std.cost.tolist() == [-2.0, 3.0, -4.0, -5.0, 5.0] + [0.0] * 10
        assert std.var.tolist() == [1, 2, 3, 4, 4]
        assert std.sign.tolist() == [1.0, -1.0, 1.0, 1.0, -1.0]
        assert std.row_sign.tolist() == [1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0]

    def test_undo(self):
        std = _standard_form(self.LP)
        z = np.concatenate([[0.5, 1.0, 2.0, 3.0, 1.0], np.full(10, 7.0)])
        assert std.original_point(z).tolist() == [2.0, 1.5, 2.0, 2.0, 2.0]

    def test_signed_zeros(self):
        # Slack and artificial columns hold +0.0 off their row, and only a
        # negative rhs is negated: a -0.0 rhs stays -0.0.
        std = _standard_form(self.LP)
        added = std.matrix[:, 5:]
        assert not np.signbit(added[added == 0]).any()
        zero_rhs = _standard_form(make_lp([1.0], [[1.0]], [GE], [-0.0], [0.0], [INF]))
        assert np.signbit(zero_rhs.rhs).tolist() == [True]


class TestValidation:
    def test_dimension_mismatch_is_validation_error(self):
        lp = LinearProgram(
            objective=np.array([1.0, 2.0]),
            matrix=np.array([[1.0, 0.0, 3.0]]),
            senses=(LE,),
            rhs=np.array([1.0]),
            lower=np.array([0.0, 0.0]),
            upper=np.array([INF, INF]),
        )
        with pytest.raises(ValidationError) as err:
            solve_lp(lp)
        assert "matrix" in str(err.value)

    @pytest.mark.parametrize("matrix", [np.array([1.0, 2.0]), np.array(1.0)])
    def test_non_2d_matrix_rejected(self, matrix):
        lp = LinearProgram(
            objective=np.array([1.0, 2.0]),
            matrix=matrix,
            senses=(LE,),
            rhs=np.array([1.0]),
            lower=np.array([0.0, 0.0]),
            upper=np.array([INF, INF]),
        )
        with pytest.raises(ValidationError) as err:
            solve_lp(lp)
        assert err.value.field == "matrix"

    def test_bad_sense_string(self):
        lp = make_lp([1.0], [[1.0]], ["<"], [1.0], [0.0], [INF])
        with pytest.raises(ValidationError) as err:
            solve_lp(lp)
        assert "senses[0]" in str(err.value)

    def test_crossed_bounds(self):
        lp = make_lp([1.0], [[1.0]], [LE], [1.0], [2.0], [1.0])
        with pytest.raises(ValidationError) as err:
            solve_lp(lp)
        assert "bounds[0]" in str(err.value)

    @pytest.mark.parametrize(
        "lower, upper, message",
        [
            ([0.0, np.nan, 0.0], [1.0, 1.0, -1.0], "invalid bound pair (nan, 1.0)"),
            ([0.0, 0.0, 0.0], [1.0, np.nan, -1.0], "invalid bound pair (0.0, nan)"),
            ([0.0, INF, 0.0], [1.0, INF, -1.0], "invalid bound pair (inf, inf)"),
            ([0.0, 0.0, np.nan], [1.0, -INF, 1.0], "invalid bound pair (0.0, -inf)"),
            ([0.0, 2.0, np.nan], [1.0, 1.0, 1.0], "lower bound 2.0 exceeds upper bound 1.0"),
        ],
        ids=["nan-lower", "nan-upper", "lower-plus-inf", "upper-minus-inf", "crossed"],
    )
    def test_first_bad_bound_named(self, lower, upper, message):
        lp = make_lp([1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]], [LE], [1.0], lower, upper)
        with pytest.raises(ValidationError) as err:
            lp.validate()
        assert err.value.field == "bounds[1]"
        assert err.value.message == message

    def test_bounds_check_matches_loop_reference(self):
        def loop_reference(lower, upper):
            for j, (lo, hi) in enumerate(zip(lower, upper)):
                if np.isnan(lo) or np.isnan(hi) or lo == np.inf or hi == -np.inf:
                    return f"bounds[{j}]", f"invalid bound pair ({lo}, {hi})"
                if lo > hi:
                    return f"bounds[{j}]", f"lower bound {lo} exceeds upper bound {hi}"
            return None

        values = [-INF, -1.0, 0.0, 1.0, INF, np.nan]
        pairs = [(lo, hi) for lo in values for hi in values]
        for lo0, hi0 in pairs:
            for lo1, hi1 in pairs:
                lp = make_lp([1.0, 1.0], [[1.0, 1.0]], [LE], [1.0], [lo0, lo1], [hi0, hi1])
                try:
                    lp.validate()
                    got = None
                except ValidationError as err:
                    got = err.field, err.message
                assert got == loop_reference(lp.lower, lp.upper)


class TestFeasibilityCheck:
    def test_matches_loop_reference(self):
        def loop_reference(problem, solution):
            residuals = problem.matrix @ solution
            for i, sense in enumerate(problem.senses):
                tol = simplex.FEASIBILITY_TOL * max(1.0, abs(problem.rhs[i]))
                gap = residuals[i] - problem.rhs[i]
                if (sense == LE and gap > tol) or (sense == GE and gap < -tol) or (sense == EQ and abs(gap) > tol):
                    return f"solver returned an infeasible point: row {i} ({sense}) off by {gap:.3e}"
            return None

        rng = np.random.default_rng(7)
        outcomes = set()
        for _ in range(500):
            m = int(rng.integers(0, 6))
            lp = make_lp(
                [0.0, 0.0],
                rng.normal(size=(m, 2)),
                rng.choice([LE, GE, EQ], size=m).tolist(),
                rng.choice([0.0, 1.0, -1.0, 1e4], size=m),
                [-INF, -INF],
                [INF, INF],
            )
            # Points on each row's boundary, nudged by about the tolerance either way, or NaN.
            target = lp.rhs + rng.choice([0.0, 2e-9, -2e-9, 5e-10, np.nan], size=m) * np.maximum(1.0, np.abs(lp.rhs))
            solution = np.linalg.lstsq(lp.matrix, target, rcond=None)[0] if m else np.zeros(2)
            try:
                simplex._check_feasible(lp, solution)
                got = None
            except NumericalFailure as err:
                got = str(err)
            assert got == loop_reference(lp, solution)
            outcomes.add(got is None)
        assert outcomes == {True, False}


@st.composite
def feasible_minimization(draw):
    """A random LP built around a known feasible point x0 >= 0."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=5))
    coeff = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
    matrix = np.array([[draw(coeff) for _ in range(n)] for _ in range(m)])
    x0 = np.array([draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False)) for _ in range(n)])
    slack = np.array([draw(st.floats(min_value=0.0, max_value=2.0, allow_nan=False)) for _ in range(m)])
    rhs = matrix @ x0 + slack
    objective = np.array([draw(coeff) for _ in range(n)])
    upper = np.array([draw(st.floats(min_value=3.0, max_value=8.0, allow_nan=False)) for _ in range(n)])
    lp = LinearProgram(
        objective=objective,
        matrix=matrix,
        senses=tuple([LE] * m),
        rhs=rhs,
        lower=np.zeros(n),
        upper=upper,
        sense="minimize",
    )
    return lp, x0


class TestRandomizedProperties:
    @given(feasible_minimization())
    @settings(max_examples=60, deadline=None)
    def test_feasible_instances_solve_and_dominate_witness(self, case):
        lp, x0 = case
        res = solve_lp(lp)
        # x0 is feasible by construction, so the LP cannot be infeasible, and
        # box bounds on every variable rule out unboundedness.
        assert res.status == OPTIMAL
        assert res.objective_value <= float(lp.objective @ x0) + 1e-8
        assert np.all(lp.matrix @ res.solution <= lp.rhs + 1e-9 * np.maximum(1.0, np.abs(lp.rhs)))
        assert np.all(res.solution >= -1e-9)
        assert np.all(res.solution <= lp.upper + 1e-9)


def random_mixed_lp(rng: np.random.Generator) -> LinearProgram:
    """A small LP mixing every bound kind, every row sense and both rhs signs.

    Columns are fixed, boxed (narrow, or 2000 wide), lower-only, upper-only or
    free, with bounds on both sides of zero. Small integer data keeps every
    instance well conditioned, so statuses are not decided by rounding.
    """
    n, m = int(rng.integers(1, 7)), int(rng.integers(0, 7))
    lower, upper = np.empty(n), np.empty(n)
    for j, kind in enumerate(rng.choice(["fixed", "boxed", "wide", "lower", "upper", "free"], size=n)):
        at = float(rng.integers(-4, 4))
        lower[j], upper[j] = {
            "fixed": (at, at),
            "boxed": (at, at + float(rng.integers(1, 5))),
            "wide": (at - 1e3, at + 1e3),
            "lower": (at, INF),
            "upper": (-INF, at),
            "free": (-INF, INF),
        }[kind]
    return make_lp(
        rng.integers(-3, 4, size=n).astype(float),
        rng.integers(-3, 4, size=(m, n)).astype(float),
        rng.choice([LE, GE, EQ], size=m, p=[0.45, 0.35, 0.2]).tolist(),
        rng.integers(-6, 7, size=m).astype(float),
        lower,
        upper,
        sense=str(rng.choice(["maximize", "minimize"])),
    )


def highs_solve(optimize, lp: LinearProgram) -> tuple[str, float | None]:
    """Status and objective of ``lp`` by ``scipy.optimize.linprog(method="highs")``."""
    senses = np.array(lp.senses)
    scale = 1.0 if lp.sense == "minimize" else -1.0
    upper_rows = np.vstack([lp.matrix[senses == LE], -lp.matrix[senses == GE]])
    equal_rows = lp.matrix[senses == EQ]
    # HiGHS's presolve reports some unbounded LPs as infeasible, so it is off.
    ref = optimize.linprog(
        scale * lp.objective,
        A_ub=upper_rows if upper_rows.size else None,
        b_ub=np.concatenate([lp.rhs[senses == LE], -lp.rhs[senses == GE]]) if upper_rows.size else None,
        A_eq=equal_rows if equal_rows.size else None,
        b_eq=lp.rhs[senses == EQ] if equal_rows.size else None,
        bounds=[(lo if lo > -INF else None, hi if hi < INF else None) for lo, hi in zip(lp.lower, lp.upper)],
        method="highs",
        options={"presolve": False},
    )
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[ref.status]
    return status, scale * ref.fun if status == OPTIMAL else None


class TestAgainstHighs:
    """``solve_lp`` agrees with an independent solver on random small LPs."""

    def test_status_and_objective_match(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(20261018)
        seen = set()
        for _ in range(400):
            lp = random_mixed_lp(rng)
            expected, objective = highs_solve(optimize, lp)
            res = solve_lp(lp)
            assert res.status == expected, lp
            if expected == OPTIMAL:
                assert res.objective_value == pytest.approx(objective, rel=1e-7, abs=1e-7), lp
            seen.add(expected)
        assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def dual_objective(lp: LinearProgram, res) -> float:
    """The bounded-variable dual objective at ``res.duals``: y·rhs plus each column's best d_j·x_j over its bounds.

    d = c − Aᵀy. A maximization's column takes its upper bound where d_j > 0
    and its lower bound where d_j < 0, a minimization's the other way round;
    where d_j is within 1e-9 of zero the column's own value is used. The sum
    is infinite when y is not dual feasible.
    """
    reduced = lp.objective - lp.matrix.T @ res.duals
    toward = reduced if lp.sense == "maximize" else -reduced
    best = np.where(toward > 0, lp.upper, lp.lower)
    at = np.where(np.abs(reduced) <= 1e-9, res.solution, best)
    return float(res.duals @ lp.rhs + reduced @ at)


class TestDuals:
    """``LpResult.duals`` are an optimal dual solution, in the original rows' signs and the problem's sense."""

    def test_strong_duality_and_complementary_slackness(self):
        rng = np.random.default_rng(20261019)
        senses = collections.Counter()
        for _ in range(400):
            lp = random_mixed_lp(rng)
            res = solve_lp(lp)
            if res.status != OPTIMAL:
                assert res.duals is None
                continue
            y = res.duals
            assert y.shape == (lp.matrix.shape[0],)
            # A maximization prices a "<=" row >= 0 and a ">=" row <= 0; a minimization the other way round.
            sign = np.array([{LE: 1.0, GE: -1.0, EQ: 0.0}[s] for s in lp.senses])
            if lp.sense == "minimize":
                sign = -sign
            assert np.all(sign * y >= -1e-9), lp
            gap = lp.matrix @ res.solution - lp.rhs
            assert np.all(np.abs(y * gap) <= 1e-9), lp
            assert dual_objective(lp, res) == pytest.approx(res.objective_value, rel=1e-9, abs=1e-9), lp
            senses.update((lp.sense, s) for s in lp.senses)
        assert len(senses) == 6  # each row sense under each problem sense

    def test_duals_follow_the_row_sign_and_the_problem_sense(self):
        rng = np.random.default_rng(7)
        compared = 0
        for _ in range(100):
            lp = random_mixed_lp(rng)
            res = solve_lp(lp)
            if res.status != OPTIMAL or not lp.senses:
                continue
            flipped = replace(
                lp, objective=-lp.objective, sense="minimize" if lp.sense == "maximize" else "maximize"
            )
            assert np.array_equal(solve_lp(flipped).duals, -res.duals)
            # Row 0 written the other way round: -a x >= -b for a x <= b.
            negated = replace(
                lp,
                matrix=np.vstack([-lp.matrix[:1], lp.matrix[1:]]),
                senses=({LE: GE, GE: LE, EQ: EQ}[lp.senses[0]], *lp.senses[1:]),
                rhs=np.concatenate([-lp.rhs[:1], lp.rhs[1:]]),
            )
            # Unless the row is zero at the start, the standard form negates
            # exactly one of the two, so both solve one system.
            if _standard_form(negated).row_sign[0] == _standard_form(lp).row_sign[0]:
                continue
            other = solve_lp(negated).duals
            assert other[0] == -res.duals[0] and np.array_equal(other[1:], res.duals[1:])
            compared += 1
        assert compared > 30

    def test_match_highs_marginals_on_nondegenerate_lps(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(20261020)
        compared = 0
        for _ in range(600):
            lp = random_mixed_lp(rng)
            res = solve_lp(lp)
            if res.status != OPTIMAL:
                continue
            # A nondegenerate vertex has exactly n active constraints and bounds, and a unique dual.
            x = res.solution
            tight_rows = np.abs(lp.matrix @ x - lp.rhs) <= 1e-9
            at_bound = (np.abs(x - lp.lower) <= 1e-9) | (np.abs(x - lp.upper) <= 1e-9)
            if np.count_nonzero(tight_rows) + np.count_nonzero(at_bound) != x.size:
                continue
            senses = np.array(lp.senses)
            scale = 1.0 if lp.sense == "minimize" else -1.0
            ref = optimize.linprog(
                scale * lp.objective,
                A_ub=np.vstack([lp.matrix[senses == LE], -lp.matrix[senses == GE]]),
                b_ub=np.concatenate([lp.rhs[senses == LE], -lp.rhs[senses == GE]]),
                A_eq=lp.matrix[senses == EQ],
                b_eq=lp.rhs[senses == EQ],
                bounds=[(lo if lo > -INF else None, hi if hi < INF else None) for lo, hi in zip(lp.lower, lp.upper)],
                method="highs",
            )
            assert ref.status == 0, lp
            # HiGHS's marginals are d(min objective)/d(rhs) of its own rows; a ">=" row entered it negated.
            expected = np.empty(senses.size)
            upper = ref.ineqlin.marginals
            n_le = np.count_nonzero(senses == LE)
            expected[senses == LE] = upper[:n_le]
            expected[senses == GE] = -upper[n_le:]
            expected[senses == EQ] = ref.eqlin.marginals
            assert res.duals == pytest.approx(scale * expected, rel=1e-9, abs=1e-9), lp
            compared += 1
        assert compared > 50


class TestKeptInverse:
    """The kept basis inverse pivots as a basis inverted afresh at every pivot would."""

    def test_interval_lp_matches_reference(self, caplog, monkeypatch):
        pi, _ = random_interval_instance(np.random.default_rng(50), m=50)
        [(lp, _, fields)] = logged_solves(caplog, monkeypatch, to_generic(pi), market_bidding(1.0, 1.6))
        _, _, phase1, phase2, dual, flips, refactorizations, start = fields
        # More than 100 pivots (103 + 32 when written), so the inverse is rebuilt mid-phase.
        assert phase1 + phase2 > 100
        assert flips == 0  # b, the only boxed column, never reaches its upper bound here
        assert (dual, start) == (0, "none")
        assert refactorizations == math.ceil(phase1 / 50) + math.ceil(phase2 / 50)
        assert_same_result(solve_lp(lp), solve_with_reference(lp))

    def test_every_bound_kind_matches_reference(self):
        # The LPs of TestAgainstHighs: fixed, boxed (at a nonzero lower bound
        # too), wide, upper-only and free columns, and every status.
        rng = np.random.default_rng(20261018)
        for _ in range(400):
            lp = random_mixed_lp(rng)
            assert_same_result(solve_lp(lp), solve_with_reference(lp))

    def test_debug_line_fields(self, caplog, monkeypatch):
        scenarios = [load_scenario(Path(__file__).parent / "golden" / "exchange_mixed.json")]
        scenarios += [parse_scenario(moment_window_doc(*args)) for args in MOMENT_WINDOWS.values()]
        solves = []
        for sc in scenarios:
            caplog.clear()
            solves += enumerate(logged_solves(caplog, monkeypatch, sc.forecast_set, sc.utility, sc.exchange), 1)
        assert max(round_number for round_number, _ in solves) > 5
        for round_number, (lp, given, fields) in solves:
            rows, cols, phase1, phase2, dual, flips, refactorizations, start = fields
            assert (rows, cols) == _standard_form(lp).matrix.shape
            # Round 1 starts at its slacks and elastic columns, every later
            # round from the round before: each a feasible vertex.
            assert (given is not None, start) == (True, "used")
            assert (phase1, dual) == (0, 0)
            assert flips == 0  # no column is boxed
            # The inverse is refactored every 50 pivots of a solve.
            assert refactorizations == math.ceil(phase2 / 50)

    @pytest.mark.parametrize("name", list(MOMENT_WINDOWS))
    def test_moment_window_lps_match_reference(self, caplog, monkeypatch, name):
        # Round 1 starts on its elastic columns, whose costs are MULTIPLIER_BOX
        # and OFFSET_BOX = 1e6, and its pivots bring the duals down to O(1),
        # so the values the kept inverse decides on span both scales. Every
        # later round starts from the round before and takes primal steps.
        sc = parse_scenario(moment_window_doc(*MOMENT_WINDOWS[name]))
        solves = logged_solves(caplog, monkeypatch, sc.forecast_set, sc.utility, sc.exchange)
        assert solves
        assert all(fields[-1] == "used" for _, _, fields in solves)
        for lp, start, _ in solves:
            assert_same_pivoting(caplog, lp, start)


def random_basis(rng: np.random.Generator, std, k: int) -> np.ndarray:
    """k distinct structural columns, and on each of m - k other rows one of its unit columns, in shuffled positions."""
    m = std.matrix.shape[0]
    structural_rows = rng.choice(m, size=k, replace=False)
    columns = list(rng.choice(np.flatnonzero(std.unit_row < 0), size=k, replace=False))
    columns += [rng.choice(np.flatnonzero(std.unit_row == r)) for r in np.setdiff1d(np.arange(m), structural_rows)]
    return rng.permutation(np.array(columns, dtype=int))


def random_tall_lp(rng: np.random.Generator) -> LinearProgram:
    """An LP with small integer rows of every sense and both rhs signs; half its columns boxed, the rest >= 0."""
    m = int(rng.integers(1, 9))
    n = int(rng.integers(m, m + 4))
    boxed = rng.random(n) < 0.5
    return make_lp(
        np.ones(n),
        rng.integers(-3, 4, size=(m, n)).astype(float),
        rng.choice([LE, GE, EQ], size=m).tolist(),
        rng.integers(-6, 7, size=m).astype(float),
        np.where(boxed, -2.0, 0.0),
        np.where(boxed, 3.0, INF),
    )


class TestBasisInverse:
    """``_basis_inverse`` inverts only the structural block of a basis and agrees with a full inversion."""

    @pytest.mark.parametrize("kind", ["phase-1 start", "all structural", "mixed"])
    def test_matches_full_inversion(self, kind):
        rng = np.random.default_rng(20261019)
        seen_boxed = seen_signs = 0
        compared = 0
        while compared < 200:
            std = _standard_form(random_tall_lp(rng))
            m = std.matrix.shape[0]
            k = {"phase-1 start": 0, "all structural": m, "mixed": int(rng.integers(1, m + 1))}[kind]
            basis = std.basis if kind == "phase-1 start" else random_basis(rng, std, k)
            B = std.matrix[:, basis]
            # The data are integers, so a nonsingular B has |det B| >= 1.
            if abs(np.linalg.det(B)) < 0.5:
                continue
            full = np.linalg.inv(B)
            assert np.abs(simplex._basis_inverse(std, basis) - full).max() <= 1e-12 * np.abs(full).max()
            compared += 1
            seen_boxed += np.isfinite(std.upper[basis]).any()
            rows = std.unit_row[basis]
            seen_signs += set(B[rows[rows >= 0], rows >= 0]) == {-1.0, 1.0}
        if kind == "mixed":
            assert seen_boxed and seen_signs
        if kind == "phase-1 start":
            assert seen_boxed == 0  # every column of the start is a unit column

    def test_duplicate_unit_rows_raise(self):
        # Row 0 is a >= row with a positive rhs: its surplus and its artificial both sit on it.
        lp = make_lp([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [GE, LE], [1.0, 1.0], [0.0, 0.0], [INF, INF])
        std = _standard_form(lp)
        surplus, slack, artificial = 2, 3, 4
        assert std.unit_row[[surplus, slack, artificial]].tolist() == [0, 1, 0]
        with pytest.raises(np.linalg.LinAlgError):
            simplex._basis_inverse(std, np.array([surplus, artificial]))

    def test_singular_structural_block_raises(self):
        # Columns 0 and 1 are equal, so no basis holding both is invertible.
        matrix = [[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.0, 0.0, 1.0]]
        std = _standard_form(make_lp([1.0, 2.0, 0.0], matrix, [LE] * 3, [1.0] * 3, [0.0] * 3, [INF] * 3))
        with pytest.raises(np.linalg.LinAlgError):
            simplex._basis_inverse(std, np.array([0, 1, 5]))

    @pytest.mark.parametrize("name", list(MOMENT_WINDOWS))
    def test_moment_solve_inverts_at_most_5_by_5(self, monkeypatch, name):
        # The exchange LPs have 130 or more rows but only five structural columns.
        sizes = []
        invert = np.linalg.inv

        def spy(matrix):
            sizes.append(matrix.shape)
            return invert(matrix)

        monkeypatch.setattr(np.linalg, "inv", spy)
        sc = parse_scenario(moment_window_doc(*MOMENT_WINDOWS[name]))
        solve_forecast_set(sc.forecast_set, sc.utility, sc.exchange)
        assert sizes and max(max(shape) for shape in sizes) <= 5


def solve_logged(caplog, lp, start=None):
    """``solve_lp(lp, start=start)`` with the fields of its DEBUG line."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="robustplan"):
        res = solve_lp(lp, start=start)
    [line] = [r.getMessage() for r in caplog.records if r.name == "robustplan"]
    return res, log_fields(line)


class TestBoundedColumns:
    """Boxed columns are priced, blocked and flipped at their own bounds."""

    def test_entering_column_flips_to_its_upper_bound(self, caplog):
        # maximize x + y s.t. x + y <= 10, x in [-2, 1], y in [0, 3]: both
        # columns cross their boxes before the row binds, with no basis change.
        lp = make_lp([1.0, 1.0], [[1.0, 1.0]], [LE], [10.0], [-2.0, 0.0], [1.0, 3.0])
        res, (_, _, phase1, phase2, _, flips, _, _) = solve_logged(caplog, lp)
        assert res.status == OPTIMAL
        assert res.solution.tolist() == [1.0, 3.0]
        assert (phase1, phase2, flips) == (0, 2, 2)

    def test_column_at_its_upper_bound_comes_back_down(self, caplog):
        # maximize x + y s.t. 2x + y <= 2.5, x in [0, 1], y in [0, 2]. x enters
        # first (the lower index at a tie) and flips to 1, y rises to 0.5 and
        # takes the row; then x, priced with its reduced cost's sign flipped,
        # falls back to 0.25 while y rises and leaves the basis at its upper bound.
        lp = make_lp([1.0, 1.0], [[2.0, 1.0]], [LE], [2.5], [0.0, 0.0], [1.0, 2.0])
        res, (_, _, phase1, phase2, _, flips, _, _) = solve_logged(caplog, lp)
        assert res.status == OPTIMAL
        assert res.solution.tolist() == [0.25, 2.0]
        assert res.objective_value == 2.25
        assert (phase1, phase2, flips) == (0, 3, 1)
        assert_same_result(res, solve_with_reference(lp))


#: maximize x + y s.t. x + y <= 4, x - y <= 1, x + y >= 1. Its standard-form
#: columns are x, y, the slacks of rows 0 and 1, the surplus of row 2 and the
#: artificial of row 2, and its cold solve runs phase 1 and phase 2.
TRIANGLE = make_lp(
    [1.0, 1.0], [[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]], [LE, LE, GE], [4.0, 1.0, 1.0], [0.0, 0.0], [INF, INF]
)


def market_m6_dual_lp(b):
    """The exact fixed-decision dual LP of the bundled market_m6 scenario at decision b."""
    sc = load_scenario("market_m6")
    return _dual_lp(sc.forecast_set, sc.utility, *_cell_rows(sc.forecast_set), (b, b))


def grown_start(lp: LinearProgram, grown: LinearProgram, basis: Basis) -> Basis:
    """``basis`` of ``lp`` carried to ``grown`` (the same columns, rows appended), each new row's slack basic.

    Each row's slack or surplus column is found from the standard-form
    layout: the structural columns, then one slack per row that is not an
    equation, in row order. An artificial in ``basis`` is kept as is, which
    makes the start invalid.
    """

    def slack_of(problem):
        has_slack = np.array([s != EQ for s in problem.senses], dtype=bool)
        return np.where(has_slack, _standard_form(problem).var.size + np.cumsum(has_slack) - 1, -1)

    structural = _standard_form(lp).var.size
    old, new = slack_of(lp), slack_of(grown)
    column_of = {int(c): int(new[i]) for i, c in enumerate(old) if c >= 0}
    columns = [column_of.get(int(c), int(c)) if c >= structural else int(c) for c in basis.columns]
    columns += [int(c) for c in new[old.size :]]
    at_upper = np.zeros(_standard_form(grown).matrix.shape[1], dtype=bool)
    at_upper[:structural] = basis.at_upper[:structural]
    return Basis(np.array(columns), at_upper)


class TestWarmStart:
    """A start is used when it is a feasible or a dual-feasible vertex, and never changes the answer."""

    @pytest.mark.parametrize(
        "lp",
        [
            TRIANGLE,
            # Its optimum has y nonbasic at its upper bound.
            make_lp([1.0, 1.0], [[2.0, 1.0]], [LE], [2.5], [0.0, 0.0], [1.0, 2.0]),
            market_m6_dual_lp(0.3),
        ],
        ids=["triangle", "boxed", "market_m6"],
    )
    def test_own_optimal_basis_takes_no_pivots(self, caplog, lp):
        cold, (_, _, *cold_pivots, _, _) = solve_logged(caplog, lp)
        assert sum(cold_pivots) > 0
        warm, (_, _, phase1, phase2, dual, flips, _, start) = solve_logged(caplog, lp, cold.basis)
        assert (phase1, phase2, dual, flips, start) == (0, 0, 0, 0, "used")
        assert_same_result(warm, cold)
        assert np.array_equal(warm.basis.columns, cold.basis.columns)
        assert np.array_equal(warm.basis.at_upper, cold.basis.at_upper)

    @pytest.mark.parametrize(
        "columns, flagged, width",
        [
            ([0, 3, 4], [], 6),  # x = 4 from row 0 leaves row 1's slack at -3, but y prices at 0
            ([1, 2, 4], [], 6),  # y = -1 from row 1, and x would improve the objective
            ([2, 3, 5], [], 6),  # the cold start itself: row 2's artificial
            ([0, 1, 3], [], 6),  # rows 0 and 2 coincide on x and y: singular
            ([0, 0, 3], [], 6),  # a column named twice
            ([0, 3], [], 6),  # fewer columns than rows
            ([2, 3, 0], [1], 6),  # feasible, but y has no upper bound to sit at
            ([2, 3, 0], [], 3),  # feasible, but not one flag per column
        ],
        ids=[
            "infeasible", "primal-and-dual-infeasible", "artificial", "singular", "repeated", "short",
            "unbounded-flag", "flags-short",
        ],
    )
    def test_rejected_start_solves_cold(self, caplog, columns, flagged, width):
        cold, cold_fields = solve_logged(caplog, TRIANGLE)
        start = Basis(np.array(columns), np.isin(np.arange(width), flagged))
        warm, warm_fields = solve_logged(caplog, TRIANGLE, start)
        assert cold_fields[-1] == "none"
        if columns == [0, 3, 4]:
            # Not rejected: the vertex is dual feasible (the optimal value is
            # 4 there too), so one dual step from it reaches the optimum.
            assert warm_fields[2:] == (0, 0, 1, 0, 1, "dual")
            assert warm.objective_value == cold.objective_value == 4.0
            assert_same_result(warm, solve_with_reference(TRIANGLE, start=start))
            return
        assert warm_fields == (*cold_fields[:-1], "rejected")
        assert_same_result(warm, cold)

    def test_boxed_column_leaves_at_the_upper_bound_it_exceeds(self, caplog):
        # maximize x + y s.t. 2x + y <= rhs, x in [0, 1], y in [0, 2]. At rhs
        # 2.5 the optimum has x = 0.25 basic and y at its upper bound. At rhs
        # 4.5 that basis puts x at 1.25, above its box, so one dual step takes
        # x out at its upper bound and the row's slack in: x = 1, y = 2.
        boxed = make_lp([1.0, 1.0], [[2.0, 1.0]], [LE], [2.5], [0.0, 0.0], [1.0, 2.0])
        moved = replace(boxed, rhs=np.array([4.5]))
        start = solve_lp(boxed).basis
        warm, (_, _, phase1, phase2, dual, flips, _, outcome) = solve_logged(caplog, moved, start)
        assert (phase1, phase2, dual, flips, outcome) == (0, 0, 1, 0, "dual")
        assert warm.solution.tolist() == [1.0, 2.0]
        assert warm.basis.at_upper.tolist() == [True, True, False]
        assert_same_result(warm, solve_with_reference(moved, start=start))
        assert_same_result(warm, solve_lp(moved))

    def test_singular_basis_at_the_exit_recheck_solves_cold(self, caplog, monkeypatch):
        # From [0, 3, 4] one dual step reaches the optimum, which the next
        # step finds on the updated inverse. The fresh inverse that exit is
        # decided again on, the second of the solve, fails as a singular
        # basis would, and the start was still taking dual steps there.
        inverted = []

        def second_call_fails(std, basis):
            inverted.append(basis.copy())
            if len(inverted) == 2:
                raise np.linalg.LinAlgError("singular")
            return basis_inverse(std, basis)

        basis_inverse = simplex._basis_inverse
        monkeypatch.setattr(simplex, "_basis_inverse", second_call_fails)
        start = Basis(np.array([0, 3, 4]), np.zeros(6, dtype=bool))
        warm, (*_, outcome) = solve_logged(caplog, TRIANGLE, start)
        assert outcome == "rejected"
        assert len(inverted) > 2  # the cold solve's own inversions
        assert not np.array_equal(inverted[0], inverted[1])  # one dual pivot came between
        monkeypatch.undo()
        assert_same_result(warm, solve_lp(TRIANGLE))

    def test_feasible_start_pivots_to_the_optimum(self, caplog):
        # x = 1 on row 2 with both slacks basic: a feasible, non-optimal vertex.
        cold = solve_lp(TRIANGLE)
        warm, (_, _, phase1, phase2, dual, _, _, start) = solve_logged(
            caplog, TRIANGLE, Basis(np.array([2, 3, 0]), np.zeros(6, dtype=bool))
        )
        assert (phase1, dual, start) == (0, 0, "used")
        assert phase2 > 0
        assert warm.objective_value == cold.objective_value == 4.0

    # A moved right-hand side keeps the old optimum dual feasible, so a start
    # that is still primal feasible is optimal; a moved objective keeps it
    # primal feasible, so phase 2 pivots on from it.
    @pytest.mark.parametrize("field", ["rhs", "objective"])
    def test_perturbed_lps_match_cold(self, caplog, field):
        rng = np.random.default_rng(20261018)
        used = 0
        for _ in range(400):
            lp = random_mixed_lp(rng)
            first = solve_lp(lp)
            if first.status != OPTIMAL:
                continue
            values = getattr(lp, field)
            moved = replace(lp, **{field: values + rng.uniform(-2.0, 2.0, size=values.size)})
            cold = solve_lp(moved)
            warm, (*_, start) = solve_logged(caplog, moved, first.basis)
            used += start == "used"
            assert warm.status == cold.status, moved
            if cold.status == OPTIMAL:
                assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9, abs=1e-9), moved
        assert used > 50

    def test_lps_grown_by_columns_reoptimize_by_primal_steps(self, caplog):
        # The old optimum with new columns >= 0 after the last ones, as the
        # exchange loop's rounds add each new point's masses: the carried
        # basis is still a feasible vertex, and primal steps finish the solve.
        rng = np.random.default_rng(20261021)
        outcomes = collections.Counter()
        for _ in range(300):
            lp = random_mixed_lp(rng)
            first = solve_lp(lp)
            if first.status != OPTIMAL:
                continue
            k = int(rng.integers(1, 4))
            m = lp.matrix.shape[0]
            grown = replace(
                lp,
                objective=np.concatenate([lp.objective, rng.integers(-3, 4, size=k).astype(float)]),
                matrix=np.hstack([lp.matrix, rng.integers(-3, 4, size=(m, k)).astype(float)]),
                lower=np.concatenate([lp.lower, np.zeros(k)]),
                upper=np.concatenate([lp.upper, np.full(k, INF)]),
            )
            start = first.basis.with_inserted_columns(_standard_form(lp).var.size, k)
            assert _standard_form(grown).matrix[:, start.columns].tolist() == _standard_form(lp).matrix[
                :, first.basis.columns
            ].tolist()
            warm, (*_, phase1, phase2, dual, _, _, outcome) = solve_logged(caplog, grown, start)
            cold = solve_lp(grown)
            outcomes[outcome] += 1
            assert (outcome, phase1, dual) == ("used", 0, 0), grown
            assert warm.status == cold.status, grown
            if cold.status == OPTIMAL:
                assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9, abs=1e-9), grown
            outcomes[cold.status] += 1
        assert outcomes["used"] > 100 and outcomes[OPTIMAL] and outcomes[UNBOUNDED], outcomes

    def test_grown_lps_reoptimize_by_dual_steps(self, caplog):
        # The old optimum with a moved right-hand side and new rows cut off
        # at that optimum, each new row on its own slack, as the exchange
        # loop's rounds start: still dual feasible, but not primal feasible.
        try:  # HiGHS is a third opinion where SciPy is installed
            from scipy import optimize
        except ImportError:
            optimize = None
        rng = np.random.default_rng(20261019)
        outcomes = collections.Counter()
        for _ in range(400):
            lp = random_mixed_lp(rng)
            first = solve_lp(lp)
            if first.status != OPTIMAL:
                continue
            k = int(rng.integers(1, 3))
            rows = rng.integers(-3, 4, size=(k, lp.matrix.shape[1])).astype(float)
            senses = rng.choice([LE, GE], size=k).tolist()
            sign = np.where(np.array(senses) == LE, -1.0, 1.0)
            cut = rng.uniform(0.1, 1.0, size=k)
            reach = rows @ first.solution
            grown = replace(
                lp,
                matrix=np.vstack([lp.matrix, rows]),
                senses=(*lp.senses, *senses),
                rhs=np.concatenate([lp.rhs + rng.uniform(-0.5, 0.5, size=lp.rhs.size), reach + cut * sign]),
            )
            start = grown_start(lp, grown, first.basis)
            warm, (*_, outcome) = solve_logged(caplog, grown, start)
            cold = solve_lp(grown)
            outcomes[outcome] += 1
            assert warm.status == cold.status, grown
            if optimize is not None:
                expected, objective = highs_solve(optimize, grown)
                assert cold.status == expected, grown
            if cold.status == OPTIMAL:
                assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9, abs=1e-9), grown
                if optimize is not None:
                    assert warm.objective_value == pytest.approx(objective, rel=1e-9, abs=1e-9), grown
        # A grown LP that is infeasible shows as a dual step with no entering
        # column, which drops the start; the cold solve then says so.
        assert outcomes["dual"] > 40 and outcomes["rejected"] > 20, outcomes
