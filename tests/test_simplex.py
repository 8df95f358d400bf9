"""Tests for the dense two-phase simplex core."""

import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustplan import simplex, solver
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
    LinearProgram,
    _standard_form,
    solve_lp,
)
from robustplan.solver import solve_forecast_set
from robustplan.utility import market_bidding
from support import (
    MOMENT_WINDOWS,
    assert_same_result,
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
        # Maximize, so the cost of each structural column is -sign * c[var].
        assert std.cost.tolist() == [-2.0, 3.0, -4.0, -5.0, 5.0] + [0.0] * 10
        assert std.var.tolist() == [1, 2, 3, 4, 4]
        assert std.sign.tolist() == [1.0, -1.0, 1.0, 1.0, -1.0]

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


class TestAgainstHighs:
    """``solve_lp`` agrees with an independent solver on random small LPs."""

    def test_status_and_objective_match(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(20261018)
        seen = set()
        for _ in range(400):
            lp = random_mixed_lp(rng)
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
            expected = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[ref.status]
            res = solve_lp(lp)
            assert res.status == expected, lp
            if expected == OPTIMAL:
                assert res.objective_value == pytest.approx(scale * ref.fun, rel=1e-7, abs=1e-7), lp
            seen.add(expected)
        assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


LOG_LINE = re.compile(
    r"solve_lp: standard form (\d+) x (\d+), pivots (\d+) \+ (\d+) \(phase 1 \+ 2\), "
    r"(\d+) bound flips, (\d+) refactorizations"
)


def logged_solves(caplog, monkeypatch, *problem):
    """The LPs ``solve_forecast_set(*problem)`` solves, each with the fields of its DEBUG line."""
    lps = []
    monkeypatch.setattr(solver, "solve_lp", lambda lp: lps.append(lp) or simplex.solve_lp(lp))
    with caplog.at_level(logging.DEBUG, logger="robustplan"):
        solve_forecast_set(*problem)
    lines = [r for r in caplog.records if r.name == "robustplan" and r.getMessage().startswith("solve_lp:")]
    assert len(lines) == len(lps)
    return [(lp, tuple(map(int, LOG_LINE.fullmatch(r.getMessage()).groups()))) for lp, r in zip(lps, lines)]


class TestKeptInverse:
    """The kept basis inverse pivots as three fresh solves per pivot would."""

    def test_interval_lp_matches_reference(self, caplog, monkeypatch):
        pi, _ = random_interval_instance(np.random.default_rng(50), m=50)
        [(lp, fields)] = logged_solves(caplog, monkeypatch, to_generic(pi), market_bidding(1.0, 1.6))
        _, _, phase1, phase2, flips, refactorizations = fields
        # More than 100 pivots (103 + 32 when written), so the inverse is rebuilt mid-phase.
        assert phase1 + phase2 > 100
        assert flips == 0  # b, the only boxed column, never reaches its upper bound here
        assert refactorizations == math.ceil(phase1 / 50) + math.ceil(phase2 / 50)
        assert_same_result(solve_lp(lp), solve_with_reference(lp))

    def test_debug_line_fields(self, caplog, monkeypatch):
        sc = load_scenario(Path(__file__).parent / "golden" / "exchange_mixed.json")
        solves = logged_solves(caplog, monkeypatch, sc.forecast_set, sc.utility, sc.exchange)
        for lp, (rows, cols, phase1, phase2, flips, refactorizations) in solves:
            assert (rows, cols) == _standard_form(lp).matrix.shape
            assert phase1 == 0  # exchange LPs start feasible
            assert flips <= phase2
            assert refactorizations == math.ceil(phase2 / 50)

    @pytest.mark.parametrize("name", list(MOMENT_WINDOWS))
    def test_moment_window_lps_match_reference(self, monkeypatch, name):
        # 11 exchange LPs of 31-105 pivots in all. Each starts with its slacks
        # near OFFSET_BOX = 1e6, and its first pivot brings the basic values
        # down to O(1), so the values the kept inverse decides on span both scales.
        sc = parse_scenario(moment_window_doc(*MOMENT_WINDOWS[name]))
        lps = []
        monkeypatch.setattr(solver, "solve_lp", lambda lp: lps.append(lp) or simplex.solve_lp(lp))
        solve_forecast_set(sc.forecast_set, sc.utility, sc.exchange)
        assert lps
        for lp in lps:
            assert_same_result(solve_lp(lp), solve_with_reference(lp))


class TestBoundedColumns:
    """Boxed columns are priced, blocked and flipped at their own bounds."""

    def solve_logged(self, caplog, lp):
        with caplog.at_level(logging.DEBUG, logger="robustplan"):
            res = solve_lp(lp)
        [line] = [r.getMessage() for r in caplog.records if r.name == "robustplan"]
        return res, LOG_LINE.fullmatch(line).groups()

    def test_entering_column_flips_to_its_upper_bound(self, caplog):
        # maximize x + y s.t. x + y <= 10, x in [-2, 1], y in [0, 3]: both
        # columns cross their boxes before the row binds, with no basis change.
        lp = make_lp([1.0, 1.0], [[1.0, 1.0]], [LE], [10.0], [-2.0, 0.0], [1.0, 3.0])
        res, (_, _, phase1, phase2, flips, _) = self.solve_logged(caplog, lp)
        assert res.status == OPTIMAL
        assert res.solution.tolist() == [1.0, 3.0]
        assert (phase1, phase2, flips) == ("0", "2", "2")

    def test_column_at_its_upper_bound_comes_back_down(self, caplog):
        # maximize x + y s.t. 2x + y <= 2.5, x in [0, 1], y in [0, 2]. x enters
        # first (the lower index at a tie) and flips to 1, y rises to 0.5 and
        # takes the row; then x, priced with its reduced cost's sign flipped,
        # falls back to 0.25 while y rises and leaves the basis at its upper bound.
        lp = make_lp([1.0, 1.0], [[2.0, 1.0]], [LE], [2.5], [0.0, 0.0], [1.0, 2.0])
        res, (_, _, phase1, phase2, flips, _) = self.solve_logged(caplog, lp)
        assert res.status == OPTIMAL
        assert res.solution.tolist() == [0.25, 2.0]
        assert res.objective_value == 2.25
        assert (phase1, phase2, flips) == ("0", "3", "1")
        assert_same_result(res, solve_with_reference(lp))
