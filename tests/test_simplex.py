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
from robustplan.solver import _cell_rows, solve_forecast_set, worst_case_value
from robustplan.utility import market_bidding
from support import (
    MOMENT_WINDOWS,
    assert_same_pivoting,
    assert_same_result,
    highs_solve,
    log_fields,
    logged_solves,
    moment_window_doc,
    random_interval_instance,
    record_solves,
    solve_with_reference,
    tall_program,
)

INF = np.inf


def make_lp(objective, matrix, senses, rhs):
    """minimize objective @ x over x >= 0 subject to the rows."""
    return LinearProgram(
        objective=np.asarray(objective, dtype=float),
        matrix=np.asarray(matrix, dtype=float).reshape(len(senses), len(objective)),
        senses=tuple(senses),
        rhs=np.asarray(rhs, dtype=float),
    )


class TestBasicSolves:
    def test_single_variable_binding_bound(self):
        # minimize -x s.t. x <= 1, x >= 0
        lp = make_lp([-1.0], [[1.0]], [LE], [1.0])
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.solution[0] == pytest.approx(1.0, abs=1e-9)
        assert res.objective_value == pytest.approx(-1.0, abs=1e-9)

    def test_contradictory_rows_infeasible(self):
        # x >= 1 and x <= 0 cannot both hold.
        lp = make_lp([1.0], [[1.0], [1.0]], [GE, LE], [1.0, 0.0])
        assert solve_lp(lp).status == INFEASIBLE

    def test_two_variable_polygon_vertex(self):
        # minimize -3a - 2b s.t. a + b <= 4, a <= 2, a,b >= 0.
        # Vertex enumeration: (0,0)->0, (2,0)->-6, (0,4)->-8, (2,2)->-10. Min is -10.
        lp = make_lp([-3.0, -2.0], [[1.0, 1.0], [1.0, 0.0]], [LE, LE], [4.0, 2.0])
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.solution == pytest.approx([2.0, 2.0], abs=1e-9)
        assert res.objective_value == pytest.approx(-10.0, abs=1e-8)

    def test_unbounded_direction(self):
        lp = make_lp([-1.0], np.zeros((0, 1)), [], [])
        assert solve_lp(lp).status == UNBOUNDED

    def test_zero_rows_optimum(self):
        # minimize x over x >= 0, with no rows at all.
        lp = make_lp([1.0], np.zeros((0, 1)), [], [])
        assert _standard_form(lp).matrix.shape == (0, 1)
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.solution.tolist() == [0.0]
        assert res.objective_value == 0.0

    def test_equality_and_free_variable(self):
        # minimize 2x + y s.t. x + y = 3, y <= 1, x free, written with x = x+ - x-.
        # Substitute x = 3 - y: objective 6 - y, minimized at y = 1 -> x = 2, value 5.
        lp = make_lp([2.0, -2.0, 1.0], [[1.0, -1.0, 1.0], [0.0, 0.0, 1.0]], [EQ, LE], [3.0, 1.0])
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.solution == pytest.approx([2.0, 0.0, 1.0], abs=1e-9)
        assert res.objective_value == pytest.approx(5.0, abs=1e-8)

    def test_upper_bounded_only_variable(self):
        # maximize x with x <= 2 and no lower bound, pinned by a harmless row:
        # minimize -(x+ - x-) with the cap x+ - x- <= 2 as a row.
        lp = make_lp([-1.0, 1.0], [[1.0, -1.0], [1.0, -1.0]], [LE, LE], [5.0, 2.0])
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.solution[0] - res.solution[1] == pytest.approx(2.0, abs=1e-9)

    def test_greater_equal_rows_via_artificials(self):
        # minimize x + y s.t. x + 2y >= 4, 3x + y >= 6, x,y >= 0.
        # Vertices: (0, 6)->6, (4, 0)->4, intersection x+2y=4 & 3x+y=6 at
        # (8/5, 6/5) -> 14/5 = 2.8. Min is 2.8.
        lp = make_lp([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [GE, GE], [4.0, 6.0])
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.objective_value == pytest.approx(2.8, abs=1e-8)
        assert res.solution == pytest.approx([1.6, 1.2], abs=1e-8)

    def test_degenerate_cycling_instance_terminates(self):
        # A classic cycling trap for naive most-negative-cost pricing.
        # KKT-verified optimum: x = (0.04, 0, 1, 0), objective -0.05
        # (row-2 multiplier 1.5, row-3 multiplier 0.05 on x3 <= 1,
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
        )
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.objective_value == pytest.approx(-0.05, abs=1e-8)

    def test_pricing_tie_goes_to_the_lowest_column(self):
        # The reduced costs -3 and -3 - 4.4e-16 lie within _TIE_BAND of each
        # other, so x0 enters first, and then x1 has no gain left to enter.
        lp = make_lp([-3.0, -3.0 - 1e-15], [[1.0, 1.0]], [LE], [1.0])
        assert solve_lp(lp).solution.tolist() == [1.0, 0.0]


class TestResultInvariants:
    def _polygon_lp(self):
        return make_lp([-3.0, -2.0], [[1.0, 1.0], [1.0, 0.0]], [LE, LE], [4.0, 2.0])

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
                assert res.objective_value <= -3 * a - 2 * b + 1e-8

    def test_bit_for_bit_determinism(self):
        first = solve_lp(self._polygon_lp())
        second = solve_lp(self._polygon_lp())
        assert first.status == second.status
        assert np.array_equal(first.solution, second.solution)
        assert first.objective_value == second.objective_value


class TestFixedVariables:
    """A variable pinned by an "=" row solves as its value substituted by hand."""

    def test_matches_substitution_by_hand(self):
        # maximize 3a + 2b + c s.t. a + b + c <= 4, a - c >= -1, c <= 5, with
        # b = 1.5: by hand, maximize 3a + c s.t. a + c <= 2.5, a - c >= -1,
        # c <= 5, plus 3. Both written as minimizations.
        fixed = make_lp(
            [-3.0, -2.0, -1.0],
            [[1.0, 1.0, 1.0], [1.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
            [LE, GE, LE, EQ],
            [4.0, -1.0, 5.0, 1.5],
        )
        by_hand = make_lp([-3.0, -1.0], [[1.0, 1.0], [1.0, -1.0], [0.0, 1.0]], [LE, GE, LE], [2.5, -1.0, 5.0])
        res, ref = solve_lp(fixed), solve_lp(by_hand)
        assert res.status == ref.status == OPTIMAL
        assert res.solution[1] == 1.5
        assert res.solution[[0, 2]] == pytest.approx(ref.solution, abs=1e-12)
        assert res.objective_value == pytest.approx(ref.objective_value - 3.0, abs=1e-12)
        assert res.objective_value == pytest.approx(-10.5, abs=1e-9)

    def test_all_columns_fixed(self):
        lp = make_lp(
            [1.0, -2.0], [[1.0, 1.0], [1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], [LE, GE, EQ, EQ], [3.0, -1.0, 1.0, 2.0]
        )
        res = solve_lp(lp)
        assert res.status == OPTIMAL
        assert res.solution.tolist() == [1.0, 2.0]
        assert res.objective_value == -3.0

    def test_all_columns_fixed_infeasible(self):
        lp = make_lp([1.0, -2.0], [[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [LE, EQ, EQ], [2.0, 1.0, 2.0])
        assert solve_lp(lp).status == INFEASIBLE


class TestStandardForm:
    """One LP with rows of each sense, each with both signs of the right-hand side."""

    LP = make_lp(
        [1.0, 2.0, 3.0],
        [
            [1.0, 1.0, 1.0],
            [0.0, 1.0, 1.0],
            [1.0, 0.0, 1.0],
            [1.0, -1.0, 0.0],
            [0.0, 1.0, -1.0],
            [-1.0, 0.0, -1.0],
            [1.0, 0.0, 0.0],
        ],
        [LE, GE, EQ, LE, GE, EQ, LE],
        [4.0, 1.0, 2.0, -1.0, -3.0, -2.0, 0.5],
    )

    def test_system(self):
        std = _standard_form(self.LP)
        # The structural columns are the LP's own. Rows 3-5 have a negative
        # rhs and are negated, so row 3 (<=) gets a surplus and an
        # artificial, row 4 (>=) a slack, and row 5 (=) an artificial.
        structural = [
            [1, 1, 1],
            [0, 1, 1],
            [1, 0, 1],
            [-1, 1, 0],
            [0, -1, 1],
            [1, 0, 1],
            [1, 0, 0],
        ]
        # Slack/surplus columns for rows 0, 1, 3, 4, 6; artificials for rows 1, 2, 3, 5.
        slack = np.zeros((7, 5))
        slack[[0, 1, 3, 4, 6], range(5)] = [1, -1, -1, 1, 1]
        artificial = np.zeros((7, 4))
        artificial[[1, 2, 3, 5], range(4)] = 1
        assert np.array_equal(std.matrix, np.hstack([structural, slack, artificial]))
        assert std.rhs.tolist() == [4.0, 1.0, 2.0, 1.0, 3.0, 2.0, 0.5]
        assert std.basis.tolist() == [3, 8, 9, 10, 6, 11, 7]
        assert std.artificial.tolist() == [False] * 8 + [True] * 4
        assert std.cost.tolist() == [1.0, 2.0, 3.0] + [0.0] * 9
        assert std.row_sign.tolist() == [1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0]

    def test_signed_zeros(self):
        # Slack and artificial columns hold +0.0 off their row, and only a
        # negative rhs is negated: a -0.0 rhs stays -0.0.
        std = _standard_form(self.LP)
        added = std.matrix[:, 3:]
        assert not np.signbit(added[added == 0]).any()
        zero_rhs = _standard_form(make_lp([1.0], [[1.0]], [GE], [-0.0]))
        assert np.signbit(zero_rhs.rhs).tolist() == [True]


class TestValidation:
    def test_dimension_mismatch_is_validation_error(self):
        lp = LinearProgram(
            objective=np.array([1.0, 2.0]),
            matrix=np.array([[1.0, 0.0, 3.0]]),
            senses=(LE,),
            rhs=np.array([1.0]),
        )
        with pytest.raises(ValidationError) as err:
            solve_lp(lp)
        assert "matrix" in str(err.value)

    @pytest.mark.parametrize("matrix", [np.array([1.0, 2.0]), np.array(1.0)])
    def test_non_2d_matrix_rejected(self, matrix):
        lp = LinearProgram(objective=np.array([1.0, 2.0]), matrix=matrix, senses=(LE,), rhs=np.array([1.0]))
        with pytest.raises(ValidationError) as err:
            solve_lp(lp)
        assert err.value.field == "matrix"

    def test_bad_sense_string(self):
        lp = make_lp([1.0], [[1.0]], ["<"], [1.0])
        with pytest.raises(ValidationError) as err:
            solve_lp(lp)
        assert "senses[0]" in str(err.value)


class TestImpliedBounds:
    """Every variable is >= 0: the bounds are read-only properties, not arguments."""

    def test_lower_and_upper_are_zeros_and_infinity(self):
        lp = make_lp([1.0, -2.0, 0.5], [[1.0, 1.0, 1.0]], [LE], [1.0])
        assert lp.lower.tolist() == [0.0, 0.0, 0.0]
        assert lp.upper.tolist() == [INF, INF, INF]
        assert not np.signbit(lp.lower).any()

    @pytest.mark.parametrize("argument", [{"lower": [0.0]}, {"upper": [1.0]}, {"sense": "minimize"}])
    def test_bound_and_sense_arguments_rejected(self, argument):
        with pytest.raises(TypeError):
            LinearProgram(objective=[1.0], matrix=[[1.0]], senses=(LE,), rhs=[1.0], **argument)


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
    """A random LP built around a known feasible point x0 >= 0, with a <= cap row on every variable."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=5))
    coeff = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
    matrix = np.array([[draw(coeff) for _ in range(n)] for _ in range(m)])
    x0 = np.array([draw(st.floats(min_value=0.0, max_value=3.0, allow_nan=False)) for _ in range(n)])
    slack = np.array([draw(st.floats(min_value=0.0, max_value=2.0, allow_nan=False)) for _ in range(m)])
    objective = np.array([draw(coeff) for _ in range(n)])
    cap = np.array([draw(st.floats(min_value=3.0, max_value=8.0, allow_nan=False)) for _ in range(n)])
    lp = LinearProgram(
        objective=objective,
        matrix=np.vstack([matrix, np.eye(n)]),
        senses=(LE,) * (m + n),
        rhs=np.concatenate([matrix @ x0 + slack, cap]),
    )
    return lp, x0


class TestRandomizedProperties:
    @given(feasible_minimization())
    @settings(max_examples=60, deadline=None)
    def test_feasible_instances_solve_and_dominate_witness(self, case):
        lp, x0 = case
        res = solve_lp(lp)
        # x0 is feasible by construction, so the LP cannot be infeasible, and
        # a cap row on every variable rules out unboundedness.
        assert res.status == OPTIMAL
        assert res.objective_value <= float(lp.objective @ x0) + 1e-8
        assert np.all(lp.matrix @ res.solution <= lp.rhs + 1e-9 * np.maximum(1.0, np.abs(lp.rhs)))
        assert np.all(res.solution >= 0.0)


def random_mixed_lp(rng: np.random.Generator) -> LinearProgram:
    """A small LP mixing every row sense, both rhs signs and every kind of column.

    Every column is >= 0; a boxed one (narrow, or 2000 wide) has a <= cap
    row after the drawn rows, and a free one is split into itself and a
    negated copy at the end. Small integer data keeps every instance well
    conditioned, so statuses are not decided by rounding.
    """
    n, m = int(rng.integers(1, 7)), int(rng.integers(0, 7))
    objective = rng.integers(-3, 4, size=n).astype(float)
    matrix = rng.integers(-3, 4, size=(m, n)).astype(float)
    senses = rng.choice([LE, GE, EQ], size=m, p=[0.45, 0.35, 0.2]).tolist()
    rhs = rng.integers(-6, 7, size=m).astype(float)
    kinds = rng.choice(["boxed", "wide", "lower", "free"], size=n)
    caps = {"boxed": float(rng.integers(1, 5)), "wide": 2e3}
    capped = [j for j, kind in enumerate(kinds) if kind in caps]
    free = np.flatnonzero(kinds == "free")
    return make_lp(
        np.concatenate([objective, -objective[free]]),
        np.vstack([np.hstack([matrix, -matrix[:, free]]), np.eye(n, n + free.size)[capped]]),
        senses + [LE] * len(capped),
        np.concatenate([rhs, [caps[kinds[j]] for j in capped]]),
    )


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


class TestDuals:
    """``LpResult.duals`` are an optimal dual solution, in the original rows' signs."""

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
            # A "<=" row is priced <= 0 and a ">=" row >= 0.
            sign = np.array([{LE: -1.0, GE: 1.0, EQ: 0.0}[s] for s in lp.senses])
            assert np.all(sign * y >= -1e-9), lp
            gap = lp.matrix @ res.solution - lp.rhs
            assert np.all(np.abs(y * gap) <= 1e-9), lp
            # Dual feasibility on x >= 0, complementary slackness on the
            # columns, and the dual objective y·rhs equals the optimum.
            reduced = lp.objective - lp.matrix.T @ y
            assert np.all(reduced >= -1e-9), lp
            assert np.all(np.abs(reduced * res.solution) <= 1e-9), lp
            assert float(y @ lp.rhs) == pytest.approx(res.objective_value, rel=1e-9, abs=1e-9), lp
            senses.update(lp.senses)
        assert len(senses) == 3  # each row sense

    def test_duals_follow_the_row_sign_and_the_problem_sense(self):
        rng = np.random.default_rng(7)
        compared = 0
        for _ in range(100):
            lp = random_mixed_lp(rng)
            res = solve_lp(lp)
            if res.status != OPTIMAL or not lp.senses:
                continue
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
            # A nondegenerate vertex has exactly n active rows and zero columns, and a unique dual.
            x = res.solution
            tight_rows = np.abs(lp.matrix @ x - lp.rhs) <= 1e-9
            if np.count_nonzero(tight_rows) + np.count_nonzero(np.abs(x) <= 1e-9) != x.size:
                continue
            senses = np.array(lp.senses)
            ref = optimize.linprog(
                lp.objective,
                A_ub=np.vstack([lp.matrix[senses == LE], -lp.matrix[senses == GE]]),
                b_ub=np.concatenate([lp.rhs[senses == LE], -lp.rhs[senses == GE]]),
                A_eq=lp.matrix[senses == EQ],
                b_eq=lp.rhs[senses == EQ],
                bounds=(0, None),
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
            assert res.duals == pytest.approx(expected, rel=1e-9, abs=1e-9), lp
            compared += 1
        assert compared > 50


class TestKeptInverse:
    """The kept basis inverse pivots as a basis inverted afresh at every pivot would."""

    def test_interval_lp_matches_reference(self, caplog, monkeypatch):
        pi, _ = random_interval_instance(np.random.default_rng(50), m=50)
        fs, u = to_generic(pi), market_bidding(1.0, 1.6)
        [(exact, _, _)] = logged_solves(caplog, monkeypatch, fs, u)
        assert_same_result(solve_lp(exact), solve_with_reference(exact))
        # The exact path's LP takes a few pivots (11 + 0 when written); its LP
        # dual, the tall (b, lambda, nu) program over the same points, takes
        # more than 100 (103 + 32), so the inverse is rebuilt mid-phase.
        lp = tall_program(fs, u, *_cell_rows(fs), u.decision_bounds)
        _, (_, _, phase1, phase2, refactorizations, start) = solve_logged(caplog, lp)
        assert phase1 + phase2 > 100
        assert start == "none"
        assert refactorizations == math.ceil(phase1 / 50) + math.ceil(phase2 / 50)
        assert_same_result(solve_lp(lp), solve_with_reference(lp))

    def test_every_bound_kind_matches_reference(self):
        # The LPs of TestAgainstHighs: boxed columns with their cap rows, wide,
        # lower-only and split free columns, and every status.
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
            rows, cols, phase1, phase2, refactorizations, start = fields
            assert (rows, cols) == _standard_form(lp).matrix.shape
            # Round 1 starts at its slacks and elastic columns, every later
            # round from the round before: each a feasible vertex.
            assert (given is not None, start) == (True, "used")
            assert phase1 == 0
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


@pytest.mark.parametrize("name", list(MOMENT_WINDOWS))
def test_moment_solve_inverts_at_most_5_by_5(monkeypatch, name):
    # Every exchange LP has n + 2 = 5 rows, one per forecast plus the mass and balance rows.
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


#: minimize -x - y s.t. x + y <= 4, x - y <= 1, x + y >= 1. Its standard-form
#: columns are x, y, the slacks of rows 0 and 1, the surplus of row 2 and the
#: artificial of row 2, and its cold solve runs phase 1 and phase 2.
TRIANGLE = make_lp([-1.0, -1.0], [[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]], [LE, LE, GE], [4.0, 1.0, 1.0])


def market_m6_exact_lp(b):
    """The exact fixed-decision LP that ``worst_case_value`` solves on the bundled market_m6 scenario at decision b."""
    sc = load_scenario("market_m6")
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = record_solves(monkeypatch)
        worst_case_value(sc.forecast_set, sc.utility, b)
    [(lp, _)] = calls
    return lp


class TestWarmStart:
    """A start is used when it is a feasible vertex, and never changes the answer."""

    @pytest.mark.parametrize(
        "lp",
        [
            TRIANGLE,
            # x <= 1 and y <= 2 as cap rows; its optimum has y on its cap.
            make_lp([-1.0, -1.0], [[2.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [LE, LE, LE], [2.5, 1.0, 2.0]),
            market_m6_exact_lp(0.3),
        ],
        ids=["triangle", "boxed", "market_m6"],
    )
    def test_own_optimal_basis_takes_no_pivots(self, caplog, lp):
        cold, (_, _, *cold_pivots, _, _) = solve_logged(caplog, lp)
        assert sum(cold_pivots) > 0
        warm, (_, _, phase1, phase2, _, start) = solve_logged(caplog, lp, cold.basis)
        assert (phase1, phase2, start) == (0, 0, "used")
        assert_same_result(warm, cold)
        assert np.array_equal(warm.basis.columns, cold.basis.columns)

    @pytest.mark.parametrize(
        "columns",
        [
            [0, 3, 4],  # x = 4 from row 0 leaves row 1's slack at -3
            [1, 2, 4],  # y = -1 from row 1
            [2, 3, 5],  # the cold start itself: row 2's artificial
            [0, 1, 3],  # rows 0 and 2 coincide on x and y: singular
            [0, 0, 3],  # a column named twice
            [0, 3],  # fewer columns than rows
        ],
        ids=["infeasible", "primal-and-dual-infeasible", "artificial", "singular", "repeated", "short"],
    )
    def test_rejected_start_solves_cold(self, caplog, columns):
        cold, cold_fields = solve_logged(caplog, TRIANGLE)
        warm, warm_fields = solve_logged(caplog, TRIANGLE, Basis(np.array(columns)))
        assert cold_fields[-1] == "none"
        assert warm_fields == (*cold_fields[:-1], "rejected")
        assert_same_result(warm, cold)

    def test_feasible_start_pivots_to_the_optimum(self, caplog):
        # x = 1 on row 2 with both slacks basic: a feasible, non-optimal vertex.
        cold = solve_lp(TRIANGLE)
        warm, (_, _, phase1, phase2, _, start) = solve_logged(caplog, TRIANGLE, Basis(np.array([2, 3, 0])))
        assert (phase1, start) == (0, "used")
        assert phase2 > 0
        assert warm.objective_value == cold.objective_value == -4.0

    # After a moved right-hand side the old optimum is used where it is still
    # primal feasible (and is then optimal) and solved cold where it is not;
    # a moved objective keeps it primal feasible, so phase 2 pivots on from it.
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
            )
            start = first.basis.with_inserted_columns(lp.objective.size, k)
            assert _standard_form(grown).matrix[:, start.columns].tolist() == _standard_form(lp).matrix[
                :, first.basis.columns
            ].tolist()
            warm, (_, _, phase1, _, _, outcome) = solve_logged(caplog, grown, start)
            cold = solve_lp(grown)
            outcomes[outcome] += 1
            if _standard_form(lp).artificial[first.basis.columns].any():
                # An artificial that phase 1 left basic at zero makes no start.
                assert outcome == "rejected", grown
            else:
                assert (outcome, phase1) == ("used", 0), grown
            assert warm.status == cold.status, grown
            if cold.status == OPTIMAL:
                assert warm.objective_value == pytest.approx(cold.objective_value, rel=1e-9, abs=1e-9), grown
            outcomes[cold.status] += 1
        assert outcomes["used"] > 100 and outcomes[OPTIMAL] and outcomes[UNBOUNDED], outcomes
