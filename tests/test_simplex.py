"""Tests for the dense two-phase simplex core."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustplan.errors import ValidationError
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
        ],
        [LE, GE, EQ, LE, GE, EQ],
        # Minus the row at the base point (2, 1, 3, -1, 0): 15, 4, 2, -2, -4, -5.
        [20.0, 4.0, 5.0, 0.0, -3.0, -6.0],
        [2.0, 1.0, -INF, -1.0, -INF],
        [2.0, INF, 3.0, 4.0, INF],
    )

    def test_system(self):
        std = _standard_form(self.LP)
        # Structural columns z0..z4 stand for x1, -x2, x3, x4+, x4-; the last
        # row is x3's width. Rows 3-5 had a negative rhs and are negated, so
        # row 3 (<=) gets a surplus and row 4 (>=) a slack.
        structural = [
            [1, -1, 1, 1, -1],
            [1, 0, 1, 0, 0],
            [0, -1, 0, 1, -1],
            [0, 0, 0, -1, 1],
            [-1, 0, 0, 1, -1],
            [0, 0, -1, -1, 1],
            [0, 0, 1, 0, 0],
        ]
        # Slack/surplus columns for rows 0, 1, 3, 4, 6; artificials for rows 1, 2, 3, 5.
        slack = np.zeros((7, 5))
        slack[[0, 1, 3, 4, 6], range(5)] = [1, -1, -1, 1, 1]
        artificial = np.zeros((7, 4))
        artificial[[1, 2, 3, 5], range(4)] = 1
        assert np.array_equal(std.matrix, np.hstack([structural, slack, artificial]))
        assert std.rhs.tolist() == [15.0, 4.0, 2.0, 2.0, 4.0, 5.0, 5.0]
        assert std.basis.tolist() == [5, 10, 11, 12, 8, 13, 9]
        assert std.artificial.tolist() == [False] * 10 + [True] * 4
        # Maximize, so the cost of each structural column is -sign * c[var].
        assert std.cost.tolist() == [-2.0, 3.0, -4.0, -5.0, 5.0] + [0.0] * 9
        assert std.var.tolist() == [1, 2, 3, 4, 4]
        assert std.sign.tolist() == [1.0, -1.0, 1.0, 1.0, -1.0]

    def test_undo(self):
        std = _standard_form(self.LP)
        z = np.concatenate([[0.5, 1.0, 2.0, 3.0, 1.0], np.full(9, 7.0)])
        assert std.original_point(z).tolist() == [2.0, 1.5, 2.0, 1.0, 2.0]

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
