"""Tests for forecast constraints, interval conversion, and feasibility checks."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustplan.errors import ValidationError
from robustplan.forecast import (
    AffineFunction,
    DiscreteDistribution,
    Domain,
    Forecast,
    ForecastSet,
    IndicatorInterval,
    NegatedIndicatorInterval,
    PowerFunction,
    PredictionIntervals,
    constraint_values,
    feasibility_ball_radius,
    outcome_grid,
    strict_feasibility_slack,
    to_generic,
)


def value_at(fn, x):
    return float(constraint_values(fn, [x])[0])


def two_cell_instance(lower=(0.2, 0.3), upper=(0.7, 0.8)):
    return PredictionIntervals(breakpoints=(0.0, 0.5, 1.0), lower_probs=lower, upper_probs=upper)


class TestConversion:
    def test_whole_domain_single_cell(self):
        pi = PredictionIntervals(breakpoints=(0.0, 1.0), lower_probs=(1.0,), upper_probs=(1.0,))
        fs = to_generic(pi)
        assert len(fs.forecasts) == 2
        up, low = fs.forecasts
        assert isinstance(up.function, IndicatorInterval)
        assert up.function.closed_right and up.bound == 1.0
        assert isinstance(low.function, NegatedIndicatorInterval)
        assert low.bound == -1.0

    def test_two_cells_bounds_and_order(self):
        fs = to_generic(two_cell_instance())
        assert fs.interval_count == 2
        assert fs.bounds == pytest.approx([0.7, 0.8, -0.2, -0.3])
        kinds = [type(fc.function) for fc in fs.forecasts]
        assert kinds == [IndicatorInterval, IndicatorInterval, NegatedIndicatorInterval, NegatedIndicatorInterval]

    def test_half_open_boundary_semantics(self):
        fs = to_generic(two_cell_instance())
        first, second = fs.forecasts[0].function, fs.forecasts[1].function
        assert value_at(first, 0.5) == 0.0
        assert value_at(second, 0.5) == 1.0
        # Last cell is closed on the right so the domain endpoint is covered.
        assert value_at(second, 1.0) == 1.0

    def test_invariant_violation_names_offending_index(self):
        with pytest.raises(ValidationError) as err:
            two_cell_instance(lower=(0.8, 0.3), upper=(0.7, 0.8))
        assert "upper_probs[0]" in str(err.value)

    def test_inconsistent_mass_rejected(self):
        with pytest.raises(ValidationError) as err:
            two_cell_instance(lower=(0.6, 0.6), upper=(0.7, 0.8))
        assert "lower_probs" in str(err.value)
        with pytest.raises(ValidationError) as err:
            two_cell_instance(lower=(0.0, 0.0), upper=(0.3, 0.3))
        assert "upper_probs" in str(err.value)


class TestEvaluation:
    def test_affine_identity(self):
        assert value_at(AffineFunction(0.0, 1.0), 0.5) == 0.5

    def test_power_square(self):
        assert value_at(PowerFunction(2), 0.5) == 0.25

    def test_negated_indicator(self):
        fn = NegatedIndicatorInterval(0.0, 0.5)
        assert value_at(fn, 0.25) == -1.0
        assert value_at(fn, 0.5) == 0.0

    def test_indicator_outside_domain_rejected(self):
        with pytest.raises(ValidationError) as err:
            ForecastSet(
                domain=Domain(0.0, 1.0),
                forecasts=(Forecast(IndicatorInterval(-0.5, 0.5), 1.0),),
            )
        assert "constraints[0]" in str(err.value)


class TestDiscreteDistribution:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution(atoms=((0.0, 0.5), (1.0, 0.6)))

    def test_expectation(self):
        dist = DiscreteDistribution(atoms=((0.25, 0.3), (0.75, 0.7)))
        assert dist.expectation(AffineFunction(0.0, 1.0)) == pytest.approx(0.6)

    @given(
        cut=st.floats(min_value=0.1, max_value=0.9),
        locs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_cell_probabilities_sum_to_one(self, cut, locs, seed):
        # The indicator constraints of any conversion partition the domain, so
        # the cell probabilities of any distribution add up to exactly 1.
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(len(locs)))
        dist = DiscreteDistribution(atoms=tuple(zip(locs, weights)))
        fs = to_generic(
            PredictionIntervals(breakpoints=(0.0, cut, 1.0), lower_probs=(0.0, 0.0), upper_probs=(1.0, 1.0))
        )
        m = fs.interval_count
        total = sum(dist.expectation(fc.function) for fc in fs.forecasts[:m])
        assert total == pytest.approx(1.0, abs=1e-12)


class TestStrictFeasibilitySlack:
    def test_pinned_whole_domain_cell_has_zero_slack(self):
        # The cell probability is forced to exactly 1, so no slack remains.
        pi = PredictionIntervals(breakpoints=(0.0, 1.0), lower_probs=(1.0,), upper_probs=(1.0,))
        assert strict_feasibility_slack(to_generic(pi), 11) == pytest.approx(0.0, abs=1e-9)

    def test_two_cell_slack_value(self):
        # P(cell 0) can sit anywhere in [0.2+z, 0.7-z] with P(cell 1) = 1-P(cell 0)
        # in [0.3+z, 0.8-z]; both windows are nonempty up to z = 0.25.
        fs = to_generic(two_cell_instance())
        assert strict_feasibility_slack(fs, 11) == pytest.approx(0.25, abs=1e-9)

    def test_no_constraints_gives_unbounded_sentinel(self):
        fs = ForecastSet(domain=Domain(0.0, 1.0), forecasts=())
        assert strict_feasibility_slack(fs, 11) == math.inf

    def test_grid_size_validated(self):
        fs = to_generic(two_cell_instance())
        with pytest.raises(ValidationError):
            strict_feasibility_slack(fs, 1)

    def test_witness_on_grid_lower_bounds_slack(self):
        # A grid-supported distribution with uniform slack s forces the LP
        # optimum to be at least s.
        fs = to_generic(two_cell_instance())
        witness = DiscreteDistribution(atoms=((0.0, 0.45), (0.5, 0.55)))
        slacks = witness.constraint_slacks(fs)
        s = float(slacks.min())
        assert s == pytest.approx(0.25, abs=1e-12)
        assert strict_feasibility_slack(fs, 11) >= s - 1e-9


class TestFeasibilityBallRadius:
    def test_symmetry_point(self):
        assert feasibility_ball_radius(1.0, [1.0]) == pytest.approx(1.0)

    def test_two_cell_bound_vector(self):
        # Smallest ratio comes from |−0.3 − 0.25| = 0.55 in the denominator.
        value = feasibility_ball_radius(0.25, [0.7, 0.8, -0.2, -0.3])
        assert value == pytest.approx(0.25 / 1.55, abs=1e-12)

    def test_large_slack_small_bound(self):
        # 10 / (1 + |0 - 10|) = 10/11; the cap at 1 does not engage.
        assert feasibility_ball_radius(10.0, [0.0]) == pytest.approx(10.0 / 11.0, abs=1e-12)

    def test_cap_engages_when_ratio_exceeds_one(self):
        # 3 / (1 + 0.5) = 2, capped to 1.
        assert feasibility_ball_radius(3.0, [2.5]) == 1.0

    def test_no_bounds_gives_cap(self):
        assert feasibility_ball_radius(42.0, []) == 1.0

    def test_nonpositive_slack_rejected(self):
        with pytest.raises(ValidationError):
            feasibility_ball_radius(0.0, [1.0])

    def test_nan_slack_rejected(self):
        with pytest.raises(ValidationError) as err:
            feasibility_ball_radius(float("nan"), [1.0])
        assert err.value.field == "slack"

    def test_infinite_slack_gives_cap_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert feasibility_ball_radius(math.inf, [0.5, -0.5]) == 1.0

    @given(
        zetas=st.tuples(
            st.floats(min_value=1e-3, max_value=5.0),
            st.floats(min_value=1e-3, max_value=5.0),
        ),
        bounds=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_slack(self, zetas, bounds):
        low, high = sorted(zetas)
        assert feasibility_ball_radius(low, bounds) <= feasibility_ball_radius(high, bounds) + 1e-12


class TestForecastSetValues:
    def test_rows_are_constraint_values(self):
        fs = to_generic(two_cell_instance())
        xs = np.array([0.0, 0.25, 0.5, 1.0])
        matrix = fs.values(xs)
        assert matrix.shape == (4, 4)
        for i, fc in enumerate(fs.forecasts):
            assert np.array_equal(matrix[i], constraint_values(fc.function, xs))

    def test_no_forecasts(self):
        fs = ForecastSet(domain=Domain(0.0, 1.0), forecasts=())
        assert fs.values(np.linspace(0.0, 1.0, 7)).shape == (0, 7)


class TestOutcomeGrid:
    @pytest.mark.parametrize("base_points", [1, 2, 5])
    def test_contains_endpoints_and_probes(self, base_points):
        fs = to_generic(two_cell_instance())
        grid = outcome_grid(fs, base_points)
        for point in (0.0, 0.5, 1.0, 0.5 - 1e-9, 1.0 - 1e-9):
            assert np.any(np.isclose(grid, point, atol=0.0)), point
        assert np.all(np.diff(grid) > 0)
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_probe_past_closed_interior_end(self):
        fs = ForecastSet(
            domain=Domain(0.0, 1.0),
            forecasts=(
                Forecast(IndicatorInterval(0.2, 0.5, closed_right=True), 0.8),
                Forecast(NegatedIndicatorInterval(0.5, 1.0, closed_right=True), -0.1),
            ),
        )
        grid = outcome_grid(fs, 2)
        assert np.any(grid == 0.5 + 1e-9)
        # A closed end at the top of the domain has no point past it.
        assert grid[-1] == 1.0 and np.all(grid[:-1] < 1.0)

    def test_kinks_are_clipped_and_merged(self):
        fs = ForecastSet(domain=Domain(0.0, 1.0), forecasts=())
        grid = outcome_grid(fs, 3, kinks=[0.3, 0.5, 2.0])
        assert grid.tolist() == [0.0, 0.3, 0.5, 1.0]
