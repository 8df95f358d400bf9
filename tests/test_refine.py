"""Tests for the sensitivity-ranked refinement loop."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustplan.errors import ContractViolation, ValidationError
from robustplan.forecast import DiscreteDistribution, PredictionIntervals, to_generic
from robustplan.refine import (
    IMPROVEMENT_BELOW_TOLERANCE,
    MAX_ITERATIONS,
    MIN_SENSITIVITY,
    NO_REFINABLE_FORECAST,
    ClampedStepOracle,
    refine_loop,
)
from robustplan.solver import solve_forecast_set
from robustplan.utility import market_bidding
from support import random_interval_instance, random_market

MARKET = market_bidding(1.0, 1.6)


def binding_pair():
    return to_generic(
        PredictionIntervals(breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.0, 0.6), upper_probs=(0.4, 1.0))
    )


def quarter_truth():
    # Cell masses (0.25, 0.75), placed at the cell midpoints.
    return DiscreteDistribution(atoms=((0.25, 0.25), (0.75, 0.75)))


class RecordingOracle:
    """Declines every request and remembers that it was asked."""

    def __init__(self):
        self.calls = []

    def refine(self, forecast_index, current_bound):
        self.calls.append((forecast_index, current_bound))
        return None


class TestTermination:
    def test_exhausted_oracle_stops_immediately(self):
        fs = binding_pair()
        trace = refine_loop(fs, MARKET, RecordingOracle())
        assert trace.termination_reason == NO_REFINABLE_FORECAST
        assert len(trace.iterations) == 1
        assert trace.iterations[0].refined_index is None
        np.testing.assert_array_equal(trace.iterations[0].bounds, fs.bounds)

    def test_zero_sensitivity_forecasts_never_reach_the_oracle(self):
        vacuous = to_generic(
            PredictionIntervals(
                breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.0, 0.0), upper_probs=(1.0, 1.0)
            )
        )
        oracle = RecordingOracle()
        trace = refine_loop(vacuous, MARKET, oracle)
        assert trace.termination_reason == NO_REFINABLE_FORECAST
        assert oracle.calls == []

    def test_iteration_budget(self):
        oracle = ClampedStepOracle(binding_pair(), quarter_truth(), step=0.01, margin=0.05)
        trace = refine_loop(binding_pair(), MARKET, oracle, max_iterations=2)
        assert trace.termination_reason == MAX_ITERATIONS
        assert len(trace.iterations) == 3  # initial solve plus two refinements

    def test_improvement_tolerance(self):
        oracle = ClampedStepOracle(binding_pair(), quarter_truth(), step=0.01, margin=0.05)
        trace = refine_loop(binding_pair(), MARKET, oracle, improvement_tolerance=1.0)
        assert trace.termination_reason == IMPROVEMENT_BELOW_TOLERANCE
        assert len(trace.iterations) == 2

    @pytest.mark.parametrize("tolerance", [-1e-6, float("nan")])
    def test_invalid_improvement_tolerance_rejected(self, tolerance):
        # A NaN tolerance would never stop the loop: improvement < nan is always false.
        oracle = ClampedStepOracle(binding_pair(), quarter_truth(), step=0.01, margin=0.05)
        with pytest.raises(ValidationError) as excinfo:
            refine_loop(binding_pair(), MARKET, oracle, improvement_tolerance=tolerance)
        assert excinfo.value.field == "improvement_tolerance"


class TestBindingPairTrajectory:
    def test_first_refinement_hits_the_identified_pair(self):
        oracle = ClampedStepOracle(binding_pair(), quarter_truth(), step=0.1, margin=0.05)
        trace = refine_loop(binding_pair(), MARKET, oracle)
        objectives = [rec.objective for rec in trace.iterations]
        assert objectives[0] == pytest.approx(0.18, abs=1e-8)
        assert objectives[1] == pytest.approx(0.26, abs=1e-8)
        # The refined coordinate is one side of the 0.8-multiplier pair.
        assert trace.iterations[1].refined_index in (0, 3)
        assert objectives == sorted(objectives)

    def test_bounds_only_tighten(self):
        oracle = ClampedStepOracle(binding_pair(), quarter_truth(), step=0.1, margin=0.05)
        trace = refine_loop(binding_pair(), MARKET, oracle)
        for before, after in zip(trace.iterations, trace.iterations[1:]):
            assert np.all(after.bounds <= before.bounds + 1e-12)
            changed = np.nonzero(np.abs(after.bounds - before.bounds) > 1e-15)[0]
            assert changed.tolist() == [after.refined_index]


class TestOracleContract:
    def test_raising_oracle_rejected(self):
        class RaisingOracle:
            def refine(self, forecast_index, current_bound):
                return current_bound + 1.0

        with pytest.raises(ContractViolation):
            refine_loop(binding_pair(), MARKET, RaisingOracle())

    def test_emptying_refinement_rolls_back(self):
        class EmptyingOracle:
            """Returns a bound that leaves no room for a distribution."""

            def refine(self, forecast_index, current_bound):
                # A negative cap on a cell probability (or a floor above 1)
                # admits no distribution at all.
                return -0.5 if forecast_index < 2 else -1.5

        fs = binding_pair()
        trace = refine_loop(fs, MARKET, EmptyingOracle())
        assert trace.termination_reason == NO_REFINABLE_FORECAST
        assert trace.failed_refinement is not None
        assert len(trace.iterations) == 1
        np.testing.assert_array_equal(trace.iterations[0].bounds, fs.bounds)

    def test_clamped_step_oracle_validation(self):
        with pytest.raises(Exception):
            ClampedStepOracle(binding_pair(), quarter_truth(), step=0.0)
        with pytest.raises(Exception):
            ClampedStepOracle(binding_pair(), quarter_truth(), step=0.1, margin=-1.0)

    def test_clamped_step_oracle_clamps_at_truth_plus_margin(self):
        fs = binding_pair()
        oracle = ClampedStepOracle(fs, quarter_truth(), step=0.3, margin=0.05)
        # Upper bound of cell 0: true mass 0.25, so the floor is 0.30.
        assert oracle.refine(0, 0.4) == pytest.approx(0.30)
        assert oracle.refine(0, 0.30) is None


class TestTraceProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_random_traces_are_monotone_and_guaranteed(self, seed):
        rng = np.random.default_rng(seed)
        pi, truth = random_interval_instance(rng)
        u = random_market(rng)
        fs = to_generic(pi)
        oracle = ClampedStepOracle(
            fs, truth, step=float(rng.uniform(0.02, 0.1)), margin=float(rng.uniform(0.0, 0.02))
        )
        trace = refine_loop(fs, u, oracle, max_iterations=25)

        records = trace.iterations
        for before, after in zip(records, records[1:]):
            assert after.objective >= before.objective - 1e-8
            j = after.refined_index
            tightening = before.bounds[j] - after.bounds[j]
            assert tightening >= -1e-12
            # The accepted step must deliver at least its priced improvement.
            assert after.objective >= before.objective + before.lambda_star[j] * tightening - 1e-8
            # Only forecasts with a meaningful price are sent to the oracle.
            assert before.lambda_star[j] > MIN_SENSITIVITY

        # The truth stays inside the refined set, so the final solve is
        # bounded above by the truth's own expected utility at its decision.
        final_fs = fs.with_bounds(records[-1].bounds)
        assert np.all(truth.constraint_slacks(final_fs) >= -1e-9)
        final = solve_forecast_set(final_fs, u)
        truth_value = float(truth.probabilities @ u.values_at(truth.locations, final.b_star))
        assert final.objective <= truth_value + 1e-8
