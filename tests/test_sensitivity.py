"""Tests for forecast pricing and the perturbation lower bound."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustplan.errors import ValidationError
from robustplan.forecast import PredictionIntervals, to_generic
from robustplan.sensitivity import (
    LOWER_BOUND,
    UPPER_BOUND,
    lower_bound_after_change,
    sensitivities,
)
from robustplan.solver import solve_forecast_set
from robustplan.utility import market_bidding
from support import random_interval_instance, random_market

MARKET = market_bidding(1.0, 1.6)


def binding_pair():
    return PredictionIntervals(
        breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.0, 0.6), upper_probs=(0.4, 1.0)
    )


def solved_report(pi, u=MARKET):
    fs = to_generic(pi)
    sol = solve_forecast_set(fs, u)
    return sensitivities(sol, fs), sol, fs


class TestSensitivities:
    def test_vacuous_prices_are_zero(self):
        pi = PredictionIntervals(
            breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.0, 0.0), upper_probs=(1.0, 1.0)
        )
        report, _, _ = solved_report(pi)
        assert all(e.value == pytest.approx(0.0, abs=1e-9) for e in report.entries)

    def test_metadata_and_order(self):
        report, sol, _ = solved_report(binding_pair())
        assert report.base_objective == sol.objective
        assert len(report.entries) == 4
        values = [e.value for e in report.entries]
        assert values == sorted(values, reverse=True)
        kinds = {e.forecast_index: e.kind for e in report.entries}
        assert kinds[0] == UPPER_BOUND and kinds[3] == LOWER_BOUND
        intervals = {e.forecast_index: e.interval_index for e in report.entries}
        assert intervals == {0: 0, 1: 1, 2: 0, 3: 1}

    def test_values_are_solver_multipliers_verbatim(self):
        report, sol, _ = solved_report(binding_pair())
        for e in report.entries:
            assert e.value == sol.lambda_star[e.forecast_index]

    def test_identified_pair_sum(self):
        # Tightening either side of the equivalent pair is worth 0.8 per unit.
        report, _, _ = solved_report(binding_pair())
        by_index = {e.forecast_index: e.value for e in report.entries}
        assert by_index[0] + by_index[3] == pytest.approx(0.8, abs=1e-6)

    def test_dimension_mismatch_rejected(self):
        report, sol, fs = solved_report(binding_pair())
        smaller = to_generic(
            PredictionIntervals(breakpoints=(0.0, 1.0), lower_probs=(1.0,), upper_probs=(1.0,))
        )
        with pytest.raises(ValidationError):
            sensitivities(sol, smaller)


class TestLowerBoundAfterChange:
    def test_zero_change_returns_base(self):
        report, sol, _ = solved_report(binding_pair())
        assert lower_bound_after_change(report, np.zeros(4)) == sol.objective

    def test_single_coordinate_bound_is_conservative(self):
        # Tightening only the upper bound: the predicted bound counts only that
        # coordinate's multiplier, and the re-solve may beat it when the
        # multiplier mass sits on the equivalent paired constraint.
        report, _, _ = solved_report(binding_pair())
        delta = np.array([0.1, 0.0, 0.0, 0.0])
        bound = lower_bound_after_change(report, delta)
        assert bound <= 0.26 + 1e-9
        resolved = solve_forecast_set(
            to_generic(
                PredictionIntervals(
                    breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.0, 0.6), upper_probs=(0.3, 1.0)
                )
            ),
            MARKET,
        )
        assert resolved.objective >= bound - 1e-8
        assert resolved.objective == pytest.approx(0.26, abs=1e-8)

    def test_paired_tightening_is_exact_here(self):
        # Tightening both sides of the identified pair counts the full 0.8
        # multiplier mass regardless of how the solver split it, and the
        # prediction is attained exactly.
        report, _, _ = solved_report(binding_pair())
        delta = np.array([0.1, 0.0, 0.0, 0.1])
        bound = lower_bound_after_change(report, delta)
        assert bound == pytest.approx(0.26, abs=1e-8)
        resolved = solve_forecast_set(
            to_generic(
                PredictionIntervals(
                    breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.0, 0.7), upper_probs=(0.3, 1.0)
                )
            ),
            MARKET,
        )
        assert resolved.objective == pytest.approx(bound, abs=1e-8)

    def test_length_mismatch_rejected(self):
        report, _, _ = solved_report(binding_pair())
        with pytest.raises(ValidationError):
            lower_bound_after_change(report, np.zeros(3))

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_bound_holds_under_random_perturbations(self, seed):
        rng = np.random.default_rng(seed)
        pi, truth = random_interval_instance(rng)
        u = random_market(rng)
        fs = to_generic(pi)
        sol = solve_forecast_set(fs, u)
        report = sensitivities(sol, fs)

        # Mix tightenings (toward the truth, so feasibility is preserved) and
        # relaxations; the bound must stay below the re-solved objective.
        bounds = fs.bounds
        true_values = np.array([truth.expectation(fc.function) for fc in fs.forecasts])
        delta = np.zeros(len(bounds))
        for i in range(len(bounds)):
            if rng.uniform() < 0.5:
                delta[i] = rng.uniform(0.0, 0.9) * (bounds[i] - true_values[i])
            else:
                delta[i] = -rng.uniform(0.0, 0.1)
        resolved = solve_forecast_set(fs.with_bounds(bounds - delta), u)
        assert resolved.objective >= lower_bound_after_change(report, delta) - 1e-8
