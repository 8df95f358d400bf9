"""Tests for the discretized primal check path and duality-gap checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustplan.bruteforce import GridSpec, brute_force_plan, brute_force_worst_case, duality_gap
from robustplan.errors import AmbiguitySetEmpty, ValidationError
from robustplan.forecast import (
    AffineFunction,
    Domain,
    Forecast,
    ForecastSet,
    IndicatorInterval,
    NegatedIndicatorInterval,
    PredictionIntervals,
    to_generic,
)
from robustplan.utility import Utility, market_bidding
from support import random_interval_instance, random_market

MARKET = market_bidding(1.0, 1.6)


def wide_pair() -> ForecastSet:
    return to_generic(
        PredictionIntervals(breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.2, 0.3), upper_probs=(0.7, 0.8))
    )


def vacuous() -> ForecastSet:
    return to_generic(
        PredictionIntervals(breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.0, 0.0), upper_probs=(1.0, 1.0))
    )


def binding_pair() -> ForecastSet:
    return to_generic(
        PredictionIntervals(breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.0, 0.6), upper_probs=(0.4, 1.0))
    )


def mean_pinned() -> ForecastSet:
    return ForecastSet(
        domain=Domain(0.0, 1.0),
        forecasts=(
            Forecast(AffineFunction(0.0, 1.0), 0.5),
            Forecast(AffineFunction(0.0, -1.0), -0.5),
        ),
    )


class TestBruteForceWorstCase:
    def test_wide_pair_at_half(self):
        value, worst = brute_force_worst_case(wide_pair(), MARKET, 0.5)
        assert value == pytest.approx(-0.06, abs=1e-9)
        # The witness is feasible and attains the value.
        slacks = worst.constraint_slacks(wide_pair())
        assert np.all(slacks >= -1e-9)
        assert float(worst.probabilities.sum()) == pytest.approx(1.0, abs=1e-12)
        attained = float(worst.probabilities @ MARKET.values_at(worst.locations, 0.5))
        assert attained == pytest.approx(value, abs=1e-9)

    def test_vacuous_collapses_to_worst_point(self):
        value, worst = brute_force_worst_case(vacuous(), MARKET, 0.5)
        assert value == pytest.approx(-0.3, abs=1e-9)
        assert worst.atoms == ((0.0, 1.0),)

    def test_pinned_cells_force_the_distribution(self):
        fs = to_generic(
            PredictionIntervals(breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.3, 0.7), upper_probs=(0.3, 0.7))
        )
        value, _ = brute_force_worst_case(fs, MARKET, 0.5)
        # 0.3 at x = 0 gives -0.3 each unit; 0.7 settles at J = 0.5.
        assert value == pytest.approx(0.3 * (-0.3) + 0.7 * 0.5, abs=1e-9)

    def test_empty_set_detected(self):
        fs = ForecastSet(
            domain=Domain(0.0, 1.0),
            forecasts=(
                Forecast(IndicatorInterval(0.0, 1.0, closed_right=True), 0.5),
                Forecast(NegatedIndicatorInterval(0.0, 1.0, closed_right=True), -1.0),
            ),
        )
        with pytest.raises(AmbiguitySetEmpty):
            brute_force_worst_case(fs, MARKET, 0.5)

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            GridSpec(base_points=1)
        # An indicator no wider than the boundary probe shift cannot be probed.
        narrow = ForecastSet(
            domain=Domain(0.0, 1.0),
            forecasts=(Forecast(AffineFunction(0.0, 1.0), 0.5), Forecast(IndicatorInterval(0.5, 0.5 + 5e-10), 0.5)),
        )
        with pytest.raises(ValidationError) as err:
            brute_force_worst_case(narrow, MARKET, 0.5)
        assert err.value.field == "constraints[1]"


class TestBruteForcePlan:
    def test_mean_pinned_instance(self):
        b, value = brute_force_plan(mean_pinned(), MARKET, 101)
        assert b == pytest.approx(1.0, abs=1e-12)
        assert value == pytest.approx(0.2, abs=1e-6)

    def test_binding_pair_instance(self):
        b, value = brute_force_plan(binding_pair(), MARKET, 101)
        assert b == pytest.approx(0.5, abs=1e-12)
        assert value == pytest.approx(0.18, abs=1e-6)

    def test_vacuous_instance(self):
        b, value = brute_force_plan(vacuous(), MARKET, 101)
        assert b == pytest.approx(0.0, abs=1e-12)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_ties_go_to_lowest_decision(self):
        flat = Utility(pieces=((1.0, 0.0, 0.0),), decision_bounds=(0.0, 1.0))
        b, value = brute_force_plan(vacuous(), flat, 11)
        assert b == 0.0
        assert value == 1.0

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            brute_force_plan(vacuous(), MARKET, 1)


class TestDualityGap:
    @pytest.mark.parametrize("fs_factory", [wide_pair, vacuous, binding_pair])
    @pytest.mark.parametrize("b", [0.0, 0.5, 1.0])
    def test_interval_instances(self, fs_factory, b):
        assert duality_gap(fs_factory(), MARKET, b) <= 1e-6

    def test_constant_utility_exact(self):
        flat = Utility(pieces=((2.5, 0.0, 0.0),), decision_bounds=(0.0, 1.0))
        fs = wide_pair()
        primal, _ = brute_force_worst_case(fs, flat, 0.5)
        assert primal == 2.5
        assert duality_gap(fs, flat, 0.5) == 0.0

    def test_mean_pinned_through_exchange(self):
        assert duality_gap(mean_pinned(), MARKET, 1.0) <= 1e-3

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_strong_duality_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        pi, _ = random_interval_instance(rng)
        u = random_market(rng)
        fs = to_generic(pi)
        for b in rng.uniform(0.0, 1.0, size=3):
            assert duality_gap(fs, u, float(b)) <= 1e-6
