"""Acceptance suite: one test per release gate.

Each test is a self-contained end-to-end check of a property the package
promises: strong duality against the brute-force oracle, exact desk-scale
answers, the tightening lower bound, refinement monotonicity, the
complementary-pair property, under-approximation of the true value on the
bundled scenario, stability of the optimal bid under refinement, and the
feasibility diagnostics.
"""

import time

import numpy as np
import pytest

from robustplan.bruteforce import brute_force_plan, brute_force_worst_case, duality_gap
from robustplan.forecast import (
    AffineFunction,
    Domain,
    Forecast,
    ForecastSet,
    PredictionIntervals,
    feasibility_ball_radius,
    strict_feasibility_slack,
    to_generic,
)
from robustplan.refine import ClampedStepOracle, refine_loop
from robustplan.scenario import load_scenario
from robustplan.sensitivity import lower_bound_after_change, sensitivities
from robustplan.solver import solve_forecast_set, true_expected, worst_case_value
from robustplan.utility import market_bidding
from support import random_interval_instance, random_market

MARKET = market_bidding(1.0, 1.6)


def binding_pair():
    return PredictionIntervals(
        breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.0, 0.6), upper_probs=(0.4, 1.0)
    )


def wide_pair():
    return PredictionIntervals(
        breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.2, 0.3), upper_probs=(0.7, 0.8)
    )


def mean_pinned_at(level):
    return ForecastSet(
        domain=Domain(0.0, 1.0),
        forecasts=(
            Forecast(AffineFunction(0.0, 1.0), level),
            Forecast(AffineFunction(0.0, -1.0), -level),
        ),
    )


def random_suite():
    """The shared batch of randomized instances used by the duality and
    complementary-pair gates: 50 valid strictly-slack interval instances with
    markets drawn under 0 < price < penalty <= 3, plus 10 decisions each."""
    rng = np.random.default_rng(20260817)
    suite = []
    for _ in range(50):
        pi, truth = random_interval_instance(rng)
        u = random_market(rng)
        lo, hi = u.decision_bounds
        bs = rng.uniform(lo, hi, size=10)
        suite.append((pi, truth, u, bs))
    return suite


def test_duality_gap_on_random_instances():
    """Dual solver and brute-force primal agree within 1e-6 on 500 cases,
    and the whole batch stays under the 30-second budget."""
    start = time.monotonic()
    worst = 0.0
    for pi, _, u, bs in random_suite():
        fs = to_generic(pi)
        for b in bs:
            worst = max(worst, duality_gap(fs, u, float(b)))
    elapsed = time.monotonic() - start
    assert worst <= 1e-6, f"max duality gap {worst:.3e} exceeds 1e-6"
    assert elapsed < 30.0, f"batch took {elapsed:.1f}s, budget is 30s"


class TestDeskScaleAnswers:
    """Hand-checkable instances reproduce their worked answers exactly, and
    every answer is cross-checked against the brute-force oracle."""

    def test_wide_pair_worst_cases(self):
        fs = to_generic(wide_pair())
        for b, expected in [(0.5, -0.06), (1.0, -0.36)]:
            value, _, _ = worst_case_value(fs, MARKET, b)
            assert value == pytest.approx(expected, abs=1e-6)
            primal, _ = brute_force_worst_case(fs, MARKET, b)
            assert primal == pytest.approx(expected, abs=1e-6)

    def test_binding_pair_plan(self):
        sol = solve_forecast_set(to_generic(binding_pair()), MARKET)
        assert sol.b_star == pytest.approx(0.5, abs=1e-6)
        assert sol.objective == pytest.approx(0.18, abs=1e-6)
        b, value = brute_force_plan(to_generic(binding_pair()), MARKET, 101)
        assert (b, value) == (pytest.approx(0.5, abs=1e-6), pytest.approx(0.18, abs=1e-6))

    def test_mean_pinned_plan_via_exchange(self):
        fs = mean_pinned_at(0.5)
        sol = solve_forecast_set(fs, MARKET)
        assert sol.b_star == pytest.approx(1.0, abs=1e-3)
        assert sol.objective == pytest.approx(0.2, abs=1e-3)
        b, value = brute_force_plan(fs, MARKET, 101)
        assert (b, value) == (pytest.approx(1.0, abs=1e-3), pytest.approx(0.2, abs=1e-3))

    def test_mass_in_upper_half_plan(self):
        pi = PredictionIntervals(
            breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.0, 1.0), upper_probs=(0.0, 1.0)
        )
        sol = solve_forecast_set(to_generic(pi), MARKET)
        assert sol.b_star == pytest.approx(0.5, abs=1e-6)
        assert sol.objective == pytest.approx(0.5, abs=1e-6)
        b, value = brute_force_plan(to_generic(pi), MARKET, 101)
        assert (b, value) == (pytest.approx(0.5, abs=1e-6), pytest.approx(0.5, abs=1e-6))


class TestTighteningBound:
    """Re-solving after tightening bounds never lands below the multiplier
    prediction, and the worked binding-pair case lands on it exactly."""

    def test_random_tightenings_respect_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pi, truth = random_interval_instance(rng)
            fs = to_generic(pi)
            u = random_market(rng)
            sol = solve_forecast_set(fs, u)
            report = sensitivities(sol, fs)
            room = fs.bounds - fs.values(truth.locations) @ truth.probabilities
            assert room.min() > 0  # generator guarantees a strictly slack truth
            mask = rng.random(room.size) < 0.5
            delta = rng.uniform(0.0, 0.9, size=room.size) * room * mask
            predicted = lower_bound_after_change(report, delta)
            resolved = solve_forecast_set(fs.with_bounds(fs.bounds - delta), u)
            assert resolved.objective >= predicted - 1e-8

    def test_binding_pair_exact_equality(self):
        fs = to_generic(binding_pair())
        sol = solve_forecast_set(fs, MARKET)
        report = sensitivities(sol, fs)
        # The two binding forecasts cap the same event from both sides, so
        # their multipliers share a fixed total of 0.8 however the optimizer
        # splits it.
        pair_mass = float(sol.lambda_star[0] + sol.lambda_star[3])
        assert pair_mass == pytest.approx(0.8, abs=1e-8)

        delta = np.array([0.1, 0.0, 0.0, 0.0])  # cap the low cell at 0.3 instead of 0.4
        resolved = solve_forecast_set(fs.with_bounds(fs.bounds - delta), MARKET)
        assert resolved.objective == pytest.approx(0.26, abs=1e-6)
        # Counting the full shared mass predicts the new optimum exactly ...
        assert sol.objective + pair_mass * 0.1 == pytest.approx(0.26, abs=1e-8)
        # ... while the per-coordinate report alone stays a valid lower bound.
        assert resolved.objective >= lower_bound_after_change(report, delta) - 1e-8


def test_refinement_traces_are_monotone():
    """Every oracle-driven trace improves monotonically, and each step gains
    at least the refined forecast's multiplier times the tightening."""
    rng = np.random.default_rng(11)
    steps_checked = 0
    for _ in range(20):
        pi, truth = random_interval_instance(rng)
        fs = to_generic(pi)
        u = random_market(rng)
        oracle = ClampedStepOracle(
            forecast_set=fs,
            truth=truth,
            step=float(rng.uniform(0.02, 0.12)),
            margin=float(rng.uniform(0.0, 0.02)),
        )
        trace = refine_loop(fs, u, oracle, max_iterations=15)
        records = trace.iterations
        for before, after in zip(records, records[1:]):
            assert after.objective >= before.objective - 1e-8
            j = after.refined_index
            tightened = before.bounds[j] - after.bounds[j]
            assert tightened > 0
            assert after.objective >= before.objective + before.lambda_star[j] * tightened - 1e-8
            steps_checked += 1
    assert steps_checked > 0


def test_complementary_pair_property():
    """At an optimum, a strictly separated interval never carries both an
    active upper and an active lower multiplier."""
    for pi, _, u, _ in random_suite():
        fs = to_generic(pi)
        sol = solve_forecast_set(fs, u)
        m = len(pi.lower_probs)
        for i in range(m):
            if pi.lower_probs[i] < pi.upper_probs[i]:
                both = min(float(sol.lambda_star[i]), float(sol.lambda_star[m + i]))
                assert both <= 1e-8


def test_worst_case_under_approximates_truth():
    """On the bundled market scenario the guaranteed value never exceeds the
    true expected value, and each refinement strictly shrinks the largest gap."""
    scenario = load_scenario("market_m6")
    fs, u, truth = scenario.forecast_set, scenario.utility, scenario.truth
    grid = np.linspace(0.0, 1.0, 101)
    for b in grid:
        worst, _, _ = worst_case_value(fs, u, float(b))
        assert worst <= true_expected(truth, u, float(b)) + 1e-8

    trace = refine_loop(fs, u, scenario.oracle)
    gaps = []
    for record in trace.iterations:
        fs_k = fs.with_bounds(record.bounds)
        gaps.append(
            max(
                true_expected(truth, u, float(b)) - worst_case_value(fs_k, u, float(b))[0]
                for b in grid
            )
        )
    assert len(gaps) >= 2
    for earlier, later in zip(gaps, gaps[1:]):
        assert later < earlier


def test_optimal_bid_interior_and_stable_under_refinement():
    """The bundled scenario's optimal bid sits strictly inside (0, 1) and does
    not move while refinement tightens the forecasts."""
    scenario = load_scenario("market_m6")
    trace = refine_loop(
        scenario.forecast_set, scenario.utility, scenario.oracle
    )
    b0 = trace.iterations[0].b_star
    assert 1e-6 < b0 < 1.0 - 1e-6
    for record in trace.iterations:
        assert record.b_star == pytest.approx(b0, abs=1e-6)


class TestFeasibilityDiagnostics:
    def test_wide_pair_slack(self):
        slack = strict_feasibility_slack(to_generic(wide_pair()), 101)
        assert slack == pytest.approx(0.25, abs=1e-9)

    def test_tight_single_interval_slack(self):
        pi = PredictionIntervals(breakpoints=(0.0, 1.0), lower_probs=(1.0,), upper_probs=(1.0,))
        slack = strict_feasibility_slack(to_generic(pi), 101)
        assert slack == pytest.approx(0.0, abs=1e-12)

    def test_ball_radius_value(self):
        value = feasibility_ball_radius(0.25, (0.7, 0.8, -0.2, -0.3))
        assert value == pytest.approx(0.25 / 1.55, abs=1e-12)
