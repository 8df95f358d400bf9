"""Tests for the robust planning solver (exact interval path and exchange loop)."""

import logging
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustplan.errors import AmbiguitySetEmpty, ValidationError
from robustplan.forecast import (
    AffineFunction,
    DiscreteDistribution,
    Domain,
    Forecast,
    ForecastSet,
    IndicatorInterval,
    NegatedIndicatorInterval,
    PredictionIntervals,
    to_generic,
)
from robustplan import simplex
from robustplan.bruteforce import brute_force_worst_case, duality_gap
from robustplan.scenario import load_scenario, parse_scenario
from robustplan.solver import (
    ExchangeConfig,
    _exchange,
    solve_forecast_set,
    sweep,
    true_expected,
    worst_case_value,
)
from robustplan.utility import market_bidding
from support import (
    MOMENT_WINDOWS,
    dual_feasibility_margin,
    moment_window_doc,
    random_interval_instance,
    random_market,
    record_solves,
    scaled,
)

MARKET = market_bidding(1.0, 1.6)


def binding_pair():
    return PredictionIntervals(
        breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.0, 0.6), upper_probs=(0.4, 1.0)
    )


def vacuous():
    return PredictionIntervals(
        breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.0, 0.0), upper_probs=(1.0, 1.0)
    )


def wide_pair():
    return PredictionIntervals(
        breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.2, 0.3), upper_probs=(0.7, 0.8)
    )


def solve_intervals(pi: PredictionIntervals, u=MARKET):
    return solve_forecast_set(to_generic(pi), u)


def exchange(fs: ForecastSet, u=MARKET):
    """The exchange loop run directly, whatever the forecasts' structure."""
    return _exchange(fs, u, ExchangeConfig(), u.decision_bounds)


def mean_pinned_at(level: float) -> ForecastSet:
    return ForecastSet(
        domain=Domain(0.0, 1.0),
        forecasts=(
            Forecast(AffineFunction(0.0, 1.0), level),
            Forecast(AffineFunction(0.0, -1.0), -level),
        ),
    )


class TestSolvePredictionIntervals:
    def test_binding_pair_instance(self):
        # Worst case piles 0.4 below the cut at x = 0, so the guaranteed value
        # is 0.36*b for b <= 0.5 and 0.48 - 0.6*b above; the peak sits at 0.5.
        sol = solve_intervals(binding_pair())
        assert sol.b_star == pytest.approx(0.5, abs=1e-8)
        assert sol.objective == pytest.approx(0.18, abs=1e-8)

    def test_vacuous_forecasts_bid_nothing(self):
        sol = solve_intervals(vacuous())
        assert sol.b_star == pytest.approx(0.0, abs=1e-8)
        assert sol.objective == pytest.approx(0.0, abs=1e-8)

    def test_mass_pinned_to_upper_half(self):
        pi = PredictionIntervals(
            breakpoints=(0.0, 0.5, 1.0), lower_probs=(0.0, 1.0), upper_probs=(0.0, 1.0)
        )
        sol = solve_intervals(pi)
        assert sol.b_star == pytest.approx(0.5, abs=1e-8)
        assert sol.objective == pytest.approx(0.5, abs=1e-8)

    def test_solution_certificate(self):
        pi = binding_pair()
        sol = solve_intervals(pi)
        fs = to_generic(pi)
        assert np.all(sol.lambda_star >= -1e-9)
        lo, hi = MARKET.decision_bounds
        assert lo <= sol.b_star <= hi
        assert sol.objective == pytest.approx(
            float(-sol.lambda_star @ fs.bounds - sol.eta_star), abs=1e-8
        )
        assert dual_feasibility_margin(fs, MARKET, sol) >= -1e-7

    def test_identified_multiplier_sum(self):
        # P(cell 0) <= 0.4 and P(cell 1) >= 0.6 are the same constraint through
        # total mass, so only the sum of their multipliers is determined.
        sol = solve_intervals(binding_pair())
        assert sol.lambda_star[0] + sol.lambda_star[3] == pytest.approx(0.8, abs=1e-6)


class TestWorstCaseValue:
    def test_wide_pair_at_half(self):
        fs = to_generic(wide_pair())
        value, duals, eta = worst_case_value(fs, MARKET, 0.5)
        assert value == pytest.approx(-0.06, abs=1e-8)
        assert duals.shape == (4,)
        assert value == pytest.approx(float(-duals @ fs.bounds - eta), abs=1e-8)

    def test_zero_bid_is_safe(self):
        fs = to_generic(wide_pair())
        value, _, _ = worst_case_value(fs, MARKET, 0.0)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_full_bid(self):
        # 0.7 of the mass can sit at x = 0 (J = -0.6) and 0.3 at 0.5 (J = 0.2).
        fs = to_generic(wide_pair())
        value, _, _ = worst_case_value(fs, MARKET, 1.0)
        assert value == pytest.approx(-0.36, abs=1e-8)

    def test_decision_outside_bounds(self):
        fs, truth = to_generic(wide_pair()), DiscreteDistribution(atoms=((0.5, 1.0),))
        for b in (1.5, -0.1):
            for evaluate in (
                lambda: MARKET.value(0.5, b),
                lambda: MARKET.values_at(np.array([0.5]), b),
                lambda: worst_case_value(fs, MARKET, b),
                lambda: brute_force_worst_case(fs, MARKET, b),
                lambda: true_expected(truth, MARKET, b),
            ):
                with pytest.raises(ValidationError) as excinfo:
                    evaluate()
                assert excinfo.value.field == "b"


class TestSolveGeneric:
    def test_mean_pinned(self):
        sol = solve_forecast_set(mean_pinned_at(0.5), MARKET)
        assert sol.b_star == pytest.approx(1.0, abs=1e-3)
        assert sol.objective == pytest.approx(0.2, abs=1e-3)
        assert sol.max_violation is not None and sol.max_violation <= 1e-7

    def test_no_constraints(self):
        fs = ForecastSet(domain=Domain(0.0, 1.0), forecasts=())
        sol = exchange(fs)
        assert sol.b_star == pytest.approx(0.0, abs=1e-8)
        assert sol.objective == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("pi_factory", [binding_pair, vacuous, wide_pair])
    def test_agrees_with_interval_path(self, pi_factory):
        pi = pi_factory()
        exact = solve_intervals(pi)
        via_exchange = exchange(to_generic(pi))
        assert via_exchange.objective == pytest.approx(exact.objective, abs=1e-6)

    def test_contradictory_means_detected(self):
        fs = ForecastSet(
            domain=Domain(0.0, 1.0),
            forecasts=(
                Forecast(AffineFunction(0.0, 1.0), 0.2),
                Forecast(AffineFunction(0.0, -1.0), -0.8),
            ),
        )
        with pytest.raises(AmbiguitySetEmpty):
            solve_forecast_set(fs, MARKET)


def loop_dual_rows(fs: ForecastSet, u):
    """Reference rows of the exact dual LP, built one (g, x) pair and one piece at a time.

    At each cut in order, the pairs are the g of the cell left of it (taken at
    the cell's midpoint), of the cut itself and of the cell right of it, with
    repeated pairs dropped in first-seen order.
    """
    lo, hi = fs.domain.lower, fs.domain.upper
    cuts = sorted({lo, hi, *(e for e in fs.indicator_endpoints() if lo < e < hi)})
    mids = [(a + b) / 2.0 for a, b in zip(cuts, cuts[1:])]
    pairs = {}
    for i, x in enumerate(cuts):
        for point in mids[max(i - 1, 0) : i] + [x] + mids[i : i + 1]:
            g = fs.values([point])[:, 0]
            pairs.setdefault((tuple(g), x), (g, x))
    matrix, rhs = [], []
    for g, x in pairs.values():
        for a, c, d in u.pieces:
            matrix.append([d, *g, -1.0])
            rhs.append(-(a + c * x))
    return np.array(matrix), np.array(rhs)


class TestClosedRightIndicator:
    """An indicator closed on the right at an interior point prices like its half-open twin."""

    @staticmethod
    def indicator_set(closed_right):
        return ForecastSet(Domain(0.0, 1.0), (Forecast(IndicatorInterval(0.0, 0.5, closed_right=closed_right), 0.8),))

    @pytest.mark.parametrize("b", [0.3, 0.6, 0.9])
    def test_matches_half_open_twin(self, b):
        closed, _, _ = worst_case_value(self.indicator_set(True), MARKET, b)
        twin, _, _ = worst_case_value(self.indicator_set(False), MARKET, b)
        assert closed == pytest.approx(twin, abs=1e-9)

    @pytest.mark.parametrize("b", [0.3, 0.6, 0.9])
    def test_duality_gap(self, b):
        assert duality_gap(self.indicator_set(True), MARKET, b) <= 1e-6


class TestDualLpRows:
    """The vectorized dual-LP builder reproduces the loop construction exactly."""

    def captured_lp(self, monkeypatch, fs, u, b=None):
        calls = record_solves(monkeypatch)
        if b is None:
            solve_forecast_set(fs, u)
        else:
            worst_case_value(fs, u, b)
        return calls[0][0]

    @pytest.mark.parametrize(
        "fs",
        [
            to_generic(binding_pair()),
            to_generic(wide_pair()),
            ForecastSet(
                Domain(0.0, 1.0),
                (
                    Forecast(IndicatorInterval(0.2, 0.6), 0.5),
                    Forecast(NegatedIndicatorInterval(0.4, 1.0, closed_right=True), -0.3),
                ),
            ),
            # With no forecasts every cell has the same (empty) g.
            ForecastSet(Domain(0.0, 1.0), ()),
            # Closed on the right at an interior point: the cut's g is not
            # the g of the cell right of it.
            ForecastSet(Domain(0.0, 1.0), (Forecast(IndicatorInterval(0.0, 0.5, closed_right=True), 0.8),)),
        ],
    )
    @pytest.mark.parametrize("b", [None, 0.3])
    def test_matches_loop_reference(self, monkeypatch, fs, b):
        lp = self.captured_lp(monkeypatch, fs, MARKET, b)
        matrix, rhs = loop_dual_rows(fs, MARKET)
        assert np.array_equal(lp.matrix, matrix)
        assert np.array_equal(lp.rhs, rhs)
        expected_bounds = MARKET.decision_bounds if b is None else (b, b)
        assert (lp.lower[0], lp.upper[0]) == expected_bounds

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_random_instances_match_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        pi, _ = random_interval_instance(rng)
        u = random_market(rng)
        with pytest.MonkeyPatch.context() as monkeypatch:
            lp = self.captured_lp(monkeypatch, to_generic(pi), u)
        matrix, rhs = loop_dual_rows(to_generic(pi), u)
        assert np.array_equal(lp.matrix, matrix)
        assert np.array_equal(lp.rhs, rhs)


class TestExchangeStart:
    """Every exchange-loop LP starts at a feasible vertex, so it needs no phase 1."""

    def test_exchange_lps_have_no_artificials(self, monkeypatch):
        sc = load_scenario(Path(__file__).parent / "golden" / "exchange_mixed.json")
        calls = record_solves(monkeypatch)
        solve_forecast_set(sc.forecast_set, sc.utility, sc.exchange)
        assert calls
        assert not any(simplex._standard_form(lp).artificial.any() for lp, _ in calls)

    # Both raised NumericalFailure ("row 1 (>=) off by -1.420e-09" and "row 74
    # (>=) off by -1.005e-09" with one BLAS thread) while every exchange LP
    # started on artificials and ran phase 1.
    @pytest.mark.parametrize("name", ["mean-x4", "mean-x2"])
    def test_moment_set_certifies(self, name):
        sc = parse_scenario(moment_window_doc(*MOMENT_WINDOWS[name]))
        sol = solve_forecast_set(sc.forecast_set, sc.utility, sc.exchange)
        primal, _ = brute_force_worst_case(sc.forecast_set, sc.utility, sol.b_star, sc.check_grid)
        assert sol.objective == pytest.approx(primal, abs=1e-6)

    # Raised NumericalFailure ("row 35 (>=) off by -1.069e-09" with one BLAS
    # thread) while boxed columns were shifted to x = lo + z with a width row
    # each, which put the basic values near OFFSET_BOX = 1e6.
    def test_high_power_moment_certifies(self):
        sc = parse_scenario(moment_window_doc(*MOMENT_WINDOWS["x30"]))
        sol = solve_forecast_set(sc.forecast_set, sc.utility, sc.exchange)
        primal, _ = brute_force_worst_case(sc.forecast_set, sc.utility, sol.b_star, sc.check_grid)
        assert sol.objective == pytest.approx(primal, abs=1e-6)


class TestExchangeRounds:
    """Every exchange round after the first reoptimizes the round before with a few dual steps."""

    def test_warm_rounds_match_cold_solves(self, caplog, monkeypatch):
        scenarios = [load_scenario(Path(__file__).parent / "golden" / "exchange_mixed.json")]
        scenarios += [parse_scenario(moment_window_doc(*args)) for args in MOMENT_WINDOWS.values()]
        later_pivots = []
        for sc in scenarios:
            caplog.clear()
            calls = record_solves(monkeypatch)
            with caplog.at_level(logging.DEBUG, logger="robustplan"):
                solve_forecast_set(sc.forecast_set, sc.utility, sc.exchange)
            pivots = [
                sum(map(int, re.search(r"pivots (\d+) \+ (\d+) \(phase 1 \+ 2\), (\d+) dual", r.getMessage()).groups()))
                for r in caplog.records
                if r.getMessage().startswith("solve_lp:")
            ]
            assert len(pivots) == len(calls)
            assert calls[0][1] is None and all(start is not None for _, start in calls[1:])
            for lp, start in calls:
                warm, cold = simplex.solve_lp(lp, start=start), simplex.solve_lp(lp)
                assert abs(warm.objective_value - cold.objective_value) <= 1e-9
            later_pivots += pivots[1:]
        assert len(later_pivots) > 5  # x30 alone runs 9 rounds
        assert sum(later_pivots) / len(later_pivots) <= 3


class TestExchangeLog:
    def test_one_debug_line_per_round(self, caplog, monkeypatch):
        sc = parse_scenario(moment_window_doc(0.43401346786117634, 0.3510258816455903, 2, 0.26864588227366176))
        calls = record_solves(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="robustplan"):
            sol = solve_forecast_set(sc.forecast_set, sc.utility, sc.exchange)
        rounds = [
            re.fullmatch(r"exchange round (\d+): (\d+) working points, violation (\S+)", r.getMessage()).groups()
            for r in caplog.records
            if r.name == "robustplan" and r.getMessage().startswith("exchange round")
        ]
        assert len(rounds) > 1
        # Round k solves one LP, whose rows are its working points times the utility pieces.
        assert [int(k) for k, _, _ in rounds] == list(range(1, len(calls) + 1))
        sizes = [int(size) for _, size, _ in rounds]
        assert [size * len(sc.utility.pieces) for size in sizes] == [lp.matrix.shape[0] for lp, _ in calls]
        assert sizes == list(range(sizes[0], sizes[0] + len(sizes)))  # one point added per round
        violations = [float(v) for _, _, v in rounds]
        tolerance = ExchangeConfig().violation_tolerance
        assert all(v > tolerance for v in violations[:-1])
        assert violations[-1] == pytest.approx(sol.max_violation, abs=5e-4 * tolerance)
        assert violations[-1] <= tolerance


class TestEmptyIndicatorSet:
    def empty_set(self) -> ForecastSet:
        # P([0, 1]) <= 0.5 and P([0, 1]) >= 1 cannot both hold.
        return ForecastSet(
            domain=Domain(0.0, 1.0),
            forecasts=(
                Forecast(IndicatorInterval(0.0, 1.0, closed_right=True), 0.5),
                Forecast(NegatedIndicatorInterval(0.0, 1.0, closed_right=True), -1.0),
            ),
        )

    def test_solve_raises(self):
        with pytest.raises(AmbiguitySetEmpty):
            solve_forecast_set(self.empty_set(), MARKET)

    def test_fixed_decision_raises(self):
        with pytest.raises(AmbiguitySetEmpty):
            worst_case_value(self.empty_set(), MARKET, 0.5)


class TestSweep:
    def test_vacuous_values(self):
        result = sweep(to_generic(vacuous()), MARKET, 3)
        assert [b for b, _ in result] == pytest.approx([0.0, 0.5, 1.0])
        assert [w for _, w in result] == pytest.approx([0.0, -0.3, -0.6], abs=1e-9)

    def test_grid_contract(self):
        result = sweep(to_generic(wide_pair()), MARKET, 7)
        assert len(result) == 7
        assert result[0][0] == 0.0 and result[-1][0] == 1.0

    def test_bounded_by_full_solve(self):
        best = solve_intervals(binding_pair()).objective
        assert max(w for _, w in sweep(to_generic(binding_pair()), MARKET, 21)) <= best + 1e-8

    def test_grid_size_validated(self):
        with pytest.raises(ValidationError):
            sweep(to_generic(vacuous()), MARKET, 1)

    @pytest.mark.parametrize("seed", range(6))
    def test_warm_started_values_match_cold_solves(self, caplog, seed):
        rng = np.random.default_rng(seed)
        pi, _ = random_interval_instance(rng)
        fs, u = to_generic(pi), random_market(rng)
        with caplog.at_level(logging.DEBUG, logger="robustplan"):
            pairs = sweep(fs, u, 41)
        starts = [r.getMessage().rsplit(" ", 1)[1] for r in caplog.records if r.getMessage().startswith("solve_lp:")]
        assert len(starts) == 41
        assert starts[0] == "none"
        assert starts.count("used") > 20
        # Dual steps reach the cold solve's optimal basis with its columns in
        # other positions, so a point on such a basis (the one reached by dual
        # steps, and every point that starts from it in turn) may differ from
        # the cold value in the last bits. Every other value is the cold one.
        dual_basis = False
        for (b, value), start in zip(pairs, starts):
            dual_basis = start == "dual" or (dual_basis and start == "used")
            cold = worst_case_value(fs, u, b)[0]
            if dual_basis:
                assert abs(value - cold) <= 1e-12
            else:
                assert np.float64(value).tobytes() == np.float64(cold).tobytes()
        assert "dual" in starts


class TestTrueExpected:
    def test_point_mass_at_bid(self):
        truth = DiscreteDistribution(atoms=((0.5, 1.0),))
        assert true_expected(truth, MARKET, 0.5) == pytest.approx(0.5)

    def test_two_atoms(self):
        truth = DiscreteDistribution(atoms=((0.25, 0.3), (0.75, 0.7)))
        assert true_expected(truth, MARKET, 0.5) == pytest.approx(0.38)

    def test_zero_bid(self):
        truth = DiscreteDistribution(atoms=((0.25, 0.3), (0.75, 0.7)))
        assert true_expected(truth, MARKET, 0.0) == 0.0


class TestSolverProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_certificate_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        pi, _ = random_interval_instance(rng)
        u = random_market(rng)
        sol = solve_intervals(pi, u)
        fs = to_generic(pi)
        assert np.all(sol.lambda_star >= -1e-9)
        assert sol.objective == pytest.approx(
            float(-sol.lambda_star @ fs.bounds - sol.eta_star), abs=1e-8
        )
        assert dual_feasibility_margin(fs, u, sol) >= -1e-7

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_positive_scaling(self, seed):
        rng = np.random.default_rng(seed)
        pi, _ = random_interval_instance(rng)
        u = random_market(rng)
        factor = float(rng.uniform(0.1, 10.0))
        base = solve_intervals(pi, u)
        rescaled = solve_intervals(pi, scaled(u, factor))
        assert rescaled.objective == pytest.approx(
            factor * base.objective, abs=1e-8 * max(1.0, factor)
        )
        # The base decision must achieve the scaled optimum too (argmax-level
        # invariance; the returned vertex itself may differ under ties).
        value_at_base, _, _ = worst_case_value(to_generic(pi), scaled(u, factor), base.b_star)
        assert value_at_base == pytest.approx(rescaled.objective, abs=1e-7 * max(1.0, factor))

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_tightening_never_hurts(self, seed):
        rng = np.random.default_rng(seed)
        pi, truth = random_interval_instance(rng)
        u = random_market(rng)
        fs = to_generic(pi)
        base = solve_forecast_set(fs, u)

        index = int(rng.integers(len(fs.forecasts)))
        true_value = truth.expectation(fs.forecasts[index].function)
        bounds = fs.bounds
        # Move the bound part of the way toward its true value: still feasible
        # (the truth remains inside) but strictly tighter.
        bounds[index] -= float(rng.uniform(0.1, 0.9)) * (bounds[index] - true_value)
        tightened = solve_forecast_set(fs.with_bounds(bounds), u)
        assert tightened.objective >= base.objective - 1e-8

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_complementary_pairs(self, seed):
        rng = np.random.default_rng(seed)
        pi, _ = random_interval_instance(rng)
        u = random_market(rng)
        sol = solve_intervals(pi, u)
        m = pi.interval_count
        for i in range(m):
            if pi.lower_probs[i] < pi.upper_probs[i]:
                assert min(sol.lambda_star[i], sol.lambda_star[m + i]) <= 1e-8
