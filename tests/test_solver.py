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
    PowerFunction,
    PredictionIntervals,
    feasibility_ball_radius,
    outcome_grid,
    strict_feasibility_slack,
    to_generic,
)
from robustplan import simplex
from robustplan.bruteforce import GridSpec, brute_force_plan, brute_force_worst_case, duality_gap
from robustplan.refine import ClampedStepOracle, refine_loop
from robustplan.scenario import load_scenario, parse_scenario
from robustplan.solver import (
    MULTIPLIER_BOX,
    OFFSET_BOX,
    ExchangeConfig,
    _distribution_lp,
    _exchange,
    _exchange_solution,
    solve_forecast_set,
    sweep,
    true_expected,
    worst_case_value,
)
from robustplan.utility import Utility, market_bidding
from support import (
    MOMENT_WINDOWS,
    dual_feasibility_margin,
    logged_solves,
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


def _integer_parameters():
    """(field, call) pairs: each call passes its argument as the integer parameter ``field``."""
    fs = to_generic(wide_pair())
    oracle = ClampedStepOracle(fs, DiscreteDistribution(atoms=((0.5, 1.0),)), 0.1)
    calls = {
        "refine_loop": ("max_iterations", lambda v: refine_loop(fs, MARKET, oracle, max_iterations=v)),
        "sweep": ("grid_size", lambda v: sweep(fs, MARKET, v)),
        "strict_feasibility_slack": ("grid_size", lambda v: strict_feasibility_slack(fs, v)),
        "brute_force_plan": ("b_grid", lambda v: brute_force_plan(fs, MARKET, v)),
        "GridSpec": ("base_points", lambda v: GridSpec(base_points=v)),
        "initial_grid_points": ("initial_grid_points", lambda v: ExchangeConfig(initial_grid_points=v)),
        "max_rounds": ("max_rounds", lambda v: ExchangeConfig(max_rounds=v)),
        "search_grid_points": ("search_grid_points", lambda v: ExchangeConfig(search_grid_points=v)),
        "PowerFunction": (
            "constraints[0].exponent",
            lambda v: ForecastSet(Domain(0.0, 1.0), (Forecast(PowerFunction(v), 0.5),)),
        ),
    }
    return [pytest.param(field, call, id=name) for name, (field, call) in calls.items()]


class TestIntegerParameters:
    @pytest.mark.parametrize("value", [2.5, float("nan"), True, np.float64(3.0)])
    @pytest.mark.parametrize(("field", "call"), _integer_parameters())
    def test_non_integers_rejected_up_front(self, field, call, value):
        with pytest.raises(ValidationError) as excinfo:
            call(value)
        assert excinfo.value.field == field

    @pytest.mark.parametrize(("field", "call"), _integer_parameters())
    def test_numpy_integers_accepted(self, field, call):
        call(np.int64(3))


def _real_parameters():
    """(field, call) pairs: each call passes its argument as a real parameter that ``field`` names."""
    fs = to_generic(wide_pair())
    truth = DiscreteDistribution(atoms=((0.5, 1.0),))
    calls = {
        "violation_tolerance": ("violation_tolerance", lambda v: ExchangeConfig(violation_tolerance=v)),
        "step": ("step", lambda v: ClampedStepOracle(fs, truth, v)),
        "margin": ("margin", lambda v: ClampedStepOracle(fs, truth, 0.1, margin=v)),
        "Domain": ("domain", lambda v: Domain(0.0, v)),
        "AffineFunction": (
            "constraints[0]",
            lambda v: ForecastSet(Domain(0.0, 1.0), (Forecast(AffineFunction(v, 1.0), 3.0),)),
        ),
        "bound": ("constraints[0]", lambda v: ForecastSet(Domain(0.0, 1.0), (Forecast(AffineFunction(0.0, 1.0), v),))),
        "breakpoints": ("breakpoints[0]", lambda v: PredictionIntervals((0.0, v), (1.0,), (1.0,))),
        "atom location": ("atoms[0]", lambda v: DiscreteDistribution(atoms=((v, 1.0),))),
        "atom probability": ("atoms[0]", lambda v: DiscreteDistribution(atoms=((0.5, v),))),
        "pieces": ("pieces[0]", lambda v: Utility(((v, 0.0, 0.0),), (0.0, 1.0))),
        "decision_bounds": ("decision_bounds", lambda v: Utility(((0.0, 1.0, 0.0),), (0.0, v))),
        "lower_probs": ("lower_probs[0]", lambda v: PredictionIntervals((0.0, 0.5, 1.0), (v, 0.0), (1.0, 1.0))),
        "upper_probs": ("upper_probs[0]", lambda v: PredictionIntervals((0.0, 0.5, 1.0), (0.0, 0.0), (v, 1.0))),
        "IndicatorInterval": (
            "constraints[0]",
            lambda v: ForecastSet(Domain(0.0, 1.0), (Forecast(IndicatorInterval(0.0, v), 0.5),)),
        ),
        "decision": ("b", lambda v: worst_case_value(fs, MARKET, v)),
        "improvement_tolerance": (
            "improvement_tolerance",
            lambda v: refine_loop(fs, MARKET, ClampedStepOracle(fs, truth, 0.1), improvement_tolerance=v),
        ),
        "slack": ("slack", lambda v: feasibility_ball_radius(v, [0.1])),
        "price": ("price", lambda v: market_bidding(v, 2.0)),
        "penalty": ("penalty", lambda v: market_bidding(0.5, v)),
    }
    return [pytest.param(field, call, id=name) for name, (field, call) in calls.items()]


class TestRealParameters:
    # A bool is an int to Python, so True would pass as 1 without its own check.
    @pytest.mark.parametrize("value", [True, np.True_])
    @pytest.mark.parametrize(("field", "call"), _real_parameters())
    def test_bools_rejected(self, field, call, value):
        with pytest.raises(ValidationError) as excinfo:
            call(value)
        assert excinfo.value.field == field

    # A numeric string would pass as its number wherever float() came before the check.
    @pytest.mark.parametrize("value", ["0.5", None])
    @pytest.mark.parametrize(("field", "call"), _real_parameters())
    def test_non_numbers_rejected(self, field, call, value):
        with pytest.raises(ValidationError) as excinfo:
            call(value)
        assert excinfo.value.field == field

    @pytest.mark.parametrize("value", [1, 1.0, np.int64(1), np.float64(1.0)])
    @pytest.mark.parametrize(("field", "call"), _real_parameters())
    def test_numbers_accepted(self, field, call, value):
        call(value)


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


def exchange_scenarios():
    """The exchange_mixed golden scenario and the ``MOMENT_WINDOWS`` sets."""
    scenarios = [load_scenario(Path(__file__).parent / "golden" / "exchange_mixed.json")]
    return scenarios + [parse_scenario(moment_window_doc(*args)) for args in MOMENT_WINDOWS.values()]


def logged_exchange(caplog, monkeypatch, sc):
    """Each round's (lp, start) in an exchange solve, with its DEBUG line's phase-1, phase-2 and dual pivots and start."""
    caplog.clear()
    solves = logged_solves(caplog, monkeypatch, sc.forecast_set, sc.utility, sc.exchange)
    return [(lp, start, (p1, p2, dual, outcome)) for lp, start, (_, _, p1, p2, dual, *_, outcome) in solves]


class TestExchangeStart:
    """Every exchange-loop LP starts at a feasible vertex, so it needs no phase 1."""

    def test_exchange_lps_start_at_a_feasible_vertex(self, caplog, monkeypatch):
        for sc in exchange_scenarios():
            solves = logged_exchange(caplog, monkeypatch, sc)
            assert solves
            for lp, start, (phase1, _, dual, outcome) in solves:
                # Round 1 too: it starts on its slacks and elastic columns.
                assert start is not None and (phase1, dual, outcome) == (0, 0, "used")
                assert not simplex._standard_form(lp).artificial[start.columns].any()

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
    """Every exchange round after the first reoptimizes the round before with a few primal steps."""

    def test_warm_rounds_match_cold_solves(self, caplog, monkeypatch):
        later_pivots = []
        for sc in exchange_scenarios():
            solves = logged_exchange(caplog, monkeypatch, sc)
            pieces = len(sc.utility.pieces)
            for (lp, start, _), (_, next_start, _) in zip(solves, solves[1:]):
                # The next round starts from this round's optimal basis, with
                # the new point's columns inserted after the last ones.
                carried = simplex.solve_lp(lp, start=start).basis.with_inserted_columns(lp.objective.size, pieces)
                assert np.array_equal(next_start.columns, carried.columns)
                assert np.array_equal(next_start.at_upper, carried.at_upper)
            # Every later round takes its start as a feasible vertex: no dual
            # step, no phase 1, none rejected and solved cold.
            for _, start, (phase1, phase2, dual, outcome) in solves[1:]:
                assert (phase1, dual, outcome) == (0, 0, "used")
                later_pivots.append(phase2)
            for lp, start, _ in solves:
                warm, cold = simplex.solve_lp(lp, start=start), simplex.solve_lp(lp)
                assert abs(warm.objective_value - cold.objective_value) <= 1e-9
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
        # Round k solves one LP, whose columns are its working points times
        # the utility pieces plus n + 4 fixed ones, on n + 2 rows.
        assert [int(k) for k, _, _ in rounds] == list(range(1, len(calls) + 1))
        sizes = [int(size) for _, size, _ in rounds]
        n = len(sc.forecast_set.forecasts)
        assert [size * len(sc.utility.pieces) + n + 4 for size in sizes] == [lp.matrix.shape[1] for lp, _ in calls]
        assert all(lp.matrix.shape[0] == n + 2 for lp, _ in calls)
        assert sizes == list(range(sizes[0], sizes[0] + len(sizes)))  # one point added per round
        violations = [float(v) for _, _, v in rounds]
        tolerance = ExchangeConfig().violation_tolerance
        assert all(v > tolerance for v in violations[:-1])
        assert violations[-1] == pytest.approx(sol.max_violation, abs=5e-4 * tolerance)
        assert violations[-1] <= tolerance


def boxed_program(fs: ForecastSet, u, G, xs, decision) -> simplex.LinearProgram:
    """The (b, lambda, nu = -eta) program over the points xs with lambda and eta boxed, one row per (point, piece)."""
    n = G.shape[0]
    a, c, d = np.array(u.pieces).T
    rows = [[dk, *G[:, j], -1.0] for j in range(xs.size) for dk in d]
    rhs = [-(ak + ck * x) for x in xs for ak, ck in zip(a, c)]
    return simplex.LinearProgram(
        objective=np.concatenate([[0.0], -fs.bounds, [1.0]]),
        matrix=np.array(rows),
        senses=(simplex.GE,) * len(rows),
        rhs=np.array(rhs),
        lower=np.concatenate([[decision[0]], np.zeros(n), [-OFFSET_BOX]]),
        upper=np.concatenate([[decision[1]], np.full(n, MULTIPLIER_BOX), [OFFSET_BOX]]),
        sense="maximize",
    )


class TestDistributionLp:
    """The exchange loop's LP is the LP dual of the boxed (b, lambda, eta) program; its row duals solve that program."""

    @pytest.mark.parametrize("decision", [(0.0, 1.0), (0.4, 0.4)])
    @pytest.mark.parametrize("name", list(MOMENT_WINDOWS))
    def test_row_duals_solve_the_boxed_program(self, name, decision):
        sc = parse_scenario(moment_window_doc(*MOMENT_WINDOWS[name]))
        fs, u = sc.forecast_set, sc.utility
        xs = outcome_grid(fs, 16)
        G = fs.values(xs)
        lp = _distribution_lp(fs, u, G, xs, decision)
        assert lp.matrix.shape == (len(fs.forecasts) + 2, len(fs.forecasts) + 4 + xs.size * len(u.pieces))
        sol = _exchange_solution(simplex.solve_lp(lp), fs.bounds, decision)
        # The plan is feasible in the boxed program: it meets every row and bound.
        assert decision[0] <= sol.b_star <= decision[1]
        assert np.all((sol.lambda_star >= 0.0) & (sol.lambda_star <= MULTIPLIER_BOX))
        assert (u.values_at(xs, sol.b_star) + sol.eta_star + sol.lambda_star @ G).min() >= -1e-9
        # And its objective is the program's optimum, found on the program's own side.
        reference = simplex.solve_lp(boxed_program(fs, u, G, xs, decision))
        assert sol.objective == pytest.approx(reference.objective_value, abs=1e-9)
        if decision[0] == decision[1]:
            assert sol.b_star == decision[0]


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
