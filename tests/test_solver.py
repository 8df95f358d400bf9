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
    _cell_rows,
    _distribution_lp,
    _exchange,
    _exchange_solution,
    _lift_zero_bound_rows,
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
    tall_program,
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


def loop_mass_block(fs: ForecastSet, u):
    """Reference mass columns of the exact LP and their costs, built one (g, x) pair and one piece at a time.

    At each cut in order, the pairs are the g of the cell left of it (taken at
    the cell's midpoint), of the cut itself and of the cell right of it, with
    repeated pairs dropped in first-seen order. Each pair and piece gives the
    column (g, 1, d) at the cost a + c x.
    """
    lo, hi = fs.domain.lower, fs.domain.upper
    cuts = sorted({lo, hi, *(e for e in fs.indicator_endpoints() if lo < e < hi)})
    mids = [(a + b) / 2.0 for a, b in zip(cuts, cuts[1:])]
    pairs = {}
    for i, x in enumerate(cuts):
        for point in mids[max(i - 1, 0) : i] + [x] + mids[i : i + 1]:
            g = fs.values([point])[:, 0]
            pairs.setdefault((tuple(g), x), (g, x))
    columns, costs = [], []
    for g, x in pairs.values():
        for a, c, d in u.pieces:
            columns.append([*g, 1.0, d])
            costs.append(a + c * x)
    return np.array(columns).T, np.array(costs)


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
    """The exact path's LP is ``_distribution_lp`` without elastic columns; its mass block matches the loop construction.

    The rows of a bound of 0 whose g is <= 0 at every point are left out:
    every distribution on the points meets them.
    """

    def captured_lp(self, monkeypatch, fs, u, b=None):
        calls = record_solves(monkeypatch)
        if b is None:
            solve_forecast_set(fs, u)
        else:
            worst_case_value(fs, u, b)
        return calls[0][0]

    @staticmethod
    def assert_matches_loop_reference(lp, fs, u, decision):
        block, costs = loop_mass_block(fs, u)
        kept = [i for i, eps in enumerate(fs.bounds) if eps != 0.0 or (block[i] > 0.0).any()]
        block = block[kept + [-2, -1]]
        n = len(kept)
        assert lp.matrix.shape == (n + 2, 2 + costs.size)
        # s+ and s- price b in ``decision`` through the balance row.
        assert lp.matrix[:, :2].tolist() == [[0.0, 0.0]] * (n + 1) + [[-1.0, 1.0]]
        assert lp.objective[:2].tolist() == [decision[1], -decision[0]]
        assert np.array_equal(lp.matrix[:, 2:], block)
        assert np.array_equal(lp.objective[2:], costs)
        assert lp.senses == (simplex.LE,) * n + (simplex.EQ, simplex.EQ)
        assert np.array_equal(lp.rhs, np.concatenate([fs.bounds[kept], [1.0, 0.0]]))

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
            # An upper probability of 0 has g >= 0, so its row stays in.
            to_generic(PredictionIntervals((0.0, 0.5, 1.0), lower_probs=(0.0, 0.6), upper_probs=(0.0, 1.0))),
        ],
    )
    @pytest.mark.parametrize("b", [None, 0.3])
    def test_matches_loop_reference(self, monkeypatch, fs, b):
        lp = self.captured_lp(monkeypatch, fs, MARKET, b)
        self.assert_matches_loop_reference(lp, fs, MARKET, MARKET.decision_bounds if b is None else (b, b))

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_random_instances_match_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        pi, _ = random_interval_instance(rng)
        u = random_market(rng)
        with pytest.MonkeyPatch.context() as monkeypatch:
            lp = self.captured_lp(monkeypatch, to_generic(pi), u)
        self.assert_matches_loop_reference(lp, to_generic(pi), u, u.decision_bounds)

    def test_left_out_rows_change_no_answer(self):
        # Random partitions with lower probabilities clipped to 0, solved and
        # at a fixed decision: the plan is the one the LP over every row gives
        # after the same lift.
        rng = np.random.default_rng(20261020)
        lost_rows = 0
        for _ in range(150):
            pi, _ = random_interval_instance(rng, int(rng.integers(2, 61)))
            fs, u = to_generic(pi), random_market(rng)
            G, xs = _cell_rows(fs)
            lost_rows += np.any((fs.bounds == 0.0) & np.all(G <= 0.0, axis=1))
            sol = solve_forecast_set(fs, u)
            b = float(rng.uniform(*u.decision_bounds))
            for decision, (objective, lam, eta) in [
                (u.decision_bounds, (sol.objective, sol.lambda_star, sol.eta_star)),
                ((b, b), worst_case_value(fs, u, b)),
            ]:
                lp = _distribution_lp(fs.bounds, u, G, xs, decision, elastic=False)
                every_row = _exchange_solution(simplex.solve_lp(lp), fs.bounds, decision)
                expected = _lift_zero_bound_rows(every_row, fs.bounds, u, G, xs)
                if decision[0] < decision[1]:
                    assert sol.b_star == pytest.approx(expected.b_star, abs=1e-14)
                assert objective == pytest.approx(expected.objective, abs=1e-14)
                assert eta == pytest.approx(expected.eta_star, abs=1e-14)
                assert np.abs(lam - expected.lambda_star).max() <= 1e-14
        assert lost_rows > 100


def exchange_scenarios():
    """The exchange_mixed golden scenario and the ``MOMENT_WINDOWS`` sets."""
    scenarios = [load_scenario(Path(__file__).parent / "golden" / "exchange_mixed.json")]
    return scenarios + [parse_scenario(moment_window_doc(*args)) for args in MOMENT_WINDOWS.values()]


def logged_exchange(caplog, monkeypatch, sc):
    """Each round's (lp, start) in an exchange solve, with its DEBUG line's phase-1 and phase-2 pivots and start."""
    caplog.clear()
    solves = logged_solves(caplog, monkeypatch, sc.forecast_set, sc.utility, sc.exchange)
    return [(lp, start, (p1, p2, outcome)) for lp, start, (_, _, p1, p2, _, outcome) in solves]


class TestExchangeStart:
    """Every exchange-loop LP starts at a feasible vertex, so it needs no phase 1."""

    def test_exchange_lps_start_at_a_feasible_vertex(self, caplog, monkeypatch):
        for sc in exchange_scenarios():
            solves = logged_exchange(caplog, monkeypatch, sc)
            assert solves
            for lp, start, (phase1, _, outcome) in solves:
                # Round 1 too: it starts on its slacks and elastic columns.
                assert start is not None and (phase1, outcome) == (0, "used")
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
    # thread) while the exchange loop solved the tall (b, lambda, nu) program
    # with its boxed columns shifted to x = lo + z with a width row each,
    # which put the basic values near OFFSET_BOX = 1e6.
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
            # Every later round takes its start as a feasible vertex: no
            # phase 1, none rejected and solved cold.
            for _, start, (phase1, phase2, outcome) in solves[1:]:
                assert (phase1, outcome) == (0, "used")
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


class TestDistributionLp:
    """The exchange loop's LP is the LP dual of the boxed (b, lambda, eta) program; its row duals solve that program."""

    @pytest.mark.parametrize("decision", [(0.0, 1.0), (0.4, 0.4)])
    @pytest.mark.parametrize("name", list(MOMENT_WINDOWS))
    def test_row_duals_solve_the_boxed_program(self, name, decision):
        sc = parse_scenario(moment_window_doc(*MOMENT_WINDOWS[name]))
        fs, u = sc.forecast_set, sc.utility
        xs = outcome_grid(fs, 16)
        G = fs.values(xs)
        lp = _distribution_lp(fs.bounds, u, G, xs, decision)
        assert lp.matrix.shape == (len(fs.forecasts) + 2, len(fs.forecasts) + 4 + xs.size * len(u.pieces))
        sol = _exchange_solution(simplex.solve_lp(lp), fs.bounds, decision)
        # The plan is feasible in the boxed program: it meets every row and bound.
        assert decision[0] <= sol.b_star <= decision[1]
        assert np.all((sol.lambda_star >= 0.0) & (sol.lambda_star <= MULTIPLIER_BOX))
        assert (u.values_at(xs, sol.b_star) + sol.eta_star + sol.lambda_star @ G).min() >= -1e-9
        # And its objective is the program's optimum, found on the program's own side.
        reference = simplex.solve_lp(tall_program(fs, u, G, xs, decision, (MULTIPLIER_BOX, OFFSET_BOX)))
        assert sol.objective == pytest.approx(reference.objective_value, abs=1e-9)
        if decision[0] == decision[1]:
            assert sol.b_star == decision[0]


class TestZeroBoundMultipliers:
    """A forecast bound of 0 is priced at the top of its range on the dual face."""

    @pytest.mark.parametrize("seed", range(12))
    def test_partition_multipliers_follow_the_knapsack(self, seed):
        # Cell i's multipliers are (t - m_i)+ on its upper bound and (m_i - t)+
        # on its lower one, with t = -eta: on a lower probability clipped to
        # 0 too, where the row's bound is 0 and its multiplier has a range.
        rng = np.random.default_rng(seed)
        pi, _ = random_interval_instance(rng)
        lower = np.array(pi.lower_probs)
        zero = rng.random(lower.size) < 0.5
        zero[rng.integers(lower.size)] = True
        lower[zero] = 0.0
        pi = PredictionIntervals(pi.breakpoints, tuple(lower), pi.upper_probs)
        fs, u, m = to_generic(pi), random_market(rng), pi.interval_count
        sol = solve_forecast_set(fs, u)
        solves = [(sol.b_star, sol.lambda_star, sol.eta_star)]
        solves += [(b, *worst_case_value(fs, u, b)[1:]) for b in rng.uniform(*u.decision_bounds, size=3)]
        a, c, d = (coef[:, None] for coef in np.array(u.pieces).T)
        for b, lam, eta in solves:
            # Each cell's minimum of J(., b), as ``_interval_values`` finds it.
            at_ends = np.min(a + c * np.array(pi.breakpoints) + d * b, axis=0)
            cell_min = np.minimum(at_ends[:-1], at_ends[1:])
            assert np.abs(lam[:m] - np.maximum(-eta - cell_min, 0.0)).max() <= 1e-12
            assert np.abs(lam[m:] - np.maximum(cell_min + eta, 0.0)).max() <= 1e-12


class TestEmptinessAtTheTolerance:
    """The exact path and the closed-form sweep call a set empty at the simplex's own feasibility tolerance."""

    # At delta = 1e-9 itself the sum falls within rounding of the tolerance:
    # the LP's phase 1 then calls the set empty and the closed form does not.
    @pytest.mark.parametrize(("delta", "empty"), [(1e-10, False), (5e-10, False), (2e-9, True), (1e-8, True)])
    def test_upper_probabilities_short_of_one(self, delta, empty):
        # market_m6 with each cell's room above its lower probability scaled
        # so that the upper probabilities sum to 1 - delta (scaling them
        # alone would put cell 3's below its lower probability).
        sc = load_scenario("market_m6")
        fs, u = sc.forecast_set, sc.utility
        m = fs.interval_count
        upper, lower = fs.bounds[:m], -fs.bounds[m:]
        upper = lower + (upper - lower) * ((1.0 - delta - lower.sum()) / (upper - lower).sum())
        assert abs(upper.sum() - (1.0 - delta)) <= 1e-15
        fs = fs.with_bounds(interval_bounds(upper, lower))
        for call in (lambda: solve_forecast_set(fs, u), lambda: worst_case_value(fs, u, 0.5), lambda: sweep(fs, u, 11)):
            if empty:
                with pytest.raises(AmbiguitySetEmpty):
                    call()
            else:
                call()


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


def without_interval_count(fs: ForecastSet) -> ForecastSet:
    """The same constraints without interval_count, which ``sweep`` does not take for a partition."""
    return ForecastSet(fs.domain, fs.forecasts)


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
    def test_values_match_worst_case_value(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        pi, _ = random_interval_instance(rng)
        # Without interval_count the sweep calls worst_case_value at each point.
        fs, u = without_interval_count(to_generic(pi)), random_market(rng)
        calls = record_solves(monkeypatch)
        pairs = sweep(fs, u, 41)
        assert len(calls) == 41 and all(start is None for _, start in calls)
        for b, value in pairs:
            assert np.float64(value).tobytes() == np.float64(worst_case_value(fs, u, b)[0]).tobytes()


def interval_bounds(upper, lower) -> np.ndarray:
    """A prediction-interval bound vector: the upper probabilities, then the lower ones negated."""
    return np.concatenate([upper, -np.asarray(lower)])


THREE_CELLS = to_generic(
    PredictionIntervals(breakpoints=(0.0, 0.3, 0.6, 1.0), lower_probs=(0.0, 0.0, 0.0), upper_probs=(1.0, 1.0, 1.0))
)


def variant_instance(seed: int):
    """A random interval instance and market; every third pins one cell (l = u), every third sets l to the truth (sum l = 1)."""
    rng = np.random.default_rng(seed)
    pi, truth = random_interval_instance(rng)
    lower, upper = np.array(pi.lower_probs), np.array(pi.upper_probs)
    mass = truth.probabilities
    if seed % 3 == 1:
        i = int(rng.integers(pi.interval_count))
        lower[i] = upper[i] = mass[i]
    elif seed % 3 == 2:
        lower = mass
        upper = np.maximum(upper, mass)
    pi = PredictionIntervals(pi.breakpoints, tuple(lower), tuple(upper))
    return to_generic(pi), random_market(rng)


class TestClosedFormSweep:
    """Prediction intervals sweep by the continuous knapsack; it agrees with the LP and with the brute-force primal."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_worst_case_value(self, seed):
        fs, u = variant_instance(seed)
        # At b = 0 every cell lies right of the bid, so under market_bidding
        # all cell minima tie at price * b.
        for b, value in sweep(fs, u, 21):
            assert abs(value - worst_case_value(fs, u, b)[0]) <= 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_worst_case_value_off_market(self, seed):
        # A market utility rises in x, so each cell's minimum is at its left
        # end; random pieces also put it at the right end.
        fs, _ = variant_instance(seed)
        rng = np.random.default_rng(seed)
        u = Utility(pieces=tuple(map(tuple, rng.uniform(-2.0, 2.0, size=(3, 3)))), decision_bounds=(0.0, 1.0))
        for b, value in sweep(fs, u, 21):
            assert abs(value - worst_case_value(fs, u, b)[0]) <= 1e-12

    def test_negative_lower_bound_counts_as_zero(self):
        # P(cell) >= -0.2 binds nothing: the rightmost cell may still get no mass.
        fs = THREE_CELLS.with_bounds(interval_bounds((0.6, 0.7, 0.9), (0.1, 0.1, -0.2)))
        for (b, value), (_, reference) in zip(sweep(fs, MARKET, 11), sweep(without_interval_count(fs), MARKET, 11)):
            assert abs(value - reference) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        fs, u = variant_instance(seed)
        for b, value in sweep(fs, u, 5):
            assert abs(value - brute_force_worst_case(fs, u, b)[0]) <= 1e-9

    @pytest.mark.parametrize(
        ("upper", "lower", "empty"),
        [
            ((0.6, 0.7, 0.9), (0.2, 0.3, 0.5 + delta), delta > 1e-9)
            for delta in (1e-8, -1e-8, 1e-13, -1e-13)
        ]
        + [
            ((0.3, 0.3, 0.4 + delta), (0.0, 0.1, 0.1), delta < -1e-9)
            for delta in (1e-8, -1e-8, 1e-13, -1e-13)
        ]
        + [((0.6, 0.25, 0.9), (0.2, 0.3, 0.1), True)],
        ids=[f"sum_lower{d:+g}" for d in (1e-8, -1e-8, 1e-13, -1e-13)]
        + [f"sum_upper{d:+g}" for d in (1e-8, -1e-8, 1e-13, -1e-13)]
        + ["crossed"],
    )
    def test_empty_set_parity(self, upper, lower, empty):
        fs = THREE_CELLS.with_bounds(interval_bounds(upper, lower))
        outcomes = []
        for forecasts in (fs, without_interval_count(fs)):
            try:
                outcomes.append(sweep(forecasts, MARKET, 11))
            except AmbiguitySetEmpty:
                outcomes.append(None)
        closed_form, walk = outcomes
        assert (closed_form is None, walk is None) == (empty, empty)
        if not empty:
            assert max(abs(v - w) for (_, v), (_, w) in zip(closed_form, walk)) <= 1e-12

    @pytest.mark.parametrize(
        "cells",
        [
            [(0.3, 0.6, False), (0.0, 0.3, False), (0.6, 1.0, True)],
            [(0.0, 0.5, False), (0.3, 0.8, False), (0.8, 1.0, True)],
            [(0.0, 0.3, False), (0.4, 0.6, False), (0.6, 1.0, True)],
            [(0.0, 0.3, False), (0.3, 0.6, True), (0.6, 1.0, True)],
            [(0.0, 0.3, False), (0.3, 0.6, False), (0.6, 1.0, False)],
        ],
        ids=["shuffled", "overlapping", "gap", "closed_middle", "open_last"],
    )
    def test_non_partitions_walk_the_lp(self, caplog, monkeypatch, cells):
        fs = ForecastSet(
            domain=Domain(0.0, 1.0),
            forecasts=tuple(Forecast(IndicatorInterval(*cell), 0.6) for cell in cells)
            + tuple(Forecast(NegatedIndicatorInterval(*cell), -0.1) for cell in cells),
            interval_count=len(cells),
        )
        calls = record_solves(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="robustplan"):
            pairs = sweep(fs, MARKET, 11)
        assert len(calls) == 11
        assert not any(r.getMessage().startswith("sweep:") for r in caplog.records)
        for b, value in pairs:
            assert abs(value - worst_case_value(fs, MARKET, b)[0]) <= 1e-12

    def test_mismatched_lower_bound_cell_walks_the_lp(self, monkeypatch):
        forecasts = list(THREE_CELLS.forecasts)
        forecasts[3] = Forecast(NegatedIndicatorInterval(0.0, 0.2), 0.0)
        fs = ForecastSet(THREE_CELLS.domain, tuple(forecasts), interval_count=3)
        calls = record_solves(monkeypatch)
        sweep(fs, MARKET, 5)
        assert len(calls) == 5

    def test_debug_line(self, caplog, monkeypatch):
        calls = record_solves(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="robustplan"):
            sweep(to_generic(binding_pair()), MARKET, 41)
        assert [r.getMessage() for r in caplog.records if r.name == "robustplan"] == [
            "sweep: closed form, 41 decisions, 2 cells"
        ]
        assert calls == []


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
