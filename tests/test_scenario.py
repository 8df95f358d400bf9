"""Scenario-file parsing: happy paths, field-error naming, bundled lookup."""

import json
import math
from pathlib import Path

import pytest

from robustplan.errors import ValidationError
from robustplan.forecast import AffineFunction, NegatedPowerFunction
from robustplan.refine import ClampedStepOracle
from robustplan.scenario import (
    bundled_scenario_names,
    load_scenario,
    parse_scenario,
)
from robustplan.utility import market_bidding


#: E[x] <= 0.5 and E[x^2] <= 0.5: on the domain [0, 1e200], x^2 overflows at the upper end.
OVERFLOWING_FORECASTS = {
    "type": "generic",
    "constraints": [
        {"g": {"type": "affine", "offset": 0.0, "slope": 1.0}, "epsilon": 0.5},
        {"g": {"type": "power", "exponent": 2}, "epsilon": 0.5},
    ],
}


def base_config():
    return {
        "domain": {"lower": 0.0, "upper": 1.0},
        "decision": {"lower": 0.0, "upper": 1.0},
        "utility": {"type": "market_bidding", "p": 1.0, "q": 1.6},
        "forecasts": {
            "type": "prediction_intervals",
            "breakpoints": [0.0, 0.5, 1.0],
            "lower_probs": [0.1, 0.3],
            "upper_probs": [0.6, 0.8],
        },
    }


class TestParsing:
    def test_minimal_config(self):
        scenario = parse_scenario(base_config())
        assert scenario.forecast_set.interval_count == 2
        assert len(scenario.forecast_set.forecasts) == 4
        assert scenario.truth is None
        assert scenario.oracle is None
        assert scenario.exchange is None
        assert scenario.truth_satisfies_forecasts is None
        # Defaults when no solver section is given.
        assert scenario.check_grid.base_points == 512

    def test_generic_forecasts(self):
        config = base_config()
        config["forecasts"] = {
            "type": "generic",
            "constraints": [
                {"g": {"type": "affine", "offset": -0.4, "slope": 1.0}, "epsilon": 0.1},
                {"g": {"type": "negated_power", "exponent": 2}, "epsilon": -0.1},
            ],
        }
        scenario = parse_scenario(config)
        assert scenario.forecast_set.interval_count is None
        fns = [fc.function for fc in scenario.forecast_set.forecasts]
        assert isinstance(fns[0], AffineFunction)
        assert isinstance(fns[1], NegatedPowerFunction)
        assert scenario.forecast_set.forecasts[0].bound == 0.1

    def test_piecewise_utility_matches_market_form(self):
        """[[0,0,p],[0,q,p-q]] is the same surface as the market_bidding shorthand."""
        config = base_config()
        config["utility"] = {
            "type": "piecewise_affine_min",
            "pieces": [[0.0, 0.0, 1.0], [0.0, 1.6, -0.6]],
        }
        parsed = parse_scenario(config).utility
        reference = market_bidding(1.0, 1.6)
        for x, b in [(0.0, 0.0), (0.3, 0.5), (0.5, 0.5), (0.9, 0.2), (1.0, 1.0)]:
            assert parsed.value(x, b) == pytest.approx(reference.value(x, b), abs=1e-15)

    def test_truth_and_oracle(self):
        config = base_config()
        config["truth"] = {"atoms": [[0.25, 0.5], [0.75, 0.5]]}
        config["oracle"] = {"type": "clamped_step", "step": 0.05, "margin": 0.02}
        scenario = parse_scenario(config)
        assert scenario.truth.expectation(AffineFunction(0.0, 1.0)) == pytest.approx(0.5)
        assert scenario.truth_satisfies_forecasts is True
        assert isinstance(scenario.oracle, ClampedStepOracle)
        assert (scenario.oracle.step, scenario.oracle.margin) == (0.05, 0.02)
        assert scenario.oracle.truth is scenario.truth
        assert scenario.oracle.forecast_set is scenario.forecast_set

    def test_oracle_margin_defaults_to_zero(self):
        config = base_config()
        config["truth"] = {"atoms": [[0.25, 0.5], [0.75, 0.5]]}
        config["oracle"] = {"type": "clamped_step", "step": 0.1}
        assert parse_scenario(config).oracle.margin == 0.0

    def test_truth_violation_is_flagged_not_rejected(self):
        config = base_config()
        # All mass below 0.5, so the second interval's lower bound 0.3 fails.
        config["truth"] = {"atoms": [[0.25, 1.0]]}
        scenario = parse_scenario(config)
        assert scenario.truth_satisfies_forecasts is False

    def test_solver_section_overrides(self):
        config = base_config()
        config["solver"] = {
            "exchange": {"max_rounds": 7, "initial_grid_points": 16},
            "check_grid": {"base_points": 64},
        }
        scenario = parse_scenario(config)
        assert scenario.exchange.max_rounds == 7
        assert scenario.exchange.initial_grid_points == 16
        assert scenario.exchange.violation_tolerance == 1e-7
        assert scenario.check_grid.base_points == 64


class TestFieldErrors:
    """Every rejection names the offending field with a dotted path."""

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda c: c.pop("utility"), "utility"),
            (lambda c: c.update(bogus=1), "bogus"),
            (lambda c: c["utility"].update(type="mystery"), "utility.type"),
            (lambda c: c["utility"].pop("p"), "utility.p"),
            (lambda c: c["forecasts"].update(breakpoints=[0.0, 0.5, 0.9]), "forecasts.breakpoints"),
            (lambda c: c["forecasts"].update(upper_probs=[1.5, 0.8]), "forecasts.upper_probs[0]"),
            (lambda c: c.update(oracle={"type": "clamped_step", "step": 0.1}), "oracle"),
            (lambda c: c.update(domain={"lower": 1.0, "upper": 0.0}), "domain"),
            (lambda c: c.update(solver={"mystery": {}}), "solver.mystery"),
            (lambda c: c.update(truth={"atoms": [[0.5]]}), "truth.atoms[0]"),
            (
                lambda c: c.update(
                    forecasts={"type": "generic", "constraints": [{"g": {"type": "power", "exponent": 2.0}, "epsilon": 1.0}]}
                ),
                "forecasts.constraints[0].g.exponent",
            ),
            # Range errors raised by the config constructors carry the dotted path.
            (lambda c: c.update(solver={"exchange": {"max_rounds": 0}}), "solver.exchange.max_rounds"),
            (lambda c: c.update(solver={"exchange": {"initial_grid_points": 0}}), "solver.exchange.initial_grid_points"),
            (lambda c: c.update(solver={"exchange": {"violation_tolerance": 0}}), "solver.exchange.violation_tolerance"),
            (lambda c: c.update(solver={"exchange": {"search_grid_points": 1}}), "solver.exchange.search_grid_points"),
            (lambda c: c.update(solver={"check_grid": {"base_points": 1}}), "solver.check_grid.base_points"),
            (
                lambda c: c.update(truth={"atoms": [[0.5, 1.0]]}, oracle={"type": "clamped_step", "step": 0}),
                "oracle.step",
            ),
            (
                lambda c: c.update(
                    truth={"atoms": [[0.5, 1.0]]}, oracle={"type": "clamped_step", "step": 0.1, "margin": -0.1}
                ),
                "oracle.margin",
            ),
            # Non-finite values: a NaN margin makes the clamp's floor NaN, which switches
            # the clamp off; a NaN tolerance is never met, an infinite one always is.
            pytest.param(
                lambda c: c.update(truth={"atoms": [[0.5, 1.0]]}, oracle={"type": "clamped_step", "step": math.nan}),
                "oracle.step",
                id="oracle.step-nan",
            ),
            pytest.param(
                lambda c: c.update(
                    truth={"atoms": [[0.5, 1.0]]}, oracle={"type": "clamped_step", "step": 0.1, "margin": math.nan}
                ),
                "oracle.margin",
                id="oracle.margin-nan",
            ),
            pytest.param(
                lambda c: c.update(
                    truth={"atoms": [[0.5, 1.0]]}, oracle={"type": "clamped_step", "step": 0.1, "margin": math.inf}
                ),
                "oracle.margin",
                id="oracle.margin-inf",
            ),
            pytest.param(
                lambda c: c.update(solver={"exchange": {"violation_tolerance": math.nan}}),
                "solver.exchange.violation_tolerance",
                id="solver.exchange.violation_tolerance-nan",
            ),
            pytest.param(
                lambda c: c.update(solver={"exchange": {"violation_tolerance": math.inf}}),
                "solver.exchange.violation_tolerance",
                id="solver.exchange.violation_tolerance-inf",
            ),
            pytest.param(lambda c: c["utility"].update(p=0.0), "utility.p", id="utility.p-range"),
            (lambda c: c["utility"].update(q=0.5), "utility.q"),
            (lambda c: c.update(decision={"lower": 1.0, "upper": 1.0}), "decision"),
            (lambda c: c["forecasts"].update(breakpoints=[0.0, 0.5, 0.5, 1.0]), "forecasts.breakpoints[2]"),
            (lambda c: c["forecasts"].update(lower_probs=[0.1]), "forecasts.lower_probs"),
            pytest.param(
                lambda c: c.update(truth={"atoms": [[0.5, -0.5], [0.6, 1.5]]}), "truth.atoms[0]", id="truth.atoms[0]-range"
            ),
            (lambda c: c.update(truth={"atoms": [[0.5, "1"]]}), "truth.atoms[0][1]"),
            (
                lambda c: c.update(
                    forecasts={"type": "generic", "constraints": [{"g": {"type": "indicator", "lo": -1.0, "hi": 0.5}, "epsilon": 0.5}]}
                ),
                "forecasts.constraints[0]",
            ),
            (
                lambda c: c.update(utility={"type": "piecewise_affine_min", "pieces": [[float("inf"), 0.0, 1.0]]}),
                "utility.pieces[0]",
            ),
            (lambda c: c.update(utility={"type": "piecewise_affine_min", "pieces": [[0.0, 1.0, None]]}), "utility.pieces[0][2]"),
            (lambda c: c.update(utility={"type": "piecewise_affine_min", "pieces": []}), "utility.pieces"),
            pytest.param(
                lambda c: c.update(domain={"lower": 0.0, "upper": 1e200}, forecasts=OVERFLOWING_FORECASTS),
                "forecasts.constraints[1]",
                id="forecasts.constraints[1]-overflow",
            ),
        ],
    )
    def test_field_is_named(self, mutate, field):
        config = base_config()
        mutate(config)
        with pytest.raises(ValidationError) as excinfo:
            parse_scenario(config)
        assert excinfo.value.field == field

    def test_bad_piecewise_piece(self):
        config = base_config()
        config["utility"] = {"type": "piecewise_affine_min", "pieces": [[0.0, 1.0]]}
        with pytest.raises(ValidationError) as excinfo:
            parse_scenario(config)
        assert excinfo.value.field == "utility.pieces[0]"

    def test_bad_constraint_function_type(self):
        config = base_config()
        config["forecasts"] = {
            "type": "generic",
            "constraints": [{"g": {"type": "sine"}, "epsilon": 0.0}],
        }
        with pytest.raises(ValidationError) as excinfo:
            parse_scenario(config)
        assert excinfo.value.field == "forecasts.constraints[0].g.type"

    def test_wrong_oracle_type(self):
        config = base_config()
        config["truth"] = {"atoms": [[0.25, 0.5], [0.75, 0.5]]}
        config["oracle"] = {"type": "psychic", "step": 0.1}
        with pytest.raises(ValidationError) as excinfo:
            parse_scenario(config)
        assert excinfo.value.field == "oracle.type"

    def test_non_object_config(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_scenario([1, 2, 3])
        assert excinfo.value.field == "config"


class TestLoading:
    def test_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(base_config()), encoding="utf-8")
        scenario = load_scenario(path)
        assert len(scenario.forecast_set.forecasts) == 4

    def test_bundled_names(self):
        assert bundled_scenario_names() == ["market_m6", "vacuous_m2"]

    def test_bundled_market_scenario(self):
        scenario = load_scenario("market_m6")
        assert len(scenario.forecast_set.forecasts) == 12
        assert len(scenario.truth.atoms) == 13
        assert scenario.oracle.step == 0.05
        assert scenario.truth_satisfies_forecasts is True

    def test_bundled_vacuous_scenario(self):
        scenario = load_scenario("vacuous_m2")
        assert scenario.truth is None
        assert scenario.oracle is None

    def test_bundled_name_with_suffix(self):
        scenario = load_scenario("market_m6.json")
        assert len(scenario.forecast_set.forecasts) == 12

    def test_unknown_source(self):
        with pytest.raises(ValidationError) as excinfo:
            load_scenario("no_such_scenario")
        assert excinfo.value.field == "config"
        assert "market_m6" in str(excinfo.value)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ this is not json", encoding="utf-8")
        with pytest.raises(ValidationError) as excinfo:
            load_scenario(path)
        assert excinfo.value.field == "config"

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ValidationError) as excinfo:
            load_scenario(path)
        assert excinfo.value.field == "config"

    def test_unreadable_file(self, tmp_path, monkeypatch):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(base_config()), encoding="utf-8")

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refuse)
        with pytest.raises(ValidationError) as excinfo:
            load_scenario(path)
        assert excinfo.value.field == "config"
        assert "Permission denied" in excinfo.value.message
