"""End-to-end command tests: pinned outputs, exit codes, and file writing."""

import csv
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import robustplan
from robustplan import bruteforce, forecast, solver
from robustplan.cli import main
from support import assert_same_pivoting, record_solves


def config_with(**overrides):
    config = {
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
    config.update(overrides)
    return config


def write_config(tmp_path, config):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


GOLDEN = Path(__file__).parent / "golden"

#: Byte-exact stdout of each command on the bundled scenarios, recorded before
#: the solver refactor that must leave it unchanged.
GOLDEN_COMMANDS = {
    "solve": [],
    "sensitivity": [],
    "sweep": ["--grid", "101"],
    "refine": ["--iters", "50"],
    "check": [],
}

#: (command, scenario) pairs with a golden file. exchange_mixed (an indicator
#: plus an affine mean bound, in tests/golden/) is the one exchange-loop
#: scenario: elastic columns in every LP.
GOLDEN_CASES = [(command, scenario) for scenario in ("market_m6", "vacuous_m2") for command in GOLDEN_COMMANDS] + [
    ("solve", "exchange_mixed"),
    ("sensitivity", "exchange_mixed"),
]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(("command", "scenario"), GOLDEN_CASES, ids=[f"{c}-{s}" for c, s in GOLDEN_CASES])
def test_golden_output(capsys, command, scenario):
    source = GOLDEN / f"{scenario}.json" if scenario == "exchange_mixed" else scenario
    code, out, _ = run_cli(capsys, [command, str(source), *GOLDEN_COMMANDS[command]])
    # vacuous_m2 has no oracle, so refine is a config error with empty stdout.
    assert code == (2 if (command, scenario) == ("refine", "vacuous_m2") else 0)
    assert out == (GOLDEN / f"{command}_{scenario}.out").read_text(encoding="utf-8")


def test_golden_lps_match_reference_pivoting(capsys, caplog, monkeypatch):
    """Every LP behind the golden files pivots as the loop inverting its basis at every pivot, from the same start."""
    calls = record_solves(monkeypatch, solver, bruteforce, forecast)
    with caplog.at_level(logging.DEBUG, logger="robustplan"):
        for command, scenario in GOLDEN_CASES:
            source = GOLDEN / f"{scenario}.json" if scenario == "exchange_mixed" else scenario
            run_cli(capsys, [command, str(source), *GOLDEN_COMMANDS[command]])
    starts = [r.getMessage().rsplit(" ", 1)[1] for r in caplog.records if r.getMessage().startswith("solve_lp:")]
    # Both scenarios are prediction intervals, so their sweeps (and check's
    # dual side) solve no LP.
    assert len(starts) == len(calls) == 55
    # The exchange_mixed solves' elastic starts, and each check's brute-force
    # scan, whose 20 LPs after the first start from the last one's basis.
    assert sum(start is not None for _, start in calls) == 2 + 2 * 20
    for lp, start in calls:
        assert_same_pivoting(caplog, lp, start)


class TestSolve:
    def test_market_scenario(self, capsys):
        code, out, _ = run_cli(capsys, ["solve", "market_m6"])
        assert code == 0
        doc = json.loads(out)
        assert 0.0 < doc["b_star"] < 1.0
        assert doc["objective"] == pytest.approx(0.14957493478063644, abs=1e-9)
        assert [entry["index"] for entry in doc["lambda"]] == list(range(12))
        assert "eta" in doc

    def test_lambda_metadata(self, capsys):
        _, out, _ = run_cli(capsys, ["solve", "market_m6"])
        entries = json.loads(out)["lambda"]
        assert entries[0]["kind"] == "upper_bound"
        assert entries[6]["kind"] == "lower_bound"
        assert entries[7]["interval"] == 1

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, ["solve", "market_m6"])
        _, second, _ = run_cli(capsys, ["solve", "market_m6"])
        assert first == second


class TestSweep:
    def test_vacuous_three_points(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "vacuous_m2", "--grid", "3"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["b", "worst_case"]
        values = [(float(b), float(w)) for b, w in rows[1:]]
        expected = [(0.0, 0.0), (0.5, -0.3), (1.0, -0.6)]
        for (b, w), (eb, ew) in zip(values, expected):
            assert b == pytest.approx(eb, abs=1e-12)
            assert w == pytest.approx(ew, abs=1e-12)

    def test_truth_column_lower_bounds_truth(self, capsys):
        """With a configured truth the worst case can never sit above it."""
        _, out, _ = run_cli(capsys, ["sweep", "market_m6", "--grid", "21"])
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["b", "worst_case", "true_expected"]
        for _, worst, truth in rows[1:]:
            assert float(worst) <= float(truth) + 1e-9

    def test_grid_flag_sets_row_count(self, capsys):
        _, out, _ = run_cli(capsys, ["sweep", "vacuous_m2", "--grid", "5"])
        assert len(out.strip().splitlines()) == 6

    def test_cells_round_trip_exactly(self, capsys):
        """Every numeric cell is the shortest repr of its float, so parsing
        the CSV reproduces the solver's values bit for bit."""
        _, out, _ = run_cli(capsys, ["sweep", "market_m6", "--grid", "7"])
        for row in list(csv.reader(io.StringIO(out)))[1:]:
            for cell in row:
                assert repr(float(cell)) == cell


class TestSensitivity:
    def test_entries_descend_and_predict(self, capsys):
        code, out, _ = run_cli(capsys, ["sensitivity", "market_m6"])
        assert code == 0
        doc = json.loads(out)
        assert doc["delta"] == 0.01
        values = [entry["value"] for entry in doc["entries"]]
        assert values == sorted(values, reverse=True)
        for entry in doc["entries"]:
            assert entry["predicted_bound"] == doc["base_objective"] + entry["value"] * 0.01

    def test_delta_flag(self, capsys):
        _, out, _ = run_cli(capsys, ["sensitivity", "market_m6", "--delta", "0.05"])
        doc = json.loads(out)
        assert doc["delta"] == 0.05
        top = doc["entries"][0]
        assert top["predicted_bound"] == doc["base_objective"] + top["value"] * 0.05

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_names_field(self, capsys, delta):
        # json.dumps would print NaN or Infinity, which is not JSON.
        code, out, err = run_cli(capsys, ["sensitivity", "market_m6", "--delta", delta])
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "ValidationError"
        assert doc["field"] == "delta"


class TestRefine:
    def test_objective_column_nondecreasing(self, capsys):
        code, out, _ = run_cli(capsys, ["refine", "market_m6", "--iters", "50"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:6] == ["iter", "refined_index", "refined_kind", "new_bound", "objective", "b_star"]
        objectives = [float(row[4]) for row in rows[1:]]
        assert objectives == sorted(objectives)
        # The initial record refined nothing, so its action cells are empty.
        assert rows[1][1:4] == ["", "", ""]
        # Later records carry the action that produced them.
        assert rows[2][2] in ("upper_bound", "lower_bound")

    def test_iters_flag_caps_records(self, capsys):
        _, out, _ = run_cli(capsys, ["refine", "market_m6", "--iters", "2"])
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) <= 4  # header + initial + at most two refinements

    def test_refine_needs_oracle(self, capsys):
        code, _, err = run_cli(capsys, ["refine", "vacuous_m2"])
        assert code == 2
        assert json.loads(err)["field"] == "oracle"


class TestCheck:
    def test_vacuous_diagnostics(self, capsys):
        code, out, _ = run_cli(capsys, ["check", "vacuous_m2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["duality_gap_max"] <= 1e-9
        assert doc["strict_feasibility_slack"] == pytest.approx(0.5, abs=1e-12)
        assert doc["feasibility_ball_radius"] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_market_diagnostics(self, capsys):
        _, out, _ = run_cli(capsys, ["check", "market_m6"])
        doc = json.loads(out)
        assert doc["duality_gap_max"] <= 1e-6
        assert doc["strict_feasibility_slack"] > 0
        assert 0 < doc["feasibility_ball_radius"] <= 1

    def test_unconstrained_slack_is_unbounded_status(self, tmp_path, capsys):
        config = config_with(forecasts={"type": "generic", "constraints": []})
        code, out, _ = run_cli(capsys, ["check", write_config(tmp_path, config)])
        assert code == 0
        doc = json.loads(out)
        assert doc["strict_feasibility_slack"] == "unbounded"
        assert doc["feasibility_ball_radius"] == 1.0


class TestErrors:
    def test_bad_config_names_field(self, tmp_path, capsys):
        config = config_with()
        config["forecasts"]["upper_probs"] = [1.5, 0.8]
        code, out, err = run_cli(capsys, ["solve", write_config(tmp_path, config)])
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "ValidationError"
        assert doc["field"] == "forecasts.upper_probs[0]"

    @pytest.mark.parametrize(
        "key, values, field",
        [
            ("breakpoints", [0.0, None, 1.0], "forecasts.breakpoints[1]"),
            ("lower_probs", ["0.1", 0.3], "forecasts.lower_probs[0]"),
            ("upper_probs", [True, 0.8], "forecasts.upper_probs[0]"),
        ],
    )
    def test_non_number_in_interval_array(self, tmp_path, capsys, key, values, field):
        config = config_with()
        config["forecasts"][key] = values
        code, out, err = run_cli(capsys, ["solve", write_config(tmp_path, config)])
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "ValidationError"
        assert doc["field"] == field

    @pytest.mark.parametrize(
        "solver, field",
        [
            ({"exchange": {"max_rounds": "ten"}}, "solver.exchange.max_rounds"),
            ({"exchange": {"max_rounds": 2.9}}, "solver.exchange.max_rounds"),
            ({"exchange": {"initial_grid_points": True}}, "solver.exchange.initial_grid_points"),
            ({"exchange": {"search_grid_points": None}}, "solver.exchange.search_grid_points"),
            ({"exchange": {"violation_tolerance": "small"}}, "solver.exchange.violation_tolerance"),
            ({"check_grid": {"base_points": None}}, "solver.check_grid.base_points"),
            ({"exchange": {"max_rounds": 0}}, "solver.exchange.max_rounds"),
            ({"check_grid": {"base_points": 1}}, "solver.check_grid.base_points"),
        ],
    )
    def test_bad_solver_value_names_field(self, tmp_path, capsys, solver, field):
        code, out, err = run_cli(capsys, ["solve", write_config(tmp_path, config_with(solver=solver))])
        assert code == 2
        assert out == ""
        assert json.loads(err)["field"] == field

    def test_nan_atom_probability_names_field(self, tmp_path, capsys):
        # json.dumps writes NaN, which json.loads reads back as a float.
        config = config_with(truth={"atoms": [[0.25, float("nan")], [0.75, 1.0]]})
        code, out, err = run_cli(capsys, ["sweep", write_config(tmp_path, config), "--grid", "3"])
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "ValidationError"
        assert doc["field"] == "truth.atoms[0]"

    @pytest.mark.parametrize("key", ["p", "q"])
    def test_non_finite_market_parameter_names_field(self, tmp_path, capsys, key):
        # json.dumps writes NaN and Infinity literals, which json.loads reads back as floats.
        utility = {"type": "market_bidding", "p": 1.0, "q": 1.6}
        utility[key] = float("nan") if key == "p" else float("inf")
        code, out, err = run_cli(capsys, ["solve", write_config(tmp_path, config_with(utility=utility))])
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert (doc["error"], doc["field"]) == ("ValidationError", f"utility.{key}")

    @pytest.mark.parametrize("command", ["solve", "check"])
    def test_overflowing_forecast_names_its_constraint(self, tmp_path, capsys, command):
        # x^2 overflows at the domain's upper end; it is rejected at load, with no numpy warning.
        config = config_with(
            domain={"lower": 0.0, "upper": 1e200},
            forecasts={"type": "generic", "constraints": [{"g": {"type": "power", "exponent": 2}, "epsilon": 0.5}]},
        )
        code, out, err = run_cli(capsys, [command, write_config(tmp_path, config)])
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert (doc["error"], doc["field"]) == ("ValidationError", "forecasts.constraints[0]")

    def test_unknown_scenario_name(self, capsys):
        code, _, err = run_cli(capsys, ["solve", "no_such_scenario"])
        assert code == 2
        assert json.loads(err)["field"] == "config"

    def test_undecodable_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run_cli(capsys, ["solve", str(path)])
        assert code == 2
        assert out == ""
        assert json.loads(err)["field"] == "config"

    @pytest.mark.parametrize(
        "argv, field",
        [(["sweep", "market_m6", "--grid", "0"], "grid"), (["refine", "market_m6", "--iters", "0"], "iters")],
        ids=["grid", "iters"],
    )
    def test_option_range_error_names_the_option(self, capsys, argv, field):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "ValidationError"
        assert doc["field"] == field

    def test_empty_ambiguity_set_is_exit_one(self, tmp_path, capsys):
        config = config_with(
            forecasts={
                "type": "generic",
                "constraints": [
                    {"g": {"type": "affine", "offset": 0.0, "slope": 1.0}, "epsilon": 0.2},
                    {"g": {"type": "affine", "offset": 0.0, "slope": -1.0}, "epsilon": -0.8},
                ],
            }
        )
        code, _, err = run_cli(capsys, ["solve", write_config(tmp_path, config)])
        assert code == 1
        assert json.loads(err)["error"] == "AmbiguitySetEmpty"

    @pytest.mark.parametrize("argv", [["solve"], ["sweep", "--grid", "3"], ["check"]])
    def test_every_command_uses_the_exchange_config(self, tmp_path, capsys, argv):
        # One exchange round cannot converge on a mean window plus E[x^2]
        # (except at the decision ends, so the sweep needs b = 0.5).
        config = config_with(
            forecasts={
                "type": "generic",
                "constraints": [
                    {"g": {"type": "affine", "offset": 0.0, "slope": 1.0}, "epsilon": 0.5},
                    {"g": {"type": "affine", "offset": 0.0, "slope": -1.0}, "epsilon": -0.4},
                    {"g": {"type": "power", "exponent": 2}, "epsilon": 0.35},
                ],
            },
            solver={"exchange": {"max_rounds": 1}},
        )
        command, *extra = argv
        code, out, err = run_cli(capsys, [command, write_config(tmp_path, config), *extra])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "ConvergenceFailure"

    def test_truth_violation_warns_but_proceeds(self, tmp_path, capsys):
        config = config_with(truth={"atoms": [[0.25, 1.0]]})
        code, out, err = run_cli(capsys, ["solve", write_config(tmp_path, config)])
        assert code == 0
        assert "warning" in err
        assert json.loads(out)["b_star"] >= 0.0


class TestOutputFile:
    def test_out_flag_writes_file_only(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, ["sweep", "vacuous_m2", "--grid", "3", "--out", str(target)])
        assert code == 0
        assert out == ""
        _, stdout_copy, _ = run_cli(capsys, ["sweep", "vacuous_m2", "--grid", "3"])
        assert target.read_text(encoding="utf-8") == stdout_copy

    def test_unwritable_out_names_field(self, tmp_path, capsys):
        target = tmp_path / "missing" / "sweep.csv"
        code, out, err = run_cli(capsys, ["sweep", "market_m6", "--grid", "2", "--out", str(target)])
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["error"] == "ValidationError"
        assert doc["field"] == "out"
        assert not target.exists()


class TestEntryPoint:
    def test_module_invocation(self):
        # The child process imports the same package as this test, installed or not.
        package_root = str(Path(robustplan.__file__).parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "robustplan.cli", "sweep", "vacuous_m2", "--grid", "3"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert result.returncode == 0
        assert result.stdout.startswith("b,worst_case")
