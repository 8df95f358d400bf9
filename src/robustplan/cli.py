"""Command-line front end: run scenarios, emit JSON and CSV for plotting.

Subcommands: solve (optimal decision + multipliers as JSON), sweep
(decision-grid worst-case CSV, with the true expected value column when the
scenario has a truth), sensitivity (ranked multipliers plus predicted bounds
for a unit tightening), refine (per-iteration CSV of the oracle-driven loop),
and check (duality gap and feasibility diagnostics as JSON).

Exit codes: 0 on success; 1 when the solver fails (empty ambiguity set,
convergence failure) with a JSON error on stderr; 2 on config or argument
errors, with the offending field named.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .bruteforce import duality_gap
from .errors import (
    AmbiguitySetEmpty,
    ContractViolation,
    ConvergenceFailure,
    NumericalFailure,
    ValidationError,
)
from .forecast import feasibility_ball_radius, strict_feasibility_slack
from .refine import refine_loop
from .scenario import Scenario, load_scenario
from .sensitivity import forecast_kind, sensitivities
from .solver import solve_forecast_set, sweep, true_expected

#: Decision-grid resolution for the check command's duality-gap scan.
_CHECK_GRID_POINTS = 21


def _fmt(value: float) -> str:
    """Shortest decimal that parses back to exactly the same float."""
    return repr(float(value))


def _cmd_solve(scenario: Scenario, args: argparse.Namespace) -> str:
    sol = solve_forecast_set(scenario.forecast_set, scenario.utility, scenario.exchange)
    report = sensitivities(sol, scenario.forecast_set)
    entries = sorted(report.entries, key=lambda e: e.forecast_index)
    doc = {
        "b_star": sol.b_star,
        "objective": sol.objective,
        "lambda": [
            {
                "index": e.forecast_index,
                "kind": e.kind,
                "interval": e.interval_index,
                "value": e.value,
            }
            for e in entries
        ],
        "eta": sol.eta_star,
    }
    return json.dumps(doc, indent=2) + "\n"


def _cmd_sweep(scenario: Scenario, args: argparse.Namespace) -> str:
    pairs = sweep(scenario.forecast_set, scenario.utility, args.grid, cfg=scenario.exchange)
    with_truth = scenario.truth is not None
    lines = ["b,worst_case" + (",true_expected" if with_truth else "")]
    for b, worst in pairs:
        row = f"{_fmt(b)},{_fmt(worst)}"
        if with_truth:
            row += f",{_fmt(true_expected(scenario.truth, scenario.utility, b))}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def _cmd_sensitivity(scenario: Scenario, args: argparse.Namespace) -> str:
    if not math.isfinite(args.delta):
        raise ValidationError("delta", f"must be finite, got {args.delta}")
    sol = solve_forecast_set(scenario.forecast_set, scenario.utility, scenario.exchange)
    report = sensitivities(sol, scenario.forecast_set)
    doc = {
        "base_objective": report.base_objective,
        "delta": args.delta,
        "entries": [
            {
                "index": e.forecast_index,
                "kind": e.kind,
                "interval": e.interval_index,
                "value": e.value,
                "predicted_bound": report.base_objective + e.value * args.delta,
            }
            for e in report.entries
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _cmd_refine(scenario: Scenario, args: argparse.Namespace) -> str:
    if scenario.oracle is None:
        raise ValidationError("oracle", "the refine command needs an oracle (and truth) in the scenario")
    trace = refine_loop(
        scenario.forecast_set,
        scenario.utility,
        scenario.oracle,
        max_iterations=args.iters,
        cfg=scenario.exchange,
    )
    n = len(scenario.forecast_set.forecasts)
    kinds = [forecast_kind(fc.function) for fc in scenario.forecast_set.forecasts]
    header = "iter,refined_index,refined_kind,new_bound,objective,b_star," + ",".join(
        f"lambda_{i}" for i in range(n)
    )
    lines = [header]
    for rec in trace.iterations:
        if rec.refined_index is None:
            prefix = f"{rec.iteration},,,,"
        else:
            j = rec.refined_index
            prefix = f"{rec.iteration},{j},{kinds[j]},{_fmt(rec.bounds[j])},"
        lambdas = ",".join(_fmt(v) for v in rec.lambda_star)
        lines.append(prefix + f"{_fmt(rec.objective)},{_fmt(rec.b_star)}," + lambdas)
    return "\n".join(lines) + "\n"


def _cmd_check(scenario: Scenario, args: argparse.Namespace) -> str:
    fs, u = scenario.forecast_set, scenario.utility
    lo, hi = u.decision_bounds
    gap = max(
        duality_gap(fs, u, float(b), scenario.check_grid, cfg=scenario.exchange)
        for b in np.linspace(lo, hi, _CHECK_GRID_POINTS)
    )
    slack = strict_feasibility_slack(fs, scenario.check_grid.base_points)
    radius = feasibility_ball_radius(slack, fs.bounds) if slack > 0 else None
    doc = {
        "duality_gap_max": gap,
        "strict_feasibility_slack": "unbounded" if math.isinf(slack) else slack,
        "feasibility_ball_radius": radius,
    }
    return json.dumps(doc, indent=2) + "\n"


_COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "sensitivity": _cmd_sensitivity,
    "refine": _cmd_refine,
    "check": _cmd_check,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustplan",
        description="Robust planning against probabilistic forecasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "solve": "optimal robust decision and forecast multipliers (JSON)",
        "sweep": "worst-case value across the decision grid (CSV)",
        "sensitivity": "forecasts ranked by multiplier with predicted bounds (JSON)",
        "refine": "oracle-driven refinement trace (CSV)",
        "check": "duality-gap and feasibility diagnostics (JSON)",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="scenario JSON path or bundled scenario name")
        cmd.add_argument("--out", metavar="PATH", default=None, help="write output to a file")
        if name == "sweep":
            cmd.add_argument("--grid", metavar="N", type=int, default=101, help="decision grid size")
        if name == "sensitivity":
            cmd.add_argument(
                "--delta", metavar="D", type=float, default=0.01, help="tightening for predicted bounds"
            )
        if name == "refine":
            cmd.add_argument("--iters", metavar="K", type=int, default=50, help="iteration budget")
    return parser


def _emit_error(err: Exception) -> None:
    doc: dict = {"error": type(err).__name__, "message": str(err)}
    if isinstance(err, ValidationError):
        doc["field"] = err.field
    if isinstance(err, ConvergenceFailure) and err.residual is not None:
        doc["residual"] = err.residual
    print(json.dumps(doc), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        if scenario.truth_satisfies_forecasts is False:
            print(
                "warning: the configured truth violates at least one forecast bound",
                file=sys.stderr,
            )
        output = _COMMANDS[args.command](scenario, args)
    except ValidationError as err:
        _emit_error(err)
        return 2
    except (AmbiguitySetEmpty, ConvergenceFailure, NumericalFailure, ContractViolation) as err:
        _emit_error(err)
        return 1
    if args.out is not None:
        Path(args.out).write_text(output, encoding="utf-8")
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
