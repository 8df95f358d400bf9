"""Seeded workloads for the robustplan benchmark, and their correctness gate.

Each workload owns a bank of instances. Instance ``i`` is made by the
generator from ``(workload tag, i)`` alone, and the answer the package gave
for it when the bank was recorded sits in ``reference.json``. The run seed
orders the bank: a run visits it in whole seeded permutations. Every run
therefore solves the same mix of instances, which keeps the medians of a
short run comparable across seeds, while the seed still decides in which
order the program sees them.

Why these three workloads:

* ``interval_large`` -- one op is one exact solve of m = 50 prediction
  intervals: a single tall dense dual LP (200 rows x 102 columns). Almost all
  of the time is per-pivot simplex cost.
* ``moment_exchange`` -- one op is one exchange-loop solve of a mean window
  plus one power-moment bound (exponent 2 to 4), built from a truth
  distribution plus slack, under the bundled scenario's market utility
  (price 1.0, penalty 1.6). That is about 11 cold-started tall-thin LPs
  (130-150 rows x 5 columns, every column boxed) and the 10 000-point
  violation search, so warm starts, native bounds and round counts show.
* ``planning_session`` -- one op runs the five CLI subcommands in-process on
  one small interval scenario: hundreds of tiny fixed-decision LPs in
  ``sweep`` and wide brute-force LPs in ``check``. It uses the simplex in the
  opposite shape to ``interval_large``, and the non-simplex layers are a
  visible share of the time.

Every generated instance is kept: an op that raises counts as failed, it is
never dropped or re-drawn. An op that raises where its instance's recorded
answer is not an error fails the correctness gate (see ``judge``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from pathlib import Path

import numpy as np

import robustplan
from robustplan import cli

WORKLOADS = ("interval_large", "moment_exchange", "planning_session")

#: Instances per bank. A run times whole passes over its bank; one pass takes
#: 12 to 25 s of CPU time for the interval and session banks, depending on the
#: host, and about 36 s for the moment bank. The tail percentile is set by the
#: bank size (see ``run._tail``).
BANK_SIZE = {"interval_large": 48, "moment_exchange": 16, "planning_session": 56}

_TAG = {"interval_large": 1, "moment_exchange": 2, "planning_session": 3}

#: The five subcommands of one planning session, with their arguments.
SESSION = (
    ("solve",),
    ("sensitivity",),
    ("sweep", "--grid", "101"),
    ("refine", "--iters", "50"),
    ("check",),
)

#: Allowed absolute difference from the reference, per summary field. These
#: are the package's own test tolerances: 1e-6 on the objective of a direct
#: solve (acceptance suite), 1e-3 on an exchange-loop decision (acceptance
#: and solver tests), and 1e-9 on numbers printed by the CLI (CLI tests).
#: Integer fields must match exactly.
TOLERANCE = {
    "interval_large": {"objective": 1e-6, "b_star": 1e-6},
    "moment_exchange": {"objective": 1e-6, "b_star": 1e-3},
    "planning_session": {
        "objective": 1e-9,
        "b_star": 1e-9,
        "base_objective": 1e-9,
        "sensitivity_entries": 0,
        "sweep": 1e-9,
        "refine_rows": 0,
        "refine_objective": 1e-9,
        "duality_gap_max": 1e-6,
        "strict_feasibility_slack": 1e-9,
    },
}

#: The acceptance suite's bound on |brute-force primal - dual| at a decision.
DUALITY_GAP_TOL = 1e-6

_DOMAIN = {"lower": 0.0, "upper": 1.0}


def _market(rng: np.random.Generator) -> dict:
    price = float(rng.uniform(0.2, 2.5))
    return {"type": "market_bidding", "p": price, "q": float(rng.uniform(price + 0.1, 3.0))}


def _interval_scenario(rng: np.random.Generator, m: int, with_oracle: bool) -> dict:
    """Prediction intervals around Dirichlet cell masses, truth at cell midpoints."""
    widths = 0.3 / m + 0.7 * rng.dirichlet(np.ones(m))
    breakpoints = np.concatenate([[0.0], np.cumsum(widths)])
    breakpoints[-1] = 1.0
    mass = 0.9 * rng.dirichlet(np.ones(m)) + 0.1 / m
    spread = rng.uniform(0.05, 0.3, size=m)
    doc = {
        "domain": _DOMAIN,
        "decision": _DOMAIN,
        "utility": _market(rng),
        "forecasts": {
            "type": "prediction_intervals",
            "breakpoints": breakpoints.tolist(),
            "lower_probs": np.clip(mass - spread, 0.0, None).tolist(),
            "upper_probs": np.clip(mass + spread, None, 1.0).tolist(),
        },
    }
    if with_oracle:
        midpoints = (breakpoints[:-1] + breakpoints[1:]) / 2.0
        doc["truth"] = {"atoms": [[float(x), float(p)] for x, p in zip(midpoints, mass / mass.sum())]}
        doc["oracle"] = {"type": "clamped_step", "step": 0.05, "margin": 0.02}
    return doc


def _moment_scenario(rng: np.random.Generator) -> dict:
    """Mean window plus one power-moment bound, each the truth's moment plus slack."""
    k = int(rng.integers(4, 9))
    locations = rng.uniform(0.0, 1.0, size=k)
    probs = rng.dirichlet(np.ones(k))
    mean = float(probs @ locations)
    exponent = int(rng.integers(2, 5))
    moment = float(probs @ locations**exponent)
    slack = rng.uniform(0.02, 0.06, size=3)
    return {
        "domain": _DOMAIN,
        "decision": _DOMAIN,
        "utility": {"type": "market_bidding", "p": 1.0, "q": 1.6},
        "forecasts": {
            "type": "generic",
            "constraints": [
                {"g": {"type": "affine", "offset": 0.0, "slope": 1.0}, "epsilon": mean + slack[0]},
                {"g": {"type": "affine", "offset": 0.0, "slope": -1.0}, "epsilon": -(mean - slack[1])},
                {"g": {"type": "power", "exponent": exponent}, "epsilon": moment + slack[2]},
            ],
        },
    }


def scenario(workload: str, index: int) -> dict | str:
    """Bank instance ``index`` of a workload: a scenario document, or a bundled scenario name."""
    rng = np.random.default_rng([_TAG[workload], index])
    if workload == "interval_large":
        return _interval_scenario(rng, 50, with_oracle=False)
    if workload == "moment_exchange":
        return _moment_scenario(rng)
    if index == 0:
        return "market_m6"
    return _interval_scenario(rng, int(rng.integers(4, 9)), with_oracle=True)


def write_bank(workload: str, directory: Path) -> list[str]:
    """Write every bank instance of a workload as a scenario file; return the CLI arguments."""
    args = []
    for index in range(BANK_SIZE[workload]):
        doc = scenario(workload, index)
        if isinstance(doc, str):
            args.append(doc)
            continue
        path = directory / f"{workload}-{index}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        args.append(str(path))
    return args


def visit_order(workload: str, seed: int):
    """Endless bank indices: one seeded permutation of the bank after another."""
    rng = random.Random(seed)
    indices = list(range(BANK_SIZE[workload]))
    while True:
        rng.shuffle(indices)
        yield from indices


def prepare(workload: str, scenario_arg: str):
    """The input one op receives: a parsed scenario, or the scenario argument for the CLI."""
    if workload == "planning_session":
        return scenario_arg
    return robustplan.load_scenario(scenario_arg)


class SessionFailed(Exception):
    """A CLI subcommand exited with a non-zero code."""


def run_op(workload: str, op_input):
    """One op. Returns the raw output that ``summarize`` reads."""
    if workload != "planning_session":
        sc = op_input
        return robustplan.solve_forecast_set(sc.forecast_set, sc.utility, sc.exchange)
    outputs = {}
    for command, *extra in SESSION:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([command, op_input, *extra])
        if code != 0:
            raise SessionFailed(f"{command} exited {code}: {stderr.getvalue().strip()}")
        outputs[command] = stdout.getvalue()
    return outputs


def summarize(workload: str, output) -> dict:
    """The fields of an op's output that the correctness gate compares."""
    if workload != "planning_session":
        return {"objective": output.objective, "b_star": output.b_star}
    solve = json.loads(output["solve"])
    sensitivity = json.loads(output["sensitivity"])
    sweep = list(csv.DictReader(io.StringIO(output["sweep"])))
    refine = list(csv.DictReader(io.StringIO(output["refine"])))
    check = json.loads(output["check"])
    return {
        "objective": solve["objective"],
        "b_star": solve["b_star"],
        "base_objective": sensitivity["base_objective"],
        "sensitivity_entries": len(sensitivity["entries"]),
        "sweep": [float(row["worst_case"]) for row in sweep],
        "refine_rows": len(refine),
        "refine_objective": float(refine[-1]["objective"]),
        "duality_gap_max": check["duality_gap_max"],
        "strict_feasibility_slack": check["strict_feasibility_slack"],
    }


def _differs(value, expected, tol: float) -> bool:
    if isinstance(expected, list):
        return not isinstance(value, list) or len(value) != len(expected) or any(
            _differs(v, e, tol) for v, e in zip(value, expected)
        )
    if isinstance(expected, (int, float)) and isinstance(value, (int, float)):
        return not abs(value - expected) <= tol
    return value != expected


def mismatches(workload: str, summary: dict, reference: dict) -> list[str]:
    """Summary fields that differ from the reference by more than their tolerance."""
    return [
        field for field, tol in TOLERANCE[workload].items() if _differs(summary.get(field), reference[field], tol)
    ]


def certified(workload: str, op_input, summary: dict) -> bool:
    """Whether an answer checks out on its own, with no recorded answer to compare.

    A solve's objective must agree with the brute-force primal at its decision
    on the scenario's check grid; a session's ``check`` must report a duality
    gap within the same bound. A brute-force primal that raises does not
    certify.
    """
    if workload == "planning_session":
        return summary["duality_gap_max"] <= DUALITY_GAP_TOL
    sc = op_input
    try:
        primal, _ = robustplan.brute_force_worst_case(sc.forecast_set, sc.utility, summary["b_star"], sc.check_grid)
    except robustplan.RobustPlanError:
        return False
    return abs(primal - summary["objective"]) <= DUALITY_GAP_TOL


def judge(workload: str, op_input, output, reference: dict) -> str:
    """Outcome of one op: "ok", "raised" or "wrong".

    ``output`` is None when the op raised. Raising is "raised" only where the
    reference records that the instance raised; anywhere else it is "wrong".
    An answer on an instance whose reference is an error has no recorded
    answer to match, so it must be ``certified``.
    """
    if output is None:
        return "raised" if "error" in reference else "wrong"
    summary = summarize(workload, output)
    if "error" in reference:
        return "ok" if certified(workload, op_input, summary) else "wrong"
    return "wrong" if mismatches(workload, summary, reference) else "ok"


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))["workloads"]
