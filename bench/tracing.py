"""Outside-in tracing of robustplan: spans around calls into its public functions.

The package binds its functions separately in each module that imports them
(``from .simplex import solve_lp`` in solver, bruteforce and forecast, for
example), so a wrapper is installed by rebinding every module attribute that
holds the original function, and on the class for a method. Nothing inside
``src/`` changes. Spans stay in memory while ops run; self time (a span minus
the time its child spans cover) and the per-module metrics are computed once
at the end.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _lp_shape(args, result):
    lp = args[0]
    rows, cols = lp.matrix.shape
    boxed = int(np.count_nonzero(np.isfinite(lp.lower) & np.isfinite(lp.upper)))
    return {"rows": rows, "cols": cols, "boxed": boxed, "status": result.status}


def _points(args, result):
    return {"points": int(np.size(args[1]))}


#: Traced callables as (module, attribute), with what each span records about
#: its call. ``Class.method`` names a method, patched on the class.
TRACED = {
    ("simplex", "solve_lp"): _lp_shape,
    ("solver", "solve_forecast_set"): None,
    ("solver", "worst_case_value"): None,
    ("solver", "sweep"): None,
    ("solver", "true_expected"): None,
    ("forecast", "constraint_values"): _points,
    ("forecast", "strict_feasibility_slack"): None,
    ("forecast", "feasibility_ball_radius"): None,
    ("utility", "Utility.values_at"): _points,
    ("bruteforce", "brute_force_worst_case"): None,
    ("bruteforce", "duality_gap"): None,
    ("scenario", "load_scenario"): None,
    ("sensitivity", "sensitivities"): None,
    ("sensitivity", "forecast_kind"): None,
    ("refine", "refine_loop"): lambda args, result: {"iterations": len(result.iterations) - 1},
    ("cli", "main"): lambda args, result: {"command": args[0][0]},
}

CLI_COMMANDS = ("solve", "sensitivity", "sweep", "refine", "check")

# Span fields, kept as plain lists for low overhead.
_NAME, _OP, _PARENT, _START, _END, _ATTRS, _ERROR = range(7)


class Tracer:
    """Records spans for the calls made between ``install(op)`` and ``uninstall()``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._bindings = self._find_bindings()

    def _find_bindings(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every place a traced callable is bound."""
        package = "robustplan"
        modules = [m for name, m in sorted(sys.modules.items()) if name == package or name.startswith(package + ".")]
        bindings = []
        for (module_name, attribute), attrs in TRACED.items():
            module = sys.modules[f"{package}.{module_name}"]
            span_name = f"{module_name}.{attribute}"
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                bindings.append((cls, method, original, self._wrap(span_name, original, attrs)))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(span_name, original, attrs)
            for owner in modules:
                for name, value in list(vars(owner).items()):
                    if value is original:
                        bindings.append((owner, name, original, wrapper))
        return bindings

    def _wrap(self, name: str, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._op, stack[-1] if stack else None, 0.0, 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[_ERROR] = type(err).__name__
                raise
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[_ATTRS] = attrs(args, result)
            return result

        return traced

    def install(self, op: int) -> None:
        self._op = op
        for owner, name, _, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self._bindings):
            setattr(owner, name, original)
        self._op = None

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (times in seconds from the first span)."""
        origin = self.spans[0][_START] if self.spans else 0.0
        with path.open("w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                doc = {
                    "id": index,
                    "op": span[_OP],
                    "parent": span[_PARENT],
                    "name": span[_NAME],
                    "start": span[_START] - origin,
                    "end": span[_END] - origin,
                }
                if span[_ATTRS]:
                    doc["attrs"] = span[_ATTRS]
                if span[_ERROR]:
                    doc["error"] = span[_ERROR]
                out.write(json.dumps(doc) + "\n")

    def metrics(self, ops: int, op_wall_s: float) -> dict[str, tuple[float, str]]:
        """Per-module metrics over the traced ops, as name -> (value, unit).

        Counts and ``*_ms`` times are per op unless the name says otherwise;
        ``share`` is the module's self time over the ops' total wall time.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] is not None:
                child[span[_PARENT]] += span[_END] - span[_START]
        self_s = defaultdict(float)
        raised = defaultdict(int)
        by_name = defaultdict(list)
        for index, span in enumerate(spans):
            module = span[_NAME].split(".")[0]
            self_s[module] += span[_END] - span[_START] - child[index]
            raised[module] += span[_ERROR] is not None
            by_name[span[_NAME]].append(index)

        def per_op(x):
            return x / ops

        def ms_per_op(module):
            return 1e3 * self_s[module] / ops

        def duration_ms(index):
            return 1e3 * (spans[index][_END] - spans[index][_START])

        def mean(values):
            return float(np.mean(values)) if values else 0.0

        def enclosing(index, names):
            parent = spans[index][_PARENT]
            while parent is not None and spans[parent][_NAME] not in names:
                parent = spans[parent][_PARENT]
            return None if parent is None else spans[parent][_NAME]

        lps = by_name["simplex.solve_lp"]
        shapes = [spans[i][_ATTRS] for i in lps if spans[i][_ATTRS]]
        solves = by_name["solver.solve_forecast_set"]
        solve_names = ("solver.solve_forecast_set", "solver.worst_case_value")
        lps_in_solves = sum(enclosing(i, solve_names) == "solver.solve_forecast_set" for i in lps)
        brute_lps = [
            spans[i][_ATTRS]["cols"]
            for i in lps
            if spans[i][_PARENT] is not None
            and spans[spans[i][_PARENT]][_NAME].startswith("bruteforce.")
            and spans[i][_ATTRS]
        ]
        g_calls = by_name["forecast.constraint_values"]
        u_calls = by_name["utility.Utility.values_at"]
        refines = by_name["refine.refine_loop"]

        out = {
            "simplex.calls": (per_op(len(lps)), "count"),
            "simplex.self_ms": (ms_per_op("simplex"), "ms"),
            "simplex.ms_per_call_p50": (statistics.median(map(duration_ms, lps)) if lps else 0.0, "ms"),
            "simplex.share": (self_s["simplex"] / op_wall_s if op_wall_s else 0.0, "ratio"),
            "simplex.rows_mean": (mean([s["rows"] for s in shapes]), "rows"),
            "simplex.cols_mean": (mean([s["cols"] for s in shapes]), "cols"),
            "simplex.boxed_cols_mean": (mean([s["boxed"] for s in shapes]), "cols"),
            "simplex.not_optimal": (per_op(sum(s["status"] != "optimal" for s in shapes)), "count"),
            "simplex.raised": (per_op(raised["simplex"]), "count"),
            "solver.solves": (per_op(len(solves)), "count"),
            "solver.fixed_b_solves": (per_op(len(by_name["solver.worst_case_value"])), "count"),
            "solver.lp_per_solve": (lps_in_solves / len(solves) if solves else 0.0, "count"),
            "solver.self_ms": (ms_per_op("solver"), "ms"),
            "solver.raised": (per_op(raised["solver"]), "count"),
            "forecast.values_calls": (per_op(len(g_calls)), "count"),
            "forecast.points": (per_op(sum(spans[i][_ATTRS]["points"] for i in g_calls if spans[i][_ATTRS])), "count"),
            "forecast.self_ms": (ms_per_op("forecast"), "ms"),
            "forecast.slack_ms": (per_op(sum(map(duration_ms, by_name["forecast.strict_feasibility_slack"]))), "ms"),
            "utility.values_at_calls": (per_op(len(u_calls)), "count"),
            "utility.points": (per_op(sum(spans[i][_ATTRS]["points"] for i in u_calls if spans[i][_ATTRS])), "count"),
            "utility.self_ms": (ms_per_op("utility"), "ms"),
            "bruteforce.calls": (per_op(len(by_name["bruteforce.brute_force_worst_case"])), "count"),
            "bruteforce.self_ms": (ms_per_op("bruteforce"), "ms"),
            "bruteforce.lp_cols_mean": (mean(brute_lps), "cols"),
            "scenario.loads": (per_op(len(by_name["scenario.load_scenario"])), "count"),
            "scenario.self_ms": (ms_per_op("scenario"), "ms"),
            "sensitivity.self_ms": (ms_per_op("sensitivity"), "ms"),
            "refine.iterations": (per_op(sum(spans[i][_ATTRS]["iterations"] for i in refines if spans[i][_ATTRS])), "count"),
            "refine.self_ms": (ms_per_op("refine"), "ms"),
            "cli.self_ms": (ms_per_op("cli"), "ms"),
        }
        mains = by_name["cli.main"]
        for command in CLI_COMMANDS:
            durations = [duration_ms(i) for i in mains if spans[i][_ATTRS] and spans[i][_ATTRS]["command"] == command]
            out[f"cli.{command}_ms"] = (mean(durations), "ms")
        return out
