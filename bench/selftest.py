"""Self-test of the benchmark.

Usage, from the root of the repository:

    python3 bench/selftest.py

Checks four things and exits with code 1 on the first failure:

* a one-op smoke run (``--seconds 0``) of every workload, untraced and
  traced, prints every metric that ``BENCHMARK.json`` names for that mode,
  with its unit, and a correct result;
* the correctness gate passes an op's own output and trips on every gated
  field when the reference value is perturbed beyond its tolerance; an op
  that raises trips it unless the instance's reference is that error, and an
  answer where the reference is an error passes only if it certifies itself;
* a run in which one op raises against a recorded answer reports
  ``correct: false``;
* in a tree that holds only ``BENCHMARK.json`` and the benchmark's files,
  the benchmark exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

from run import BENCH, OUT, ROOT, pin_environment, run


def _run(root, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=180,
    )


def check_smoke(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = _run(ROOT, workload, trace)
            assert done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}: {done.stderr}"
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
            assert result["correct"] is True and result["attempted"] >= 1, result
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == expected, f"{workload} trace={trace}: {printed} != {expected}"
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), (name, metric)
            print(f"smoke {workload} trace={trace}: {len(printed)} metrics, ok")


def check_gate() -> None:
    import workloads

    references = workloads.load_reference(BENCH / "reference.json")
    work = OUT / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for workload in workloads.WORKLOADS:
            args = workloads.write_bank(workload, work)
            index = next(i for i, ref in enumerate(references[workload]) if "error" not in ref)
            reference = references[workload][index]
            output = workloads.run_op(workload, workloads.prepare(workload, args[index]))
            summary = workloads.summarize(workload, output)
            assert workloads.mismatches(workload, summary, reference) == [], workload
            for field, tol in workloads.TOLERANCE[workload].items():
                perturbed = copy.deepcopy(reference)
                step = 10 * tol if tol else 1
                if isinstance(perturbed[field], list):
                    perturbed[field][0] += step
                elif isinstance(perturbed[field], (int, float)):
                    perturbed[field] += step
                else:
                    continue
                tripped = workloads.mismatches(workload, summary, perturbed)
                assert tripped == [field], f"{workload}: perturbing {field} tripped {tripped}"
            op_input = workloads.prepare(workload, args[index])
            assert workloads.judge(workload, op_input, output, reference) == "ok", workload
            assert workloads.judge(workload, op_input, None, reference) == "wrong", workload
            error_reference = {"error": "NumericalFailure"}
            assert workloads.judge(workload, op_input, None, error_reference) == "raised", workload
            assert workloads.judge(workload, op_input, output, error_reference) == "ok", workload
            print(f"gate {workload}: passes its own output, trips on {len(workloads.TOLERANCE[workload])} fields and on a raise")
        # An answer where the reference is an error is certified against the brute-force primal.
        args = workloads.write_bank("moment_exchange", work)
        index = next(i for i, ref in enumerate(references["moment_exchange"]) if "error" not in ref)
        op_input = workloads.prepare("moment_exchange", args[index])
        output = workloads.run_op("moment_exchange", op_input)
        output = dataclasses.replace(output, objective=output.objective + 10 * workloads.DUALITY_GAP_TOL)
        assert workloads.judge("moment_exchange", op_input, output, {"error": "NumericalFailure"}) == "wrong"
        print("gate: an uncertified answer where the reference is an error trips it")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_raising_run() -> None:
    """A run whose first timed op raises against a recorded answer reports correct: false."""
    import robustplan
    import workloads

    real, calls = workloads.run_op, []

    def raise_once(workload, op_input):
        calls.append(workload)
        if len(calls) == 2:  # the op after the untimed warm-up
            raise robustplan.NumericalFailure("raised by the self-test")
        return real(workload, op_input)

    work = OUT / f"selftest-run-{os.getpid()}"
    work.mkdir(parents=True)
    workloads.run_op = raise_once
    try:
        result = run("interval_large", 0, 0.0, False, work)["result"]
    finally:
        workloads.run_op = real
        shutil.rmtree(work, ignore_errors=True)
    assert result["correct"] is False and result["failed"] == 1, result
    print("raising run: correct is false")


def check_bare_tree() -> None:
    bare = OUT / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _run(bare, "interval_large", 0)
        assert done.returncode != 0, "benchmark succeeded without the package"
        assert '"correct"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare tree: exit code {done.returncode}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pin_environment()
    OUT.mkdir(exist_ok=True)
    try:
        check_smoke(spec)
        check_gate()
        check_raising_run()
        check_bare_tree()
    except AssertionError as err:
        print(f"selftest failed: {err}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
