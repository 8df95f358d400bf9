"""Record the benchmark's reference answers into ``reference.json``.

Usage, from the root of the repository:

    python3 bench/record_reference.py

Solves every bank instance of every workload once and stores the fields the
correctness gate compares (or the error an instance raised). Each answer is
cross-checked before it is written: the brute-force primal at the recorded
decision must agree with the dual solver within the acceptance suite's 1e-6
(``duality_gap``). The script exits with code 1, writing nothing, if any
cross-check fails. Run it again only when a change is meant to alter answers.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import BENCH, OUT, _environment, pin_environment


def _record(workload: str, scenario_args: list[str]) -> tuple[list[dict], list[str]]:
    import robustplan
    import workloads

    entries, problems = [], []
    for index, arg in enumerate(scenario_args):
        try:
            output = workloads.run_op(workload, workloads.prepare(workload, arg))
        except (robustplan.RobustPlanError, workloads.SessionFailed) as err:
            entries.append({"error": type(err).__name__})
            print(f"{workload}[{index}]: raised {type(err).__name__}: {err}", file=sys.stderr)
            continue
        summary = workloads.summarize(workload, output)
        sc = robustplan.load_scenario(arg)
        gap = robustplan.duality_gap(sc.forecast_set, sc.utility, summary["b_star"], sc.check_grid)
        if not gap <= workloads.DUALITY_GAP_TOL:
            problems.append(f"{workload}[{index}]: duality gap {gap:.3e} at b* = {summary['b_star']}")
        entries.append({**summary, "duality_gap_at_b_star": gap})
        print(f"{workload}[{index}]: objective {summary['objective']:.12g}, gap {gap:.2e}", file=sys.stderr)
    return entries, problems


def main() -> int:
    pin_environment()
    import workloads

    recorded, problems = {}, []
    work = OUT / "record-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for workload in workloads.WORKLOADS:
            entries, found = _record(workload, workloads.write_bank(workload, work))
            recorded[workload] = entries
            problems += found
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        print("cross-check failed:\n" + "\n".join(problems), file=sys.stderr)
        return 1

    env = _environment(seed=None)
    header = {
        "recorded_from": {k: env[k] for k in ("git_commit", "source_sha256", "python", "numpy", "blas")},
        "duality_gap_tol": workloads.DUALITY_GAP_TOL,
    }
    # One instance per line keeps the file readable and its diffs small.
    lines = [json.dumps(header)[:-1] + ', "workloads": {']
    for w, (workload, entries) in enumerate(recorded.items()):
        lines.append(f"{json.dumps(workload)}: [")
        lines += [json.dumps(e) + ("," if i < len(entries) - 1 else "") for i, e in enumerate(entries)]
        lines.append("]" + ("," if w < len(recorded) - 1 else ""))
    lines.append("}}")
    (BENCH / "reference.json").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
