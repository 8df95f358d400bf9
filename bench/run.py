"""Benchmark of robustplan: one workload per process, a closed loop with one client.

Usage, from the root of the repository:

    python3 bench/run.py --workload interval_large --seed 1 --seconds 20 --trace 0

The loop starts the next op when the previous one has finished. It visits the
workload's bank of instances in seeded passes and stops at the end of the
first pass that ends after it has spent ``--seconds`` of CPU time
(``--seconds 0`` is a one-op smoke run). Every op's output goes through the correctness gate
(``workloads.judge``). The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are per-module
metrics from spans around calls into the package, taken while each instance
runs a second time (the untraced runs measure the tracing overhead). The line
before it records the environment and the tail percentile.

The package is imported from ``src/`` of the tree the script sits in; without
it the script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

#: Thread-count variables of the BLAS builds numpy may load; set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh-process set-ups per run; setup_s is their median.
SETUP_REPEATS = 7

SETUP_CODE = """
import sys, time
start = time.process_time()
sys.path.insert(0, sys.argv[1])
import robustplan
robustplan.load_scenario(sys.argv[2])
print(repr(time.process_time() - start))
"""


def pin_environment() -> None:
    """One BLAS thread, and the package and benchmark modules importable; call before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]


def _setup_seconds(scenario_arg: str) -> float:
    """Median CPU time of ``import robustplan`` plus ``load_scenario``, each in a fresh process."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), scenario_arg],
            cwd=ROOT,
            env=os.environ.copy(),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _tail(times_ms: list[float], bank_size: int) -> tuple[float, int]:
    """The tail percentile of a workload and its value over ``times_ms``.

    The percentile is the highest whole one with at least ten samples beyond
    it in one pass over the bank, the least a run measures, so it is the same
    on every run of a workload however many passes the host's speed allows.
    Below 20 instances every such percentile lies under the median, so the
    maximum (p100) is reported instead.
    """
    ordered = sorted(times_ms)
    if bank_size < 20:
        return ordered[-1], 100
    percentile = (100 * (bank_size - 10)) // bank_size
    rank = -(-percentile * len(ordered) // 100)  # nearest rank, ceil(p * n / 100)
    return ordered[rank - 1], percentile


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _process_threads() -> int | None:
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return None
    return next((int(line.split()[1]) for line in status.splitlines() if line.startswith("Threads:")), None)


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "process_threads": _process_threads(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import robustplan
    import workloads
    from tracing import Tracer

    reference = workloads.load_reference(BENCH / "reference.json")[workload]
    scenario_args = workloads.write_bank(workload, work)
    inputs = [workloads.prepare(workload, arg) for arg in scenario_args]
    order = workloads.visit_order(workload, seed)
    first = next(order)

    setup_s = _setup_seconds(scenario_args[first])

    def attempt(index: int, tracer=None, op: int = 0) -> tuple[float, float, str]:
        """Run one op; return its CPU and wall seconds and its outcome (``workloads.judge``)."""
        if tracer is not None:
            tracer.install(op)
        cpu_start, wall_start = time.process_time(), time.perf_counter()
        try:
            output = workloads.run_op(workload, inputs[index])
        except (robustplan.RobustPlanError, workloads.SessionFailed):
            output = None
        finally:
            cpu, wall = time.process_time() - cpu_start, time.perf_counter() - wall_start
            if tracer is not None:
                tracer.uninstall()
        return cpu, wall, workloads.judge(workload, inputs[index], output, reference[index])

    # Warm-up op, untimed: lazy imports and first-call costs are paid here.
    all_correct = attempt(first)[2] != "wrong"

    # The loop ends on a whole pass over the bank, once ``seconds`` of CPU
    # time have passed, so every run times each instance equally often and
    # runs differ only in order. Latency and throughput count only ops that
    # completed and passed the gate. Op times, and the loop's clock, are the
    # CPU time the process spent: the package is single-threaded and
    # CPU-bound, so on an unshared core this is its wall time, and it leaves
    # out time a shared host gives to others.
    tracer = Tracer() if trace else None
    untraced, traced = [], []  # (cpu_ms, wall_ms, ok) per op
    attempted = failed = visits = 0
    index = first
    loop_start = time.process_time()
    while True:
        if trace:
            # Each visit runs the instance twice, traced and untraced, alternating which goes first.
            pair = [None, tracer] if visits % 2 == 0 else [tracer, None]
            runs = [(t, attempt(index, t, attempted)) for t in pair]
        else:
            runs = [(None, attempt(index))]
        visits += 1
        for t, (cpu, wall, outcome) in runs:
            attempted += 1
            failed += outcome != "ok"
            all_correct &= outcome != "wrong"
            (untraced if t is None else traced).append((1e3 * cpu, 1e3 * wall, outcome == "ok"))
        sampled = any(ok for *_, ok in untraced) and (not trace or any(ok for *_, ok in traced))
        ended = time.process_time() - loop_start >= seconds and (seconds <= 0 or visits % len(inputs) == 0)
        if ended and (sampled or visits >= 2 * len(inputs)):
            break
        index = next(order)
    if not sampled:
        raise RuntimeError(f"no op of {workload} completed in {attempted} attempts")

    def ok_ms(ops: list, column: int = 0) -> list[float]:
        return [op[column] for op in ops if op[2]]

    result = {"correct": all_correct, "attempted": attempted, "failed": failed}
    record = {"workload": workload, "trace": int(trace), "bank_passes": visits / len(inputs), **_environment(seed)}
    untraced_ms = ok_ms(untraced)
    if trace:
        traced_wall = [wall for _, wall, _ in traced]
        metrics = tracer.metrics(len(traced_wall), sum(traced_wall) / 1e3)
        overhead = statistics.median(ok_ms(traced)) / statistics.median(untraced_ms) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        metrics["failed_frac"] = (failed / attempted, "ratio")
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
    else:
        tail_ms, percentile = _tail(untraced_ms, len(inputs))
        record["op_tail"] = {"percentile": percentile, "samples": len(untraced_ms)}
        record["op_p50_wall_ms"] = statistics.median(ok_ms(untraced, column=1))
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (statistics.median(untraced_ms), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            # Correct ops per CPU second of all ops, failed ones included.
            "ops_per_s": (len(untraced_ms) / (sum(cpu for cpu, _, _ in untraced) / 1e3), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return {"record": record, "result": result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "robustplan" / "__init__.py").is_file():
        print(f"error: no robustplan package under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"record": outcome["record"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
