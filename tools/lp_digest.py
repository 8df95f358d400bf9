"""Replay the benchmark banks and print one SHA-256 over every LP they solve.

Run it from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python3 tools/lp_digest.py

Every op of the three banks in ``bench/workloads.py`` runs once, in bank
order. Each ``solve_lp`` call adds to the digest its status and the bytes of
its solution, objective and basis (or the error it raised), and each line
the ``robustplan`` logger writes at DEBUG level adds its text, so the pivot
counts per phase, dual pivots, bound flips and refactorizations of every
solve are in it too. The script prints the number of calls and the digest. A
change meant to leave every pivot where it was must print the same two
values before and after, at the same BLAS thread count.
"""

from __future__ import annotations

import hashlib
import logging
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from robustplan import RobustPlanError, bruteforce, forecast, simplex, solver  # noqa: E402

#: The modules that call ``solve_lp`` by the name they imported.
CALLERS = (bruteforce, forecast, solver)


class _DigestHandler(logging.Handler):
    """Feeds every record's message to the digest, in the order they are logged."""

    def __init__(self, digest):
        super().__init__(logging.DEBUG)
        self.digest = digest

    def emit(self, record):
        self.digest.update(record.getMessage().encode() + b"\n")


def replay() -> tuple[int, str]:
    """Run every bank op once; return the number of ``solve_lp`` calls and the digest."""
    digest = hashlib.sha256()
    calls = 0

    def recording_solve_lp(problem, start=None):
        nonlocal calls
        calls += 1
        try:
            result = simplex.solve_lp(problem, start=start)
        except RobustPlanError as exc:
            digest.update(f"raised {type(exc).__name__}: {exc}\n".encode())
            raise
        digest.update(result.status.encode())
        if result.solution is not None:
            digest.update(result.solution.tobytes())
            digest.update(np.float64(result.objective_value).tobytes())
            digest.update(result.basis.columns.tobytes())
            digest.update(result.basis.at_upper.tobytes())
        return result

    logger = logging.getLogger("robustplan")
    handler = _DigestHandler(digest)
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    for module in CALLERS:
        module.solve_lp = recording_solve_lp
    try:
        with tempfile.TemporaryDirectory() as work:
            for workload in workloads.WORKLOADS:
                for arg in workloads.write_bank(workload, Path(work)):
                    try:
                        workloads.run_op(workload, workloads.prepare(workload, arg))
                    except (RobustPlanError, workloads.SessionFailed) as exc:
                        digest.update(f"op raised {type(exc).__name__}\n".encode())
    finally:
        for module in CALLERS:
            module.solve_lp = simplex.solve_lp
        logger.removeHandler(handler)
    return calls, digest.hexdigest()


def main() -> int:
    calls, hexdigest = replay()
    print(f"{calls} solve_lp calls, sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
