"""Replay the benchmark banks and print a SHA-256 over every LP they solve, per bank and in total.

Run it from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python3 tools/lp_digest.py

Every op of the three banks in ``bench/workloads.py`` runs once, in bank
order. Each ``solve_lp`` call adds to the digest its status and the bytes of
its solution, objective and basis columns (or the error it raised), and
each line the ``robustplan`` logger writes at DEBUG level adds its text, so
the pivot counts per phase and refactorizations of every solve are in it
too. The script prints one line per bank, with its number
of calls and its own digest, then the same for all three banks together. A
change meant to leave every pivot of a bank where it was must print the same
line for that bank before and after, at the same BLAS thread count.
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


class _Digests:
    """The running total digest and the current bank's, with a call count for each."""

    def __init__(self):
        self.total, self.bank = hashlib.sha256(), hashlib.sha256()
        self.total_calls = self.bank_calls = 0

    def update(self, data: bytes) -> None:
        self.total.update(data)
        self.bank.update(data)


class _DigestHandler(logging.Handler):
    """Feeds every record's message to the digests, in the order they are logged."""

    def __init__(self, digest):
        super().__init__(logging.DEBUG)
        self.digest = digest

    def emit(self, record):
        self.digest.update(record.getMessage().encode() + b"\n")


def replay() -> list[tuple[str, int, str]]:
    """Run every bank op once; return (bank, ``solve_lp`` calls, digest) per bank and then for all of them."""
    digest = _Digests()
    lines = []

    def recording_solve_lp(problem, start=None):
        digest.total_calls += 1
        digest.bank_calls += 1
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
        return result

    for module in CALLERS:
        # Patching a name the module no longer has would count none of its calls.
        if getattr(module, "solve_lp", None) is not simplex.solve_lp:
            raise SystemExit(f"{module.__name__} no longer imports simplex.solve_lp as solve_lp")
    logger = logging.getLogger("robustplan")
    handler = _DigestHandler(digest)
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    for module in CALLERS:
        module.solve_lp = recording_solve_lp
    try:
        with tempfile.TemporaryDirectory() as work:
            for workload in workloads.WORKLOADS:
                digest.bank, digest.bank_calls = hashlib.sha256(), 0
                for arg in workloads.write_bank(workload, Path(work)):
                    try:
                        workloads.run_op(workload, workloads.prepare(workload, arg))
                    except (RobustPlanError, workloads.SessionFailed) as exc:
                        digest.update(f"op raised {type(exc).__name__}\n".encode())
                lines.append((workload, digest.bank_calls, digest.bank.hexdigest()))
    finally:
        for module in CALLERS:
            module.solve_lp = simplex.solve_lp
        logger.removeHandler(handler)
    return lines + [("total", digest.total_calls, digest.total.hexdigest())]


def main() -> int:
    for bank, calls, hexdigest in replay():
        print(f"{bank}: {calls} solve_lp calls, sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
