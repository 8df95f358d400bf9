"""Replay the benchmark banks and print a SHA-256 over every LP they solve, per bank and in total.

Run it from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python3 tools/lp_digest.py

Every op of the three banks in ``bench/workloads.py`` runs once, in bank
order. Each ``solve_lp`` call adds to the digest its status and the bytes of
its solution, objective and basis columns (or the error it raised), and
each line the ``robustplan`` logger writes at DEBUG level adds its text, so
the pivot counts per phase and refactorizations of every solve are in it
too. The script prints one line per bank, with its number of calls, its
own digest, its pivots per simplex phase summed over its solves, how many
of its solves were given a start basis and used or rejected it, and the
row count of its largest LP, then the same for all three banks together. A
change meant to leave every LP of a bank as it was must print the same line
for that bank before and after, at the same BLAS thread count. The digest
also moves when only an LP's shape or the last bits of an answer move; the
pivot sums show at a glance whether the pivots moved too.
"""

from __future__ import annotations

import hashlib
import logging
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from robustplan import RobustPlanError, bruteforce, forecast, simplex, solver  # noqa: E402

#: The modules that call ``solve_lp`` by the name they imported.
CALLERS = (bruteforce, forecast, solver)

#: The pivots per phase and what became of the start in ``solve_lp``'s DEBUG line.
SOLVE_LINE = re.compile(r"pivots (\d+) \+ (\d+) \(phase 1 \+ 2\), .* start (none|used|rejected)$")


class _Tally:
    """A digest, with the ``solve_lp`` calls, pivots per phase, starts used and rejected and most LP rows it covers."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.calls, self.pivots, self.rows = 0, [0, 0], 0
        self.starts = Counter()

    def line(self, name: str) -> str:
        return (
            f"{name}: {self.calls} solve_lp calls, sha256 {self.sha.hexdigest()}, "
            f"pivots {self.pivots[0]} + {self.pivots[1]} (phase 1 + 2), "
            f"starts {self.starts['used']} used + {self.starts['rejected']} rejected, largest LP {self.rows} rows"
        )


class _Digests:
    """The running total tally and the current bank's."""

    def __init__(self):
        self.total, self.bank = _Tally(), _Tally()

    def update(self, data: bytes) -> None:
        self.total.sha.update(data)
        self.bank.sha.update(data)

    def count(self, rows: int) -> None:
        for tally in (self.total, self.bank):
            tally.calls += 1
            tally.rows = max(tally.rows, rows)

    def add_solve(self, phase1: str, phase2: str, start: str) -> None:
        for tally in (self.total, self.bank):
            tally.pivots[0] += int(phase1)
            tally.pivots[1] += int(phase2)
            tally.starts[start] += 1


class _DigestHandler(logging.Handler):
    """Feeds every record's message to the digests, in the order they are logged."""

    def __init__(self, digest):
        super().__init__(logging.DEBUG)
        self.digest = digest

    def emit(self, record):
        message = record.getMessage()
        self.digest.update(message.encode() + b"\n")
        solve = SOLVE_LINE.search(message)
        if solve:
            self.digest.add_solve(*solve.groups())


def replay() -> list[str]:
    """Run every bank op once; return the line of each bank and then the one of all of them."""
    digest = _Digests()
    lines = []

    def recording_solve_lp(problem, start=None):
        digest.count(problem.matrix.shape[0])
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
                digest.bank = _Tally()
                for arg in workloads.write_bank(workload, Path(work)):
                    try:
                        workloads.run_op(workload, workloads.prepare(workload, arg))
                    except (RobustPlanError, workloads.SessionFailed) as exc:
                        digest.update(f"op raised {type(exc).__name__}\n".encode())
                lines.append(digest.bank.line(workload))
    finally:
        for module in CALLERS:
            module.solve_lp = simplex.solve_lp
        logger.removeHandler(handler)
    return lines + [digest.total.line("total")]


def main() -> int:
    print("\n".join(replay()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
