"""Self-contained dense linear-programming solver.

Implements a two-phase primal simplex in revised form: the basis system is
re-solved from scratch every pivot (three dense solves against the current
basis matrix), which avoids the accumulated drift of tableau updates at the
cost of a little arithmetic — a good trade for the small dense problems this
package generates (tens of rows, up to a few hundred columns).

Pricing is Dantzig's rule (most negative reduced cost) with Bland's
anti-cycling rule engaged automatically after a run of degenerate pivots and
disengaged once the objective moves again; the ratio test always breaks ties
Bland-style (lowest variable index), so every solve is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, ValidationError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, EQ, GE = "<=", "=", ">="

#: Absolute feasibility tolerance for returned solutions.
FEASIBILITY_TOL = 1e-9
#: Reduced-cost (optimality) tolerance.
REDUCED_COST_TOL = 1e-9
#: Hard cap on total pivots across both phases.
MAX_PIVOTS = 1_000_000

# Pivot-element and ratio-test guards.
_PIVOT_TOL = 1e-11
_DEGENERATE_STALL_LIMIT = 50


@dataclass(frozen=True)
class LinearProgram:
    """A dense LP: optimize ``objective @ x`` subject to row constraints and box bounds.

    Fields:
        objective: length-n cost vector.
        matrix: (m, n) dense constraint matrix.
        senses: per-row comparison, each one of ``"<="``, ``"="``, ``">="``.
        rhs: length-m right-hand sides.
        lower / upper: per-variable bounds; ``-inf`` / ``+inf`` mark unbounded sides.
        sense: ``"maximize"`` or ``"minimize"``.
    """

    objective: np.ndarray
    matrix: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    sense: str = "maximize"

    def __post_init__(self):
        object.__setattr__(self, "objective", np.asarray(self.objective, dtype=float))
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.ndim != 2:
            matrix = matrix.reshape(len(self.senses), -1) if matrix.size else matrix.reshape(0, len(self.objective))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "senses", tuple(self.senses))
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))

    def validate(self) -> None:
        """Check structural invariants, raising ValidationError on the first failure."""
        n = self.objective.shape[0]
        m = self.matrix.shape[0]
        if self.objective.ndim != 1:
            raise ValidationError("objective", "must be a 1-D vector")
        if self.matrix.ndim != 2 or self.matrix.shape[1] != n:
            raise ValidationError("matrix", f"expected shape (rows, {n}), got {self.matrix.shape}")
        if len(self.senses) != m:
            raise ValidationError("senses", f"expected {m} entries, got {len(self.senses)}")
        if self.rhs.shape != (m,):
            raise ValidationError("rhs", f"expected {m} entries, got {self.rhs.shape}")
        for i, s in enumerate(self.senses):
            if s not in (LE, EQ, GE):
                raise ValidationError(f"senses[{i}]", f"unknown sense {s!r}")
        if self.lower.shape != (n,):
            raise ValidationError("lower", f"expected {n} entries, got {self.lower.shape}")
        if self.upper.shape != (n,):
            raise ValidationError("upper", f"expected {n} entries, got {self.upper.shape}")
        if self.sense not in ("maximize", "minimize"):
            raise ValidationError("sense", f"must be 'maximize' or 'minimize', got {self.sense!r}")
        if not np.all(np.isfinite(self.objective)):
            raise ValidationError("objective", "coefficients must be finite")
        if not np.all(np.isfinite(self.matrix)):
            raise ValidationError("matrix", "coefficients must be finite")
        if not np.all(np.isfinite(self.rhs)):
            raise ValidationError("rhs", "entries must be finite")
        for j in range(n):
            lo, hi = self.lower[j], self.upper[j]
            if np.isnan(lo) or np.isnan(hi) or lo == np.inf or hi == -np.inf:
                raise ValidationError(f"bounds[{j}]", f"invalid bound pair ({lo}, {hi})")
            if lo > hi:
                raise ValidationError(f"bounds[{j}]", f"lower bound {lo} exceeds upper bound {hi}")


@dataclass(frozen=True)
class LpResult:
    """Outcome of a solve: status plus, when optimal, the point and its objective."""

    status: str
    solution: np.ndarray | None = None
    objective_value: float | None = None


@dataclass
class _Standardized:
    """min c'x, A x {sense} b with x >= 0, plus the recipe to undo the change of variables.

    The original point is ``base`` plus ``sign[k] * x[k]`` added into variable
    ``var[k]`` for every standardized column k.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    senses: list[str]
    cost: np.ndarray
    base: np.ndarray
    var: np.ndarray
    sign: np.ndarray


class _Unbounded(Exception):
    pass


def _standardize(problem: LinearProgram) -> _Standardized:
    """Rewrite the LP over nonnegative variables with finite uppers as extra rows.

    A variable with equal bounds is a constant: it is folded into the
    right-hand side and gets no column and no row.
    """
    A, c = problem.matrix, problem.objective
    n = c.shape[0]
    fixed = problem.lower == problem.upper
    rhs = problem.rhs - A[:, fixed] @ problem.lower[fixed]
    columns: list[np.ndarray] = []
    cost: list[float] = []
    var: list[int] = []
    sign: list[float] = []
    base_point = np.zeros(n)
    upper_rows: list[tuple[int, float]] = []  # (standardized column, width)

    for j in np.flatnonzero(~fixed):
        lo, hi = problem.lower[j], problem.upper[j]
        if np.isfinite(lo):
            # x_j = lo + x', x' >= 0; finite width becomes an explicit row.
            var.append(j)
            sign.append(1.0)
            columns.append(A[:, j].copy())
            cost.append(c[j])
            base_point[j] = lo
            if np.isfinite(hi):
                upper_rows.append((len(columns) - 1, hi - lo))
        elif np.isfinite(hi):
            # x_j = hi - x', x' >= 0.
            var.append(j)
            sign.append(-1.0)
            columns.append(-A[:, j])
            cost.append(-c[j])
            base_point[j] = hi
        else:
            # Free variable: x_j = x+ - x-.
            var += [j, j]
            sign += [1.0, -1.0]
            columns += [A[:, j].copy(), -A[:, j]]
            cost += [c[j], -c[j]]

    n_std = len(columns)
    matrix = np.column_stack(columns) if n_std else np.zeros((A.shape[0], 0))
    rhs = rhs - A @ base_point
    senses = list(problem.senses)

    for col, width in upper_rows:
        row = np.zeros(n_std)
        row[col] = 1.0
        matrix = np.vstack([matrix, row])
        rhs = np.append(rhs, width)
        senses.append(LE)

    cost_vec = np.asarray(cost)
    if problem.sense == "maximize":
        cost_vec = -cost_vec
    base = np.where(fixed, problem.lower, base_point)
    return _Standardized(matrix, rhs, senses, cost_vec, base, np.array(var, dtype=int), np.array(sign))


def _iterate(
    A: np.ndarray,
    b: np.ndarray,
    cost: np.ndarray,
    basis: np.ndarray,
    banned: np.ndarray,
    pin_zero: np.ndarray,
    pivots_left: int,
) -> tuple[np.ndarray, int]:
    """Pivot to optimality on min cost'x, Ax = b, x >= 0 from the given basis.

    ``banned`` marks columns that may never enter. ``pin_zero`` marks columns
    that must stay at zero whenever basic (leftover artificials): rows they own
    get a zero-ratio exit as soon as the entering direction would move them.

    Returns (final basis, pivots used). Raises _Unbounded or NumericalFailure.
    """
    m, _ = A.shape
    if m == 0:
        if np.any(cost[~banned] < -REDUCED_COST_TOL):
            raise _Unbounded
        return basis, 0

    basis = np.array(basis, dtype=int)
    pivots = 0
    bland = False
    stall = 0
    best_objective = np.inf

    while True:
        if pivots >= pivots_left:
            raise NumericalFailure(f"pivot cap of {MAX_PIVOTS} exhausted")
        B = A[:, basis]
        try:
            x_basic = np.linalg.solve(B, b)
            duals = np.linalg.solve(B.T, cost[basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure(f"singular basis matrix: {exc}") from exc

        objective = float(cost[basis] @ x_basic)
        if objective < best_objective - 1e-12:
            best_objective = objective
            stall = 0
            bland = False
        else:
            stall += 1
            if stall >= _DEGENERATE_STALL_LIMIT:
                bland = True

        reduced = cost - A.T @ duals
        candidates = ~banned
        candidates[basis] = False
        candidates &= reduced < -REDUCED_COST_TOL
        idx = np.where(candidates)[0]
        if idx.size == 0:
            return basis, pivots

        entering = int(idx[0]) if bland else int(idx[np.argmin(reduced[idx])])
        direction = np.linalg.solve(B, A[:, entering])

        # Ratio test: ordinary blocking rows, plus zero-ratio exits for pinned
        # (artificial) basics the moment the direction would move them at all.
        basic_vals = np.maximum(x_basic, 0.0)
        blocking = direction > _PIVOT_TOL
        pinned_rows = pin_zero[basis] & (np.abs(direction) > _PIVOT_TOL)
        ratios = np.full(m, np.inf)
        ratios[blocking] = basic_vals[blocking] / direction[blocking]
        ratios[pinned_rows] = 0.0
        theta = ratios.min()
        if not np.isfinite(theta):
            raise _Unbounded

        tied = np.where(ratios <= theta + 1e-12)[0]
        # Prefer evicting pinned leftovers, then lowest variable index (Bland).
        leave_pos = min(tied, key=lambda r: (not pin_zero[basis[r]], basis[r]))
        basis[leave_pos] = entering
        pivots += 1


def solve_lp(problem: LinearProgram) -> LpResult:
    """Solve a dense LP, returning status, an optimal point, and its objective.

    Raises:
        ValidationError: structural problems with the input (not a solver status).
        NumericalFailure: pivot cap exhausted or an internal consistency check failed.
    """
    problem.validate()
    std = _standardize(problem)
    A, rhs, senses = std.matrix, std.rhs.copy(), list(std.senses)
    m, n_std = A.shape

    # Normalize to nonnegative right-hand sides so slacks/artificials can seed the basis.
    for i in range(m):
        if rhs[i] < 0:
            A[i, :] = -A[i, :]
            rhs[i] = -rhs[i]
            senses[i] = {LE: GE, GE: LE, EQ: EQ}[senses[i]]

    slack_cols: list[np.ndarray] = []
    artificial_cols: list[np.ndarray] = []
    slack_owner: list[int] = []
    artificial_owner: list[int] = []

    for i, s in enumerate(senses):
        if s == LE:
            col = np.zeros(m)
            col[i] = 1.0
            slack_cols.append(col)
            slack_owner.append(i)
        elif s == GE:
            col = np.zeros(m)
            col[i] = -1.0  # surplus
            slack_cols.append(col)
            slack_owner.append(i)
            art = np.zeros(m)
            art[i] = 1.0
            artificial_cols.append(art)
            artificial_owner.append(i)
        else:
            art = np.zeros(m)
            art[i] = 1.0
            artificial_cols.append(art)
            artificial_owner.append(i)

    n_slack = len(slack_cols)
    full = np.hstack(
        [A]
        + ([np.column_stack(slack_cols)] if slack_cols else [])
        + ([np.column_stack(artificial_cols)] if artificial_cols else [])
    )
    n_total = full.shape[1]

    artificial_mask = np.zeros(n_total, dtype=bool)
    artificial_mask[n_std + n_slack :] = True

    # Initial basis: the slack for <= rows, the artificial for >= and = rows.
    basis = np.empty(m, dtype=int)
    slack_at = {owner: n_std + k for k, owner in enumerate(slack_owner)}
    art_at = {owner: n_std + n_slack + k for k, owner in enumerate(artificial_owner)}
    for i, s in enumerate(senses):
        basis[i] = slack_at[i] if s == LE else art_at[i]

    pivots_left = MAX_PIVOTS

    # Phase 1: minimize the artificial mass.
    if artificial_cols:
        phase1_cost = np.zeros(n_total)
        phase1_cost[artificial_mask] = 1.0
        try:
            basis, used = _iterate(
                full, rhs, phase1_cost, basis, artificial_mask.copy(), np.zeros(n_total, dtype=bool), pivots_left
            )
        except _Unbounded as exc:  # phase-1 objective is bounded below by zero
            raise NumericalFailure("phase-1 subproblem reported unbounded") from exc
        pivots_left -= used
        B = full[:, basis]
        x_basic = np.linalg.solve(B, rhs)
        infeasibility = float(x_basic[artificial_mask[basis]].sum()) if artificial_mask[basis].any() else 0.0
        if infeasibility > FEASIBILITY_TOL * max(1.0, float(np.abs(rhs).max(initial=0.0))):
            return LpResult(status=INFEASIBLE)

        # Drive leftover artificials out of the basis where a real pivot exists.
        for pos in range(m):
            if not artificial_mask[basis[pos]]:
                continue
            unit = np.zeros(m)
            unit[pos] = 1.0
            weights = np.linalg.solve(full[:, basis].T, unit)
            row = weights @ full
            row[artificial_mask] = 0.0
            row[basis] = 0.0
            nonzero = np.where(np.abs(row) > 1e-7)[0]
            if nonzero.size:
                basis[pos] = int(nonzero[0])
            # else: the row is redundant; the artificial stays basic at zero,
            # pinned there by the phase-2 ratio test.

    # Phase 2: the real objective, artificials banned from entering.
    phase2_cost = np.zeros(n_total)
    phase2_cost[:n_std] = std.cost
    try:
        basis, used = _iterate(full, rhs, phase2_cost, basis, artificial_mask.copy(), artificial_mask, pivots_left)
    except _Unbounded:
        return LpResult(status=UNBOUNDED)
    pivots_left -= used

    if m:
        x_basic = np.linalg.solve(full[:, basis], rhs)
        x_std = np.zeros(n_total)
        x_std[basis] = np.maximum(x_basic, 0.0)
    else:
        x_std = np.zeros(n_total)

    # Undo the change of variables.
    solution = std.base.copy()
    np.add.at(solution, std.var, std.sign * x_std[:n_std])

    # Snap hair-width bound violations and verify feasibility before returning.
    solution = np.clip(solution, problem.lower, problem.upper)
    residuals = problem.matrix @ solution
    for i, s in enumerate(problem.senses):
        tol = FEASIBILITY_TOL * max(1.0, abs(problem.rhs[i]))
        gap = residuals[i] - problem.rhs[i]
        if (s == LE and gap > tol) or (s == GE and gap < -tol) or (s == EQ and abs(gap) > tol):
            raise NumericalFailure(
                f"solver returned an infeasible point: row {i} ({s}) off by {gap:.3e}"
            )

    objective_value = float(problem.objective @ solution)
    return LpResult(status=OPTIMAL, solution=solution, objective_value=objective_value)
