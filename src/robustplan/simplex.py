"""Self-contained dense linear-programming solver.

Implements a two-phase primal simplex in revised form: the basis system is
re-solved from scratch every pivot (three dense solves against the current
basis matrix), which avoids the accumulated drift of tableau updates at the
cost of a little arithmetic — a good trade for the small dense problems this
package generates (tens of rows, up to a few hundred columns).

``_standard_form`` builds the whole phase-1 system in one place: nonnegative
structural columns (fixed variables folded into the right-hand side, bounded
ones shifted or reflected, free ones split, finite widths as extra rows),
nonnegative right-hand sides, slack, surplus and artificial columns, and a
starting basis. ``solve_lp`` then runs phase 1, runs phase 2, undoes the
change of variables and verifies the point against the original rows. An
artificial still basic after phase 1 (at zero, on a redundant or degenerate
row) is not driven out: phase 2 keeps it at zero and evicts it as soon as a
pivot would move it.

Pricing is Dantzig's rule (most negative reduced cost) with Bland's
anti-cycling rule engaged automatically after a run of degenerate pivots and
disengaged once the objective moves again; the ratio test always breaks ties
Bland-style (lowest variable index), so every solve is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "senses", tuple(self.senses))
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))

    def validate(self) -> None:
        """Check structural invariants, raising ValidationError on the first failure."""
        if self.objective.ndim != 1:
            raise ValidationError("objective", "must be a 1-D vector")
        n = self.objective.shape[0]
        if self.matrix.ndim != 2 or self.matrix.shape[1] != n:
            raise ValidationError("matrix", f"expected shape (rows, {n}), got {self.matrix.shape}")
        m = self.matrix.shape[0]
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
        lower, upper = self.lower, self.upper
        invalid = np.isnan(lower) | np.isnan(upper) | (lower == np.inf) | (upper == -np.inf)
        bad = np.flatnonzero(invalid | (lower > upper))
        if bad.size:
            j = bad[0]
            if invalid[j]:
                raise ValidationError(f"bounds[{j}]", f"invalid bound pair ({lower[j]}, {upper[j]})")
            raise ValidationError(f"bounds[{j}]", f"lower bound {lower[j]} exceeds upper bound {upper[j]}")


@dataclass(frozen=True)
class LpResult:
    """Outcome of a solve: status plus, when optimal, the point and its objective."""

    status: str
    solution: np.ndarray | None = None
    objective_value: float | None = None


class _StandardForm(NamedTuple):
    """Phase 1-ready system: min cost @ z subject to matrix @ z = rhs, z >= 0.

    The columns are [structural | slack/surplus | artificial] and rhs >= 0.
    ``basis`` (one slack or artificial per row) is feasible for phase 1, and
    ``artificial`` marks the artificial columns. The original point is
    ``base`` plus ``sign[k] * z[k]`` added into variable ``var[k]`` for every
    structural column k.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    cost: np.ndarray
    artificial: np.ndarray
    basis: np.ndarray
    base: np.ndarray
    var: np.ndarray
    sign: np.ndarray

    def original_point(self, z: np.ndarray) -> np.ndarray:
        """The original variables at the standard-form point z."""
        x = self.base.copy()
        np.add.at(x, self.var, self.sign * z[: self.var.size])
        return x


class _Unbounded(Exception):
    pass


#: Coefficient of a row's slack column: +1 slack, -1 surplus, 0 (none) for "=".
_SLACK_SIGN = {LE: 1.0, EQ: 0.0, GE: -1.0}


def _standard_form(problem: LinearProgram) -> _StandardForm:
    """The LP as an equality system over z >= 0, ready for phase 1.

    Each variable becomes structural columns: a variable with equal bounds is
    a constant folded into the right-hand side (no column); a finite lower
    bound shifts it (x = lo + z), a finite upper bound alone reflects it
    (x = hi - z), and a free variable splits (x = z+ - z-). A shifted
    variable with a finite upper bound gets an extra <= row on its width.
    Rows with a negative right-hand side are negated, then a <= row gets a
    slack, a >= row a surplus and an artificial, an = row an artificial. The
    starting basis is the slack of each <= row and the artificial of the rest.
    """
    A, lower, upper = problem.matrix, problem.lower, problem.upper
    n = A.shape[1]
    fixed = lower == upper
    finite_lower = np.isfinite(lower)
    free = ~finite_lower & ~np.isfinite(upper)
    # Columns in variable order: none for a fixed variable, two for a free one.
    var = np.repeat(np.arange(n), np.where(fixed, 0, np.where(free, 2, 1)))
    sign = np.where(finite_lower[var], 1.0, -1.0)
    sign[np.flatnonzero(free[var])[::2]] = 1.0  # z+ of each free pair
    base_point = np.where(fixed | free, 0.0, np.where(finite_lower, lower, upper))
    # Two subtractions, not one on the merged point: that would round differently.
    rhs = problem.rhs - A[:, fixed] @ lower[fixed]
    rhs = rhs - A @ base_point

    boxed = np.flatnonzero(finite_lower[var] & np.isfinite(upper[var]))
    width_rows = np.zeros((boxed.size, var.size))
    width_rows[np.arange(boxed.size), boxed] = 1.0
    structural = np.vstack([A[:, var] * sign, width_rows])
    rhs = np.concatenate([rhs, upper[var[boxed]] - lower[var[boxed]]])
    slack_sign = np.array([_SLACK_SIGN[s] for s in problem.senses] + [1.0] * boxed.size)

    flip = rhs < 0
    structural[flip] = -structural[flip]
    rhs = np.where(flip, -rhs, rhs)
    slack_sign = np.where(flip, -slack_sign, slack_sign)

    m, n_std = structural.shape
    slack_rows = np.flatnonzero(slack_sign != 0)
    artificial_rows = np.flatnonzero(slack_sign <= 0)
    n_slack, n_artificial = slack_rows.size, artificial_rows.size
    slack = np.zeros((m, n_slack))
    slack[slack_rows, np.arange(n_slack)] = slack_sign[slack_rows]
    artificial = np.zeros((m, n_artificial))
    artificial[artificial_rows, np.arange(n_artificial)] = 1.0
    basis = np.where(
        slack_sign > 0,
        n_std + np.cumsum(slack_sign != 0) - 1,
        n_std + n_slack + np.cumsum(slack_sign <= 0) - 1,
    )

    cost = problem.objective[var] * sign
    if problem.sense == "maximize":
        cost = -cost
    return _StandardForm(
        matrix=np.hstack([structural, slack, artificial]),
        rhs=rhs,
        cost=np.concatenate([cost, np.zeros(n_slack + n_artificial)]),
        artificial=np.arange(n_std + n_slack + n_artificial) >= n_std + n_slack,
        basis=basis,
        base=np.where(fixed, lower, base_point),
        var=var,
        sign=sign,
    )


def _iterate(
    A: np.ndarray,
    b: np.ndarray,
    cost: np.ndarray,
    basis: np.ndarray,
    artificial: np.ndarray,
    pin_artificials: bool,
    pivots_left: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Pivot to optimality on min cost'x, Ax = b, x >= 0 from the given basis.

    Artificial columns never enter, and one left basic by phase 1 is never
    driven out. With ``pin_artificials`` (phase 2) such an artificial must
    stay at zero: its row gets a zero-ratio exit as soon as the entering
    direction would move it.

    Returns (final basis, basic values at it, pivots used). Raises
    _Unbounded or NumericalFailure.
    """
    m, _ = A.shape
    pin_zero = artificial if pin_artificials else np.zeros_like(artificial)
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
        candidates = ~artificial
        candidates[basis] = False
        candidates &= reduced < -REDUCED_COST_TOL
        idx = np.where(candidates)[0]
        if idx.size == 0:
            return basis, x_basic, pivots

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
        theta = ratios.min(initial=np.inf)
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
    std = _standard_form(problem)
    A, rhs, artificial = std.matrix, std.rhs, std.artificial
    basis, pivots_left = std.basis, MAX_PIVOTS

    # Phase 1: minimize the artificial mass.
    if artificial.any():
        try:
            basis, x_basic, used = _iterate(A, rhs, artificial.astype(float), basis, artificial, False, pivots_left)
        except _Unbounded as exc:  # phase-1 objective is bounded below by zero
            raise NumericalFailure("phase-1 subproblem reported unbounded") from exc
        pivots_left -= used
        infeasibility = float(x_basic[artificial[basis]].sum())
        if infeasibility > FEASIBILITY_TOL * max(1.0, float(np.abs(rhs).max(initial=0.0))):
            return LpResult(status=INFEASIBLE)

    # Phase 2: the real objective.
    try:
        basis, x_basic, _ = _iterate(A, rhs, std.cost, basis, artificial, True, pivots_left)
    except _Unbounded:
        return LpResult(status=UNBOUNDED)

    z = np.zeros(A.shape[1])
    z[basis] = np.maximum(x_basic, 0.0)

    # Snap hair-width bound violations and verify feasibility before returning.
    solution = np.clip(std.original_point(z), problem.lower, problem.upper)
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
