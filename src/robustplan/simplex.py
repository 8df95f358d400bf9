"""Self-contained dense linear-programming solver.

Implements a two-phase primal simplex in revised form with an explicit basis
inverse. A pivot costs O(m²): the duals and the entering direction come from
the kept B⁻¹, which then takes a rank-1 (product-form) update (Bartels &
Golub, CACM 12(5), 1969; Forrest & Tomlin, Math. Prog. 2, 1972). To keep
update drift out of the answers, B⁻¹ is rebuilt every ``_REFACTOR_INTERVAL``
pivots, and each exit, like every ratio test that rounding noise could
reorder, is decided on fresh dense solves of the basis system (see
``_iterate``). Every solve logs one DEBUG line to the ``robustplan`` logger:
the standard-form shape, pivots per phase, refactorizations and fresh redos.

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

import sys
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
#: Ratios and objectives this close count as equal.
_TIE_BAND = 1e-12

#: Pivots between fresh factorizations of the kept basis inverse.
_REFACTOR_INTERVAL = 50
#: A step at most this long counts as degenerate.
_DEGENERATE_STEP = 1e-9
#: Above this rounding noise in x_B, ratio tests that could be degenerate or tied run on fresh solves.
_NOISE_FLOOR = 1e-14
_EPS = float(np.finfo(float).eps)


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


class _Tally:
    """Work done by one ``solve_lp`` call, for its DEBUG log line."""

    __slots__ = ("phase_pivots", "refactorizations", "fresh_redos")

    def __init__(self):
        self.phase_pivots = [0, 0]
        self.refactorizations = 0
        self.fresh_redos = 0


class _Move(NamedTuple):
    """One pivot chosen by the pricing and the ratio test."""

    entering: int
    direction: np.ndarray
    leave_pos: int
    theta: float
    uncertain: bool

    @property
    def unbounded(self) -> bool:
        """No row blocks the entering direction (and ``leave_pos`` is -1)."""
        return self.leave_pos < 0


def _iterate(
    A: np.ndarray,
    b: np.ndarray,
    cost: np.ndarray,
    basis: np.ndarray,
    artificial: np.ndarray,
    pin_artificials: bool,
    tally: _Tally,
) -> tuple[np.ndarray, np.ndarray]:
    """Pivot to optimality on min cost'x, Ax = b, x >= 0 from the given basis.

    Artificial columns never enter, and one left basic by phase 1 is never
    driven out. With ``pin_artificials`` (phase 2) such an artificial must
    stay at zero: its row gets a zero-ratio exit as soon as the entering
    direction would move it.

    The basis inverse is kept explicitly. A pivot takes the duals as
    c_B B⁻¹ and the entering direction as B⁻¹ a_e, moves x_B by the step and
    gives B⁻¹ a rank-1 update, all O(m²). Every ``_REFACTOR_INTERVAL``
    pivots, the first included, the step runs on fresh dense solves of the
    basis system instead, and B⁻¹ is inverted anew. Two kinds of step that
    the kept inverse proposes are redone on fresh solves:

    - Every exit. Optimality and unboundedness are only declared on a freshly
      solved basis, so the returned values carry no update drift.
    - A ratio test that rounding noise could make degenerate or tied, once
      that noise, eps·‖x_B‖∞, exceeds ``_NOISE_FLOOR``. Each blocking row's
      ratio may then be off by the noise over its direction entry. The step
      is redone if θ is within ``_DEGENERATE_STEP`` of zero, or another row
      within ``_TIE_BAND`` of θ, once those errors are allowed for. This
      matters for exchange LPs: they carry ν = −η near ``OFFSET_BOX`` = 1e6,
      so their noise is about 2e-10 and their degenerate ties are settled at
      that level. Settled on updated values, those ties led to other final
      bases, some far worse conditioned, which failed ``solve_lp``'s final
      feasibility check. Without the allowance, basic values at noise level
      (5.8e-11) gave steps of θ ≈ 3.7e-9 that the bare thresholds call
      neither degenerate nor tied, the noise chose the leaving row, and
      some moment LPs ended on other vertices.

    Pivot, refactorization and redo counts go to ``tally``. Returns the
    final basis and the basic values at it. Raises _Unbounded or
    NumericalFailure.
    """
    m, _ = A.shape
    pin_zero = artificial if pin_artificials else np.zeros_like(artificial)
    basis = np.array(basis, dtype=int)
    phase = int(pin_artificials)
    # (best objective, degenerate-stall count, Bland engaged)
    progress = (np.inf, 0, False)

    def decide(x_basic, duals, direction_of, noise=0.0):
        """The stall bookkeeping and the pivot taken at (x_basic, duals); None is optimal.

        With a nonzero ``noise``, the error to allow in x_basic, the move is
        ``uncertain`` when errors that large could make its ratio test
        degenerate or tied.
        """
        best, stall, bland = progress
        objective = float(cost[basis] @ x_basic)
        if objective < best - _TIE_BAND:
            best, stall, bland = objective, 0, False
        else:
            stall += 1
            bland = bland or stall >= _DEGENERATE_STALL_LIMIT

        reduced = cost - A.T @ duals
        candidates = ~artificial
        candidates[basis] = False
        candidates &= reduced < -REDUCED_COST_TOL
        idx = np.where(candidates)[0]
        if idx.size == 0:
            return (best, stall, bland), None

        entering = int(idx[0]) if bland else int(idx[np.argmin(reduced[idx])])
        direction = direction_of(A[:, entering])

        # Ratio test: ordinary blocking rows, plus zero-ratio exits for pinned
        # (artificial) basics the moment the direction would move them at all.
        basic_vals = np.maximum(x_basic, 0.0)
        blocking = direction > _PIVOT_TOL
        ratios = np.full(m, np.inf)
        ratios[blocking] = basic_vals[blocking] / direction[blocking]
        if pin_artificials:
            ratios[pin_zero[basis] & (np.abs(direction) > _PIVOT_TOL)] = 0.0
        theta = ratios.min(initial=np.inf)
        if not np.isfinite(theta):
            return (best, stall, bland), _Move(entering, direction, -1, theta, False)

        tied = np.where(ratios <= theta + _TIE_BAND)[0]
        if tied.size > 1:
            # Prefer evicting pinned leftovers, then lowest variable index (Bland).
            tied = tied[np.lexsort((basis[tied], ~pin_zero[basis[tied]]))]
        leave_pos = int(tied[0])
        uncertain = False
        if noise:
            # How far each blocking row's ratio could move under that noise.
            reach = np.zeros(m)
            reach[blocking] = noise / direction[blocking]
            uncertain = theta <= _DEGENERATE_STEP + reach[leave_pos] or np.count_nonzero(
                ratios - reach <= theta + reach[leave_pos] + _TIE_BAND
            ) > 1
        return (best, stall, bland), _Move(entering, direction, leave_pos, float(theta), uncertain)

    try:
        while True:
            if sum(tally.phase_pivots) >= MAX_PIVOTS:
                raise NumericalFailure(f"pivot cap of {MAX_PIVOTS} exhausted")
            refactor = tally.phase_pivots[phase] % _REFACTOR_INTERVAL == 0
            fresh = refactor
            if not fresh:
                noise = _EPS * np.abs(x_basic).max(initial=0.0)
                step_progress, move = decide(
                    x_basic, cost[basis] @ B_inv, B_inv.__matmul__, noise if noise > _NOISE_FLOOR else 0.0
                )
                fresh = move is None or move.unbounded or move.uncertain
                tally.fresh_redos += move is not None and move.uncertain
            if fresh:
                # The step exactly as a from-scratch revised simplex takes it.
                B = A[:, basis]
                x_basic = np.linalg.solve(B, b)
                duals = np.linalg.solve(B.T, cost[basis])
                step_progress, move = decide(x_basic, duals, lambda column: np.linalg.solve(B, column))
            progress = step_progress
            if move is None:
                return basis, x_basic
            if move.unbounded:
                raise _Unbounded

            if refactor:
                B_inv = np.linalg.inv(B)
                tally.refactorizations += 1
            d, r = move.direction, move.leave_pos
            pivot_row = B_inv[r] / d[r]
            B_inv -= np.outer(d, pivot_row)
            B_inv[r] = pivot_row
            x_basic = x_basic - move.theta * d
            x_basic[r] = move.theta
            basis[r] = move.entering
            tally.phase_pivots[phase] += 1
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"singular basis matrix: {exc}") from exc


def _log_debug(message: str, *args) -> None:
    """Log ``message % args`` to the ``robustplan`` logger at DEBUG level.

    The package does not import ``logging`` itself: a process that never
    imported it cannot have configured a handler, and the import adds about
    0.4 MB to the resident memory of every run.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("robustplan").debug(message, *args)


def solve_lp(problem: LinearProgram) -> LpResult:
    """Solve a dense LP, returning status, an optimal point, and its objective.

    Raises:
        ValidationError: structural problems with the input (not a solver status).
        NumericalFailure: pivot cap exhausted or an internal consistency check failed.
    """
    problem.validate()
    std = _standard_form(problem)
    A, rhs, artificial = std.matrix, std.rhs, std.artificial
    basis, tally = std.basis, _Tally()
    try:
        # Phase 1: minimize the artificial mass.
        if artificial.any():
            try:
                basis, x_basic = _iterate(A, rhs, artificial.astype(float), basis, artificial, False, tally)
            except _Unbounded as exc:  # phase-1 objective is bounded below by zero
                raise NumericalFailure("phase-1 subproblem reported unbounded") from exc
            infeasibility = float(x_basic[artificial[basis]].sum())
            if infeasibility > FEASIBILITY_TOL * max(1.0, float(np.abs(rhs).max(initial=0.0))):
                return LpResult(status=INFEASIBLE)

        # Phase 2: the real objective.
        try:
            basis, x_basic = _iterate(A, rhs, std.cost, basis, artificial, True, tally)
        except _Unbounded:
            return LpResult(status=UNBOUNDED)
    finally:
        _log_debug(
            "solve_lp: standard form %d x %d, pivots %d + %d (phase 1 + 2), %d refactorizations, %d fresh redos",
            *A.shape, *tally.phase_pivots, tally.refactorizations, tally.fresh_redos,
        )

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
