"""Self-contained dense linear-programming solver.

Implements a two-phase primal simplex in revised form with an explicit
basis inverse. ``_iterate`` takes each step in one pass of its loop, in
O(m²): the basic values, the duals and the entering direction come from the
kept B⁻¹, which then takes a rank-1 (product-form) update (Bartels & Golub,
CACM 12(5), 1969; Forrest & Tomlin, Math. Prog. 2, 1972). B⁻¹ is inverted
anew every ``_REFACTOR_INTERVAL`` pivots, and an optimal or unbounded exit
found on an updated B⁻¹ is decided again on a fresh one, so the answers
carry no update drift. The duals c_B·B⁻¹ of the final basis come with the
answer. Every solve logs one DEBUG line to the ``robustplan`` logger: the
standard-form shape, pivots per phase, refactorizations and what became of
a given start basis.

Every LP is in canonical form: minimize c·x over x >= 0 subject to "<=",
"=" and ">=" rows. ``_standard_form`` builds the whole phase-1 system in
one place: the problem's columns, rows negated where their right-hand side
is negative, slack, surplus and artificial columns, and a starting basis.
``solve_lp`` then runs phase 1, runs phase 2, reads the point off the
problem's columns and verifies it against the rows. An artificial still
basic after phase 1 (at zero, on a redundant or degenerate row) is not
driven out: phase 2 keeps it at zero and evicts it as soon as a pivot
would move it. A solve may instead be given the basis of an earlier result
as its start (a warm start), and phase 1 is then skipped: phase 2 starts
there when it is a feasible vertex of this problem's standard form, as an
optimal basis stays when columns are added (``Basis.with_inserted_columns``).
Any other start is dropped, and the solve runs cold.

Pricing is Dantzig's rule (most negative reduced cost) with Bland's
anti-cycling rule engaged automatically after a run of degenerate pivots and
disengaged once the objective moves again. Pricing and the ratio test both
break ties Bland-style (lowest variable index), counting values within
``_TIE_BAND`` of the best as tied, so every solve is deterministic and a
last-bit difference between two inverses of one basis does not decide a
pivot.
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


@dataclass(frozen=True)
class LinearProgram:
    """A dense LP in canonical form: minimize ``objective @ x`` over x >= 0 subject to row constraints.

    Fields:
        objective: length-n cost vector.
        matrix: (m, n) dense constraint matrix.
        senses: per-row comparison, each one of ``"<="``, ``"="``, ``">="``.
        rhs: length-m right-hand sides.
    """

    objective: np.ndarray
    matrix: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "objective", np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "senses", tuple(self.senses))
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))

    # Read-only views of the implied bounds, kept because the benchmark's
    # tracing (``bench/tracing.py``, ``_lp_shape``) reads them to count boxed
    # columns; they go once it stops.
    @property
    def lower(self) -> np.ndarray:
        """Every variable's lower bound: zeros."""
        return np.zeros(self.objective.size)

    @property
    def upper(self) -> np.ndarray:
        """Every variable's upper bound: +inf."""
        return np.full(self.objective.size, np.inf)

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
        if not np.all(np.isfinite(self.objective)):
            raise ValidationError("objective", "coefficients must be finite")
        if not np.all(np.isfinite(self.matrix)):
            raise ValidationError("matrix", "coefficients must be finite")
        if not np.all(np.isfinite(self.rhs)):
            raise ValidationError("rhs", "entries must be finite")


class Basis(NamedTuple):
    """A vertex of an LP's standard form, as ``solve_lp`` ends at it and can start from it.

    ``columns[i]`` is the standard-form column basic in position i (one per
    row); every nonbasic column is at zero.
    """

    columns: np.ndarray

    def with_inserted_columns(self, position: int, count: int) -> Basis:
        """This basis carried to the standard form grown by ``count`` columns inserted before column ``position``.

        The new columns are nonbasic, and every column from ``position`` on
        moves ``count`` places right. The basis matrix and its basic values
        stay as they were, so a primal feasible basis stays primal feasible
        (as in the exchange loop, whose rounds add structural columns after
        the last ones).
        """
        return Basis(np.where(self.columns >= position, self.columns + count, self.columns))


@dataclass(frozen=True)
class LpResult:
    """Outcome of a solve: status plus, when optimal, the point, its objective, its row duals and its basis.

    ``duals`` holds one price per row, in the problem's own rows:
    the rate at which the optimal objective moves with that row's
    right-hand side at the final basis. So a "<=" row has a dual <= 0 and a
    ">=" row one >= 0.
    ``basis`` is the final vertex, which a later ``solve_lp`` of a problem
    with the same columns and rows can take as its ``start``.
    """

    status: str
    solution: np.ndarray | None = None
    objective_value: float | None = None
    duals: np.ndarray | None = None
    basis: Basis | None = None


class _StandardForm(NamedTuple):
    """Phase 1-ready system: min cost @ z subject to matrix @ z = rhs, z >= 0.

    The columns are [structural | slack/surplus | artificial] and rhs >= 0;
    the structural columns are the problem's own. ``basis`` (one slack or
    artificial per row) is feasible for phase 1, and ``artificial`` marks
    the artificial columns. ``row_sign`` is -1 on each row that was negated
    and +1 on the others.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    cost: np.ndarray
    artificial: np.ndarray
    basis: np.ndarray
    row_sign: np.ndarray


class _Unbounded(Exception):
    pass


class _ColdStart(Exception):
    """The start basis given to ``_iterate`` is singular or not primal feasible; solve cold instead."""


#: Coefficient of a row's slack column: +1 slack, -1 surplus, 0 (none) for "=".
_SLACK_SIGN = {LE: 1.0, EQ: 0.0, GE: -1.0}


def _standard_form(problem: LinearProgram) -> _StandardForm:
    """The LP as an equality system over z >= 0, ready for phase 1.

    Rows with a negative right-hand side are negated, then a <= row gets a
    slack, a >= row a surplus and an artificial, an = row an artificial. The
    starting basis is the slack of each <= row and the artificial of the rest.
    """
    flip = problem.rhs < 0
    rhs = np.where(flip, -problem.rhs, problem.rhs)
    slack_sign = np.array([_SLACK_SIGN[s] for s in problem.senses])
    slack_sign = np.where(flip, -slack_sign, slack_sign)

    m, n_std = problem.matrix.shape
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
    matrix = np.hstack([problem.matrix, slack, artificial])
    matrix[flip, :n_std] *= -1.0
    return _StandardForm(
        matrix=matrix,
        rhs=rhs,
        cost=np.concatenate([problem.objective, np.zeros(n_slack + n_artificial)]),
        artificial=np.arange(n_std + n_slack + n_artificial) >= n_std + n_slack,
        basis=basis,
        row_sign=np.where(flip, -1.0, 1.0),
    )


class _Tally:
    """Work done by one ``solve_lp`` call, for its DEBUG log line."""

    __slots__ = ("phase_pivots", "refactorizations")

    def __init__(self):
        self.phase_pivots = [0, 0]
        self.refactorizations = 0


def _iterate(
    std: _StandardForm, cost: np.ndarray, basis: np.ndarray, pin_artificials: bool, tally: _Tally, start: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivot to optimality on min cost'z, Az = b, z >= 0 from the vertex ``basis``.

    Artificial columns never enter, and one left basic by phase 1 is never
    driven out. With ``pin_artificials`` (phase 2) such an artificial must
    stay at zero: its row gets a zero-ratio exit as soon as the entering
    direction would move it.

    With ``start`` the vertex is a start basis given to ``solve_lp``, which
    need not be a vertex at all: when its basis matrix is singular, or one
    of its basic values lies below zero by more than FEASIBILITY_TOL, the
    first step raises _ColdStart.

    Each pass of the loop takes one step on the kept basis inverse, in
    O(m²): every ``_REFACTOR_INTERVAL`` pivots, the first included, B⁻¹ is
    inverted anew from the basic columns (a singular B raises
    np.linalg.LinAlgError); the basic values B⁻¹b, the objective and the
    reduced costs follow, then the stall bookkeeping, the pricing and the
    ratio test along B⁻¹ a_e. The basic values are recomputed at every
    step, so they hold no memory of earlier, larger values. An optimal or
    unbounded exit found on an updated inverse is decided again: the stall
    state goes back to the top of the step and B⁻¹ is computed anew, so the
    returned values carry no update drift. A pivot gives B⁻¹ a rank-1
    update. A scheduled refactorization is counted when a pivot follows it.

    Pivot and refactorization counts go to ``tally``. Returns the final
    basis, the basic values and the duals c_B·B⁻¹, all from the fresh
    inverse the exit was decided on. Raises _Unbounded, _ColdStart or
    NumericalFailure.
    """
    A, b, artificial = std.matrix, std.rhs, std.artificial
    pin_zero = artificial if pin_artificials else np.zeros_like(artificial)
    enterable = ~artificial
    basis = np.array(basis, dtype=int)
    # Best objective, degenerate-stall count, Bland engaged.
    best, stall, bland = np.inf, 0, False
    pivots, inverted = 0, -1  # B⁻¹ was last computed anew at ``inverted`` pivots
    try:
        while True:
            if sum(tally.phase_pivots) >= MAX_PIVOTS:
                raise NumericalFailure(f"pivot cap of {MAX_PIVOTS} exhausted")
            if pivots % _REFACTOR_INTERVAL == 0:
                B_inv = np.linalg.inv(A[:, basis])
                inverted = pivots
            saved = best, stall, bland
            x_basic = B_inv @ b
            if start:
                if x_basic.min(initial=0.0) < -FEASIBILITY_TOL:
                    raise _ColdStart
                start = False
            objective = float(cost[basis] @ x_basic)
            duals = cost[basis] @ B_inv
            reduced = cost - A.T @ duals
            candidates = (reduced < -REDUCED_COST_TOL) & enterable
            candidates[basis] = False

            if objective < best - _TIE_BAND:
                best, stall, bland = objective, 0, False
            else:
                stall += 1
                bland = bland or stall >= _DEGENERATE_STALL_LIMIT

            idx = candidates.nonzero()[0]
            if idx.size:
                prices = reduced[idx]
                entering = int(idx[0] if bland else idx[np.argmax(prices <= prices.min() + _TIE_BAND)])
                direction = B_inv @ A[:, entering]
                # Ratio test: basic columns falling to zero, and zero-ratio exits
                # for pinned (artificial) basics the moment the direction moves them.
                falls = direction > _PIVOT_TOL
                ratios = np.divide(np.maximum(x_basic, 0.0), direction, out=np.full_like(x_basic, np.inf), where=falls)
                if pin_artificials:
                    ratios[pin_zero[basis] & (np.abs(direction) > _PIVOT_TOL)] = 0.0
                theta = ratios.min(initial=np.inf)
            # No candidate is optimal, and nothing blocking is unbounded:
            # either exit is taken only as decided on a fresh inverse.
            if idx.size == 0 or theta == np.inf:
                if inverted != pivots:
                    best, stall, bland = saved
                    B_inv = np.linalg.inv(A[:, basis])
                    inverted = pivots
                    continue
                if idx.size:
                    raise _Unbounded
                return basis, x_basic, duals
            tied = np.where(ratios <= theta + _TIE_BAND)[0]
            if tied.size > 1:
                # Prefer evicting pinned leftovers, then lowest variable index (Bland).
                tied = tied[np.lexsort((basis[tied], ~pin_zero[basis[tied]]))]
            r = int(tied[0])

            if pivots % _REFACTOR_INTERVAL == 0:
                tally.refactorizations += 1
            pivots += 1
            tally.phase_pivots[int(pin_artificials)] += 1
            pivot_row = B_inv[r] / direction[r]
            B_inv -= np.outer(direction, pivot_row)
            B_inv[r] = pivot_row
            basis[r] = entering
    except np.linalg.LinAlgError as exc:
        if start:
            raise _ColdStart from exc
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


def _check_feasible(problem: LinearProgram, solution: np.ndarray) -> None:
    """Raise NumericalFailure naming the first row that ``solution`` violates beyond tolerance."""
    gap = problem.matrix @ solution - problem.rhs
    # +1 for <=, -1 for >=, 0 for =: how far each row overshoots its own sense.
    sign = np.fromiter(map(_SLACK_SIGN.__getitem__, problem.senses), float, len(problem.senses))
    excess = np.where(sign == 0.0, np.abs(gap), sign * gap)
    bad = np.flatnonzero(excess > FEASIBILITY_TOL * np.maximum(1.0, np.abs(problem.rhs)))
    if bad.size:
        i = bad[0]
        raise NumericalFailure(
            f"solver returned an infeasible point: row {i} ({problem.senses[i]}) off by {gap[i]:.3e}"
        )


def _valid_start(std: _StandardForm, start: Basis) -> np.ndarray | None:
    """The columns of ``start`` for ``_iterate`` when they fit ``std``, else None.

    They must be one distinct column per row and name no artificial column.
    Whether the basis matrix is nonsingular and its vertex primal feasible is
    found by ``_iterate``'s first step, on the fresh inverse that step takes
    anyway.
    """
    m, n = std.matrix.shape
    columns = np.asarray(start.columns)
    if columns.shape != (m,) or columns.dtype.kind not in "iu":
        return None
    if columns.min(initial=0) < 0 or columns.max(initial=-1) >= n:
        return None
    basic = np.zeros(n, dtype=bool)
    basic[columns] = True
    if np.count_nonzero(basic) != m or (basic & std.artificial).any():
        return None
    return columns


def solve_lp(problem: LinearProgram, start: Basis | None = None) -> LpResult:
    """Solve a dense LP, returning status, an optimal point, its objective and its basis.

    ``start`` is the basis of an earlier result. When it fits this
    problem's standard form (see ``_valid_start``), its basis matrix is
    nonsingular and its basic values are nonnegative up to FEASIBILITY_TOL
    (as an optimal basis stays when columns are added), phase 1 is skipped
    and phase 2 starts from it. Any other start is dropped, and the solve
    begins at the slack and artificial basis, as it does without a start.

    Raises:
        ValidationError: structural problems with the input (not a solver status).
        NumericalFailure: pivot cap exhausted or an internal consistency check failed.
    """
    problem.validate()
    std = _standard_form(problem)
    A, artificial = std.matrix, std.artificial
    warm = None if start is None else _valid_start(std, start)
    tally = _Tally()
    try:
        if warm is not None:
            try:
                basis, x_basic, duals = _iterate(std, std.cost, warm, True, tally, start=True)
            except _ColdStart:
                warm = None
        if warm is None:
            basis = std.basis
            # Phase 1: minimize the artificial mass.
            if artificial.any():
                try:
                    basis, x_basic, _ = _iterate(std, artificial.astype(float), basis, False, tally)
                except _Unbounded as exc:  # phase-1 objective is bounded below by zero
                    raise NumericalFailure("phase-1 subproblem reported unbounded") from exc
                infeasibility = float(x_basic[artificial[basis]].sum())
                if infeasibility > FEASIBILITY_TOL * max(1.0, float(np.abs(std.rhs).max(initial=0.0))):
                    return LpResult(status=INFEASIBLE)

            # Phase 2: the real objective.
            basis, x_basic, duals = _iterate(std, std.cost, basis, True, tally)
    except _Unbounded:
        return LpResult(status=UNBOUNDED)
    finally:
        _log_debug(
            "solve_lp: standard form %d x %d, pivots %d + %d (phase 1 + 2), %d refactorizations, start %s",
            *A.shape, *tally.phase_pivots, tally.refactorizations,
            "none" if start is None else "rejected" if warm is None else "used",
        )

    # Nonbasic columns sit at zero, and basic ones are clipped to zero.
    z = np.zeros(A.shape[1])
    z[basis] = np.maximum(x_basic, 0.0)

    solution = z[: problem.objective.size]
    _check_feasible(problem, solution)
    objective_value = float(problem.objective @ solution)
    # c_B·B⁻¹ prices the standard form's rows: undo their negation.
    duals = duals * std.row_sign
    return LpResult(
        status=OPTIMAL,
        solution=solution,
        objective_value=objective_value,
        duals=duals,
        basis=Basis(basis),
    )
