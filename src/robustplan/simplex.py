"""Self-contained dense linear-programming solver.

Implements a two-phase bounded-variable primal simplex in revised form with
an explicit basis inverse. ``_iterate`` takes each step in one pass of its
loop, in O(m²): the basic values, the duals and the entering direction come
from the kept B⁻¹, which then takes a rank-1 (product-form) update (Bartels
& Golub, CACM 12(5), 1969; Forrest & Tomlin, Math. Prog. 2, 1972). B⁻¹ is
inverted anew every ``_REFACTOR_INTERVAL`` pivots, and an optimal or
unbounded exit found on an updated B⁻¹ is decided again on a fresh one, so
the answers carry no update drift. A fresh inverse inverts only the k × k
block of the k basic structural columns (``_basis_inverse``): basic slack,
surplus and artificial columns are unit columns, and on a tall LP most basic
columns are. The duals c_B·B⁻¹ of the final basis come with the answer.
Every solve logs one DEBUG line to the ``robustplan`` logger: the
standard-form shape, pivots per phase, dual pivots, bound flips,
refactorizations and what became of a given start basis.

``_standard_form`` builds the whole phase-1 system in one place: structural
columns (fixed variables folded into the right-hand side, variables with
both bounds finite kept as boxed columns with their own bounds, one-sided
ones shifted or reflected onto z >= 0, free ones split), rows negated where
the starting point leaves them negative, slack, surplus and artificial
columns, and a starting basis. Every LP runs one pivot loop, a
bounded-variable simplex (Dantzig, Econometrica 23(2), 1955): a nonbasic
column sits at either of its bounds, so a boxed column needs no extra row,
and a column without a finite upper bound never sits at it. ``solve_lp``
then runs phase 1, runs phase 2, undoes the change of variables and verifies
the point against the original rows. An artificial still basic after phase 1
(at zero, on a redundant or degenerate row) is not driven out: phase 2 keeps
it at zero and evicts it as soon as a pivot would move it. A solve may
instead be given the basis of an earlier result as its start (a warm start),
and phase 1 is then skipped. Phase 2 starts there at once when it is a
feasible vertex of this problem's standard form, as an optimal basis stays
when columns are added (``Basis.with_inserted_columns``). When it is not,
but it is still dual feasible (an optimal basis after the right-hand side
moved or rows were added), the pivot loop first takes dual simplex steps
back to a feasible vertex.

Pricing is Dantzig's rule (most negative reduced cost) with Bland's
anti-cycling rule engaged automatically after a run of degenerate pivots and
disengaged once the objective moves again. Pricing and the ratio test both
break ties Bland-style (lowest variable index), counting values within
``_TIE_BAND`` of the best as tied, so every solve is deterministic and a
last-bit difference between two inverses of one basis does not decide a
pivot. A dual step evicts the basic column furthest outside its bounds, and
its ratio test breaks ties the same way.
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


class Basis(NamedTuple):
    """A vertex of an LP's standard form, as ``solve_lp`` ends at it and can start from it.

    ``columns[i]`` is the standard-form column basic in position i (one per
    row), and ``at_upper`` marks the nonbasic columns that sit at their upper
    bound rather than their lower one.
    """

    columns: np.ndarray
    at_upper: np.ndarray

    def with_inserted_columns(self, position: int, count: int) -> Basis:
        """This basis carried to the standard form grown by ``count`` columns inserted before column ``position``.

        The new columns are nonbasic at their lower bound, and every column
        from ``position`` on moves ``count`` places right. The basis matrix
        and its basic values stay as they were, so a primal feasible basis
        stays primal feasible (as in the exchange loop, whose rounds add
        structural columns after the last ones).
        """
        columns = np.where(self.columns >= position, self.columns + count, self.columns)
        return Basis(columns, np.insert(self.at_upper, position, np.zeros(count, dtype=bool)))


@dataclass(frozen=True)
class LpResult:
    """Outcome of a solve: status plus, when optimal, the point, its objective, its row duals and its basis.

    ``duals`` holds one price per row, in the problem's own rows and sense:
    the rate at which the optimal objective moves with that row's
    right-hand side at the final basis. So a "<=" row of a minimization has
    a dual <= 0, a ">=" row one >= 0, and a maximization flips both signs.
    ``basis`` is the final vertex, which a later ``solve_lp`` of a problem
    with the same columns and rows can take as its ``start``.
    """

    status: str
    solution: np.ndarray | None = None
    objective_value: float | None = None
    duals: np.ndarray | None = None
    basis: Basis | None = None


class _StandardForm(NamedTuple):
    """Phase 1-ready system: min cost @ z subject to matrix @ z = rhs, lower <= z <= upper.

    The columns are [structural | slack/surplus | artificial]. Every column
    lies in [0, inf) except a boxed structural column, which keeps its
    variable's own [lo, hi]. ``basis`` (one slack or artificial per row) is
    feasible for phase 1 with every nonbasic column at its lower bound, and
    ``artificial`` marks the artificial columns. A slack, surplus or
    artificial column is a unit column (±1 on one row): ``unit_row`` holds
    that row for each of them and -1 for a structural column. The original
    point is ``base`` plus ``sign[k] * z[k]`` added into variable ``var[k]``
    for every structural column k. ``row_sign`` is -1 on each row that was
    negated and +1 on the others.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    artificial: np.ndarray
    unit_row: np.ndarray
    basis: np.ndarray
    base: np.ndarray
    var: np.ndarray
    sign: np.ndarray
    row_sign: np.ndarray

    def original_point(self, z: np.ndarray) -> np.ndarray:
        """The original variables at the standard-form point z."""
        x = self.base.copy()
        np.add.at(x, self.var, self.sign * z[: self.var.size])
        return x


class _Unbounded(Exception):
    pass


class _ColdStart(Exception):
    """The start basis given to ``_iterate`` cannot be reoptimized from; solve cold instead."""


#: Coefficient of a row's slack column: +1 slack, -1 surplus, 0 (none) for "=".
_SLACK_SIGN = {LE: 1.0, EQ: 0.0, GE: -1.0}


def _standard_form(problem: LinearProgram) -> _StandardForm:
    """The LP as an equality system over bounded columns, ready for phase 1.

    Each variable becomes structural columns: a variable with equal bounds is
    a constant folded into the right-hand side (no column); a variable with
    both bounds finite is a boxed column in its own coordinates and bounds; a
    finite lower bound alone shifts it (x = lo + z), a finite upper bound
    alone reflects it (x = hi - z), and a free variable splits (x = z+ - z-).
    Every column starts at its lower bound. Rows whose right-hand side is
    negative at that start are negated, then a <= row gets a slack, a >= row a
    surplus and an artificial, an = row an artificial. The starting basis is
    the slack of each <= row and the artificial of the rest.
    """
    A, lower, upper = problem.matrix, problem.lower, problem.upper
    n = A.shape[1]
    fixed = lower == upper
    finite_lower = np.isfinite(lower)
    finite_upper = np.isfinite(upper)
    free = ~finite_lower & ~finite_upper
    boxed = finite_lower & finite_upper & ~fixed
    # Columns in variable order: none for a fixed variable, two for a free one.
    var = np.repeat(np.arange(n), np.where(fixed, 0, np.where(free, 2, 1)))
    sign = np.where(finite_lower[var], 1.0, -1.0)
    sign[np.flatnonzero(free[var])[::2]] = 1.0  # z+ of each free pair
    base_point = np.where(fixed | free | boxed, 0.0, np.where(finite_lower, lower, upper))
    # Two subtractions, not one on the merged point: that would round differently.
    rhs = problem.rhs - A[:, fixed] @ lower[fixed]
    rhs = rhs - A @ base_point

    structural = A[:, var] * sign
    column_boxed = boxed[var]
    column_lower = np.where(column_boxed, lower[var], 0.0)
    column_upper = np.where(column_boxed, upper[var], np.inf)
    start = rhs - structural[:, column_boxed] @ column_lower[column_boxed]
    slack_sign = np.array([_SLACK_SIGN[s] for s in problem.senses], dtype=float)

    flip = start < 0
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
    n_added = n_slack + n_artificial
    return _StandardForm(
        matrix=np.hstack([structural, slack, artificial]),
        rhs=rhs,
        cost=np.concatenate([cost, np.zeros(n_added)]),
        lower=np.concatenate([column_lower, np.zeros(n_added)]),
        upper=np.concatenate([column_upper, np.full(n_added, np.inf)]),
        artificial=np.arange(n_std + n_added) >= n_std + n_slack,
        unit_row=np.concatenate([np.full(n_std, -1), slack_rows, artificial_rows]),
        basis=basis,
        base=np.where(fixed, lower, base_point),
        var=var,
        sign=sign,
        row_sign=np.where(flip, -1.0, 1.0),
    )


def _basis_inverse(std: _StandardForm, basis: np.ndarray) -> np.ndarray:
    """B⁻¹ for the columns ``basis`` of ``std``, inverting only the block of its structural columns.

    Each basic unit column is s·e_r with s = ±1 on its own row r; call those
    rows R. The k structural basic columns and the k rows T left over give
    the block C = A[T, structural], and B is block triangular once its rows
    and columns are permuted, so (Hellerman & Rarick, Math. Prog. 1, 1971)
    B⁻¹[structural, T] = C⁻¹, B⁻¹[unit, T] = −s ⊙ (A[R, structural] C⁻¹),
    B⁻¹[unit, R] = diag(s), and every other entry is zero. Raises
    np.linalg.LinAlgError, as B is singular, when C is or when two basic
    unit columns share a row.
    """
    rows = std.unit_row[basis]
    unit = rows >= 0
    unit_rows = rows[unit]
    T = (np.bincount(unit_rows, minlength=basis.size) == 0).nonzero()[0]
    if T.size + unit_rows.size != basis.size:
        raise np.linalg.LinAlgError("two basic unit columns share a row")
    block = std.matrix[:, basis[~unit]]
    C_inv = np.linalg.inv(block[T])
    s = std.matrix[unit_rows, basis[unit]]
    # B⁻¹[:, T], one row per basis position.
    columns_T = np.empty((basis.size, T.size))
    columns_T[~unit] = C_inv
    columns_T[unit] = -s[:, None] * (block[unit_rows] @ C_inv)
    B_inv = np.zeros((basis.size, basis.size))
    B_inv[:, T] = columns_T
    B_inv[unit, unit_rows] = s
    return B_inv


class _Tally:
    """Work done by one ``solve_lp`` call, for its DEBUG log line."""

    __slots__ = ("phase_pivots", "dual_pivots", "bound_flips", "refactorizations")

    def __init__(self):
        self.phase_pivots = [0, 0]
        self.dual_pivots = 0
        self.bound_flips = 0
        self.refactorizations = 0


def _iterate(
    std: _StandardForm,
    cost: np.ndarray,
    basis: np.ndarray,
    at_upper: np.ndarray,
    pin_artificials: bool,
    tally: _Tally,
    warm: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivot to optimality on min cost'z, Az = b, lower <= z <= upper from the given vertex.

    The vertex is ``basis`` plus the bound each nonbasic column sits at: its
    upper bound where ``at_upper`` is set, its lower bound otherwise. Every
    LP runs the same bounded-variable simplex (Dantzig, Econometrica 23(2),
    1955): the basic values are B⁻¹(b − N·z_N), a column at its upper bound
    prices with the sign of its reduced cost flipped, the ratio test stops
    each basic column at its lower or its (finite) upper bound, and the
    entering column may instead cross to its other bound (a bound flip),
    which leaves the basis as it is. Only a boxed column can sit at a
    nonzero bound, so b − N·z_N and the objective share c_N·z_N are worked
    out afresh only after a step that moves one.

    Artificial columns never enter, and one left basic by phase 1 is never
    driven out. With ``pin_artificials`` (phase 2) such an artificial must
    stay at zero: its row gets a zero-ratio exit as soon as the entering
    direction would move it.

    With ``warm`` the vertex is a start basis, which need not be primal
    feasible. While some basic value lies outside its bounds by more than
    FEASIBILITY_TOL, and the vertex is dual feasible (no column may enter),
    the loop takes bounded dual simplex steps (Lemke, Naval Res. Logist. Q.
    1, 1954): the basic column furthest outside its bounds leaves at the
    bound it violates, and the entering column is the one whose reduced
    cost reaches zero first as the duals move, counting only columns whose
    move off their own bound brings the leaving one back toward its bound.
    Once every basic value is within its bounds the primal steps take over
    and confirm optimality. A start whose basis matrix is singular, that is
    neither primal nor dual feasible, or whose dual steps find no entering
    column or leave the objective still for ``_DEGENERATE_STALL_LIMIT``
    steps raises _ColdStart.

    Each pass of the loop takes one step on the kept basis inverse, in
    O(m²): every ``_REFACTOR_INTERVAL`` pivots, the first included, B⁻¹ is
    computed anew (``_basis_inverse``); the basic values B⁻¹(b − N·z_N), the
    objective and the reduced costs follow, then a dual step from a row of
    B⁻¹, or the stall bookkeeping, the pricing and the ratio test along
    B⁻¹ a_e. The basic values are recomputed at every step, so they hold no
    memory of earlier, larger values. An optimal or unbounded exit found on
    an updated inverse is decided again: the stall state goes back to the
    top of the step and B⁻¹ is computed anew, so the returned values carry
    no update drift. The step ends in one place: a bound flip (which counts
    as a pivot) leaves B⁻¹ as it is, a basis change gives it a rank-1
    update. A scheduled refactorization is counted when a pivot follows it.

    Pivot, dual-pivot, bound-flip and refactorization counts go to ``tally``.
    Returns the final basis, the final ``at_upper``, the basic values and
    the duals c_B·B⁻¹, all from the fresh inverse the exit was decided on.
    Raises _Unbounded, _ColdStart or NumericalFailure.
    """
    A, b, lower, upper, artificial = std.matrix, std.rhs, std.lower, std.upper, std.artificial
    pin_zero = artificial if pin_artificials else np.zeros_like(artificial)
    enterable = ~artificial
    basis = np.array(basis, dtype=int)
    at_upper = at_upper.copy()
    # Best objective, degenerate-stall count, Bland engaged, taking dual steps.
    best, stall, bland, dual = np.inf, 0, False, warm
    pivots, inverted = 0, -1  # B⁻¹ was last computed anew at ``inverted`` pivots

    def nonbasic_share():
        """b − N·z_N, and c_N·z_N: the nonbasic columns at a nonzero bound, in the rows and the objective."""
        z = np.where(at_upper, upper, lower)
        z[basis] = 0.0
        off = z.nonzero()[0]
        z_off = z[off]
        return b - A[:, off] @ z_off, float(cost[off] @ z_off)

    rhs, off_cost = nonbasic_share()
    try:
        while True:
            if sum(tally.phase_pivots) + tally.dual_pivots >= MAX_PIVOTS:
                raise NumericalFailure(f"pivot cap of {MAX_PIVOTS} exhausted")
            if pivots % _REFACTOR_INTERVAL == 0:
                B_inv = _basis_inverse(std, basis)
                inverted = pivots
            saved = best, stall, bland, dual
            x_basic = B_inv @ rhs
            objective = float(cost[basis] @ x_basic) + off_cost
            floor, ceiling = lower[basis], upper[basis]
            duals = cost[basis] @ B_inv
            reduced = cost - A.T @ duals
            reduced[at_upper] = -reduced[at_upper]
            candidates = (reduced < -REDUCED_COST_TOL) & enterable
            candidates[basis] = False

            if dual:
                excess = np.maximum(floor - x_basic, x_basic - ceiling)
                dual = excess.max(initial=0.0) > FEASIBILITY_TOL
                if not dual:  # primal feasible: the primal steps take over
                    best, stall, bland = np.inf, 0, False
            if dual:
                r = int(np.argmax(excess))
                if candidates.any():
                    raise _ColdStart  # neither primal nor dual feasible
                # The objective rises at every dual step that is not degenerate.
                if -objective < best - _TIE_BAND:
                    best, stall = -objective, 0
                else:
                    stall += 1
                    if stall >= _DEGENERATE_STALL_LIMIT:
                        raise _ColdStart
                # alpha[j] > 0 where moving column j off its bound moves the
                # leaving column back toward the bound it violates.
                below = x_basic[r] < floor[r]
                alpha = B_inv[r] @ A
                alpha[at_upper] = -alpha[at_upper]
                if below:
                    alpha = -alpha
                eligible = (alpha > _PIVOT_TOL) & enterable
                eligible[basis] = False
                idx = eligible.nonzero()[0]
                if idx.size == 0:
                    raise _ColdStart  # the start's primal problem looks infeasible
                ratios = np.maximum(reduced[idx], 0.0) / alpha[idx]
                entering = int(idx[np.argmax(ratios <= ratios.min() + _TIE_BAND)])
                direction = B_inv @ A[:, entering]
                to_upper, flip = not below, False
            else:
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
                    # x_B falls along ``toward`` as the entering column moves off its bound.
                    toward = -direction if at_upper[entering] else direction
                    # Ratio test: basic columns falling to their lower bound or rising to
                    # their upper one (an infinite one never blocks), and zero-ratio exits
                    # for pinned (artificial) basics the moment the direction moves them.
                    room = np.maximum(np.where(toward > 0.0, x_basic - floor, ceiling - x_basic), 0.0)
                    speed = np.abs(toward)
                    moves = speed > _PIVOT_TOL
                    ratios = np.divide(room, speed, out=np.full_like(room, np.inf), where=moves)
                    if pin_artificials:
                        ratios[pin_zero[basis] & moves] = 0.0
                    theta = ratios.min(initial=np.inf)
                    # The entering column's own bound blocks it at its box width.
                    width = upper[entering] - lower[entering]
                # No candidate is optimal, and nothing blocking is unbounded:
                # either exit is taken only as decided on a fresh inverse.
                if idx.size == 0 or theta == width == np.inf:
                    if inverted != pivots:
                        best, stall, bland, dual = saved
                        B_inv = _basis_inverse(std, basis)
                        inverted = pivots
                        continue
                    if idx.size:
                        raise _Unbounded
                    return basis, at_upper, x_basic, duals
                flip = width <= theta
                if not flip:
                    tied = np.where(ratios <= theta + _TIE_BAND)[0]
                    if tied.size > 1:
                        # Prefer evicting pinned leftovers, then lowest variable index (Bland).
                        tied = tied[np.lexsort((basis[tied], ~pin_zero[basis[tied]]))]
                    r = int(tied[0])
                    # A pinned artificial can leave while rising, but only a boxed column stops at its upper bound.
                    to_upper = toward[r] < 0.0 and ceiling[r] < np.inf

            if pivots % _REFACTOR_INTERVAL == 0:
                tally.refactorizations += 1
            pivots += 1
            if dual:
                tally.dual_pivots += 1
            else:
                tally.phase_pivots[int(pin_artificials)] += 1
            if flip:
                at_upper[entering] = not at_upper[entering]
                tally.bound_flips += 1
            else:
                pivot_row = B_inv[r] / direction[r]
                B_inv -= np.outer(direction, pivot_row)
                B_inv[r] = pivot_row
                leaving = basis[r]
                basis[r] = entering
                at_upper[leaving], at_upper[entering] = to_upper, False
            # A flipped column is boxed, so ``leaving`` is read only after a basis change.
            if upper[entering] < np.inf or upper[leaving] < np.inf:
                rhs, off_cost = nonbasic_share()
    except np.linalg.LinAlgError as exc:
        if dual:
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


def _valid_start(std: _StandardForm, start: Basis) -> tuple[np.ndarray, np.ndarray] | None:
    """``start`` as (basis, at_upper) for ``_iterate`` when it fits ``std``, else None.

    It must have one distinct column per row and a flag per column, name no
    artificial column, and put only nonbasic columns with a finite upper
    bound at that bound. Whether its basis matrix is nonsingular and its
    vertex primal or dual feasible is found by ``_iterate``'s first step, on
    the fresh inverse that step takes anyway.
    """
    m, n = std.matrix.shape
    columns, at_upper = np.asarray(start.columns), np.asarray(start.at_upper)
    if columns.shape != (m,) or columns.dtype.kind not in "iu" or at_upper.shape != (n,) or at_upper.dtype != bool:
        return None
    if columns.min(initial=0) < 0 or columns.max(initial=-1) >= n:
        return None
    basic = np.zeros(n, dtype=bool)
    basic[columns] = True
    if np.count_nonzero(basic) != m or (basic & (std.artificial | at_upper)).any():
        return None
    if np.isinf(std.upper[at_upper]).any():
        return None
    return columns, at_upper.copy()


def solve_lp(problem: LinearProgram, start: Basis | None = None) -> LpResult:
    """Solve a dense LP, returning status, an optimal point, its objective and its basis.

    ``start`` is the basis of an earlier result. When it fits this
    problem's standard form (see ``_valid_start``) and its basis matrix is
    nonsingular, phase 1 is skipped and phase 2 starts from it: at once when
    its basic values are within their bounds, after dual simplex steps when
    they are not but it is dual feasible (as an optimal basis stays when
    only the right-hand side moves or rows are added). Any other start, or
    one whose dual steps find no entering column or stall, is dropped, and
    the solve begins at the slack and artificial basis, as it does without a
    start.

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
                basis, at_upper, x_basic, duals = _iterate(std, std.cost, *warm, True, tally, warm=True)
            except _ColdStart:
                warm = None
        if warm is None:
            basis, at_upper = std.basis, np.zeros(A.shape[1], dtype=bool)
            # Phase 1: minimize the artificial mass.
            if artificial.any():
                try:
                    basis, at_upper, x_basic, _ = _iterate(std, artificial.astype(float), basis, at_upper, False, tally)
                except _Unbounded as exc:  # phase-1 objective is bounded below by zero
                    raise NumericalFailure("phase-1 subproblem reported unbounded") from exc
                infeasibility = float(x_basic[artificial[basis]].sum())
                if infeasibility > FEASIBILITY_TOL * max(1.0, float(np.abs(std.rhs).max(initial=0.0))):
                    return LpResult(status=INFEASIBLE)

            # Phase 2: the real objective.
            basis, at_upper, x_basic, duals = _iterate(std, std.cost, basis, at_upper, True, tally)
    except _Unbounded:
        return LpResult(status=UNBOUNDED)
    finally:
        _log_debug(
            "solve_lp: standard form %d x %d, pivots %d + %d (phase 1 + 2), %d dual pivots, %d bound flips, "
            "%d refactorizations, start %s",
            *A.shape, *tally.phase_pivots, tally.dual_pivots, tally.bound_flips, tally.refactorizations,
            "none" if start is None else "rejected" if warm is None else "dual" if tally.dual_pivots else "used",
        )

    # Nonbasic columns sit at a bound, and basic ones are clipped to their lower bound.
    z = np.where(at_upper, std.upper, std.lower)
    z[basis] = np.maximum(x_basic, std.lower[basis])

    # Snap hair-width bound violations and verify feasibility before returning.
    solution = np.clip(std.original_point(z), problem.lower, problem.upper)
    _check_feasible(problem, solution)
    objective_value = float(problem.objective @ solution)
    # c_B·B⁻¹ prices the standard form's rows: undo their negation and the maximization's.
    duals = duals * (-std.row_sign if problem.sense == "maximize" else std.row_sign)
    return LpResult(
        status=OPTIMAL,
        solution=solution,
        objective_value=objective_value,
        duals=duals,
        basis=Basis(basis, at_upper),
    )
