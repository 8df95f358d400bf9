"""Self-contained dense linear-programming solver.

Implements a two-phase bounded-variable primal simplex in revised form with
an explicit basis inverse. A pivot costs O(m²): the duals and the entering
direction come from the kept B⁻¹, which then takes a rank-1 (product-form)
update (Bartels & Golub, CACM 12(5), 1969; Forrest & Tomlin, Math. Prog. 2,
1972). Pivots are decided on B⁻¹, with the basic values recomputed from it
at every step. Every ``_REFACTOR_INTERVAL`` pivots the step runs on fresh
dense solves of the basis system and B⁻¹ is inverted anew, and every exit
is decided on fresh solves, so the answers carry no update drift (see
``_iterate``). Every solve logs one DEBUG line to the ``robustplan``
logger: the standard-form shape, pivots per phase, bound flips and
refactorizations.

``_standard_form`` builds the whole phase-1 system in one place: structural
columns (fixed variables folded into the right-hand side, variables with
both bounds finite kept as boxed columns with their own bounds, one-sided
ones shifted or reflected onto z >= 0, free ones split), rows negated where
the starting point leaves them negative, slack, surplus and artificial
columns, and a starting basis. Boxed columns are handled natively by the
pivot loop (Dantzig, Econometrica 23(2), 1955): a nonbasic one sits at
either bound, so it needs no extra row. ``solve_lp`` then runs phase 1, runs
phase 2, undoes the change of variables and verifies the point against the
original rows. An artificial still basic after phase 1 (at zero, on a
redundant or degenerate row) is not driven out: phase 2 keeps it at zero and
evicts it as soon as a pivot would move it.

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
    """Phase 1-ready system: min cost @ z subject to matrix @ z = rhs, lower <= z <= upper.

    The columns are [structural | slack/surplus | artificial]. Every column
    lies in [0, inf) except a ``boxed`` structural column, which keeps its
    variable's own [lo, hi]. ``basis`` (one slack or artificial per row) is
    feasible for phase 1 with every nonbasic column at its lower bound, and
    ``artificial`` marks the artificial columns. The original point is
    ``base`` plus ``sign[k] * z[k]`` added into variable ``var[k]`` for every
    structural column k.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    boxed: np.ndarray
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
    start = rhs
    if column_boxed.any():
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
        boxed=np.flatnonzero(column_boxed),
        artificial=np.arange(n_std + n_added) >= n_std + n_slack,
        basis=basis,
        base=np.where(fixed, lower, base_point),
        var=var,
        sign=sign,
    )


class _Tally:
    """Work done by one ``solve_lp`` call, for its DEBUG log line."""

    __slots__ = ("phase_pivots", "bound_flips", "refactorizations")

    def __init__(self):
        self.phase_pivots = [0, 0]
        self.bound_flips = 0
        self.refactorizations = 0


class _Placement(NamedTuple):
    """Where the boxed columns sit at a vertex, for ``_iterate``."""

    rhs: np.ndarray  # b − N·z_N: the right-hand side the basic columns must meet
    off_cost: float  # the nonbasic boxed columns' share of the objective
    at_top: np.ndarray  # nonbasic boxed columns at their upper bound
    rows: np.ndarray  # basis positions that hold a boxed column
    floor: np.ndarray  # the lower bound of each basic column


class _Move(NamedTuple):
    """One step chosen by the pricing and the ratio test.

    The entering column moves off the bound it sits at along ``direction``.
    ``leave_pos`` is the basis position of the leaving column, which stops at
    its upper bound when ``to_upper`` is set; it is -1 when no basic column
    blocks, and the step is then a bound ``flip`` of the entering column, or
    unbounded.
    """

    entering: int
    direction: np.ndarray
    leave_pos: int
    to_upper: bool = False
    flip: bool = False

    @property
    def unbounded(self) -> bool:
        """Neither a basic column nor the entering column's own bound blocks."""
        return self.leave_pos < 0 and not self.flip


def _iterate(
    std: _StandardForm,
    cost: np.ndarray,
    basis: np.ndarray,
    at_upper: np.ndarray,
    pin_artificials: bool,
    tally: _Tally,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivot to optimality on min cost'z, Az = b, lower <= z <= upper from the given vertex.

    The vertex is ``basis`` plus the bound each nonbasic column sits at: its
    upper bound where ``at_upper`` is set, its lower bound otherwise. Only
    boxed columns have a finite upper bound, so an LP without them runs the
    plain simplex. With them it is the bounded-variable simplex (Dantzig,
    Econometrica 23(2), 1955): the basic values are B⁻¹(b − N·z_N), a
    column at its upper bound prices with the sign of its reduced cost
    flipped, the ratio test also stops a basic boxed column at its upper
    bound, and the entering column may instead cross to its other bound (a
    bound flip), which leaves the basis as it is.

    Artificial columns never enter, and one left basic by phase 1 is never
    driven out. With ``pin_artificials`` (phase 2) such an artificial must
    stay at zero: its row gets a zero-ratio exit as soon as the entering
    direction would move it.

    The basis inverse is kept explicitly, and every pivot between
    refactorizations is decided on it: the basic values B⁻¹(b − N·z_N), the
    duals c_B B⁻¹ and the entering direction B⁻¹ a_e, all O(m²). The basic
    values are recomputed at every step, never carried from step to step,
    so they hold no memory of earlier, larger values. A pivot that changes
    the basis gives B⁻¹ a rank-1 update; a bound flip (which counts as a
    pivot) leaves it as it is. Every ``_REFACTOR_INTERVAL`` pivots, the
    first included, the step is decided on fresh dense solves of the basis
    system instead, and B⁻¹ is inverted anew. An exit (optimal or unbounded)
    that the kept inverse proposes is decided again on fresh solves, so the
    returned values carry no update drift.

    Pivot, bound-flip and refactorization counts go to ``tally``.
    Returns the final basis, the final ``at_upper`` and the basic values.
    Raises _Unbounded or NumericalFailure.
    """
    A, b, lower, upper = std.matrix, std.rhs, std.lower, std.upper
    m, n = A.shape
    artificial = std.artificial
    pin_zero = artificial if pin_artificials else np.zeros_like(artificial)
    boxed = std.boxed
    bounded = boxed.size > 0
    enterable = ~artificial
    basis = np.array(basis, dtype=int)
    if bounded:
        at_upper = at_upper.copy()
        is_basic = np.zeros(n, dtype=bool)
        is_basic[basis] = True
    phase = int(pin_artificials)
    # (best objective, degenerate-stall count, Bland engaged)
    progress = (np.inf, 0, False)

    placement = None

    def boxed_placement() -> _Placement:
        """Where the boxed columns sit, kept until a step moves one of them."""
        nonlocal placement
        if placement is None:
            nonbasic = boxed[~is_basic[boxed]]
            values = np.where(at_upper[nonbasic], upper[nonbasic], lower[nonbasic])
            off = values != 0.0
            off_columns, off_values = nonbasic[off], values[off]
            placement = _Placement(
                rhs=b - A[:, off_columns] @ off_values if off_columns.size else b,
                off_cost=float(cost[off_columns] @ off_values),
                at_top=nonbasic[at_upper[nonbasic]],
                rows=np.flatnonzero(upper[basis] < np.inf),
                floor=lower[basis],
            )
        return placement

    def basic_rhs():
        """b − N·z_N: the right-hand side the basic columns must meet."""
        return boxed_placement().rhs if bounded else b

    def decide(x_basic, duals, direction_of):
        """The stall bookkeeping and the step taken at (x_basic, duals); None is optimal."""
        best, stall, bland = progress
        objective = float(cost[basis] @ x_basic)
        if bounded:
            place = boxed_placement()
            objective += place.off_cost
        if objective < best - _TIE_BAND:
            best, stall, bland = objective, 0, False
        else:
            stall += 1
            bland = bland or stall >= _DEGENERATE_STALL_LIMIT

        reduced = cost - A.T @ duals
        if bounded and place.at_top.size:
            reduced[place.at_top] = -reduced[place.at_top]
        candidates = (reduced < -REDUCED_COST_TOL) & enterable
        candidates[basis] = False
        idx = candidates.nonzero()[0]
        if idx.size == 0:
            return (best, stall, bland), None

        entering = int(idx[0]) if bland else int(idx[np.argmin(reduced[idx])])
        direction = direction_of(A[:, entering])
        # x_B falls along ``toward`` as the entering column moves off its bound.
        toward = -direction if bounded and at_upper[entering] else direction

        # Ratio test: basic columns falling to their lower bound, rising to
        # their upper bound, and zero-ratio exits for pinned (artificial)
        # basics the moment the direction would move them at all.
        boxed_basic = bounded and place.rows.size > 0
        room = np.maximum(x_basic - place.floor if boxed_basic else x_basic, 0.0)
        blocking = toward > _PIVOT_TOL
        ratios = np.full(m, np.inf)
        ratios[blocking] = room[blocking] / toward[blocking]
        if boxed_basic:
            rises = place.rows[toward[place.rows] < -_PIVOT_TOL]
            if rises.size:
                ratios[rises] = np.maximum(upper[basis[rises]] - x_basic[rises], 0.0) / -toward[rises]
        if pin_artificials:
            ratios[pin_zero[basis] & (np.abs(direction) > _PIVOT_TOL)] = 0.0
        theta = ratios.min(initial=np.inf)
        # The entering column's own bound blocks it at its box width.
        width = upper[entering] - lower[entering] if bounded else np.inf
        if theta == width == np.inf:
            return (best, stall, bland), _Move(entering, direction, -1)
        if width <= theta:
            return (best, stall, bland), _Move(entering, direction, -1, flip=True)

        tied = np.where(ratios <= theta + _TIE_BAND)[0]
        if tied.size > 1:
            # Prefer evicting pinned leftovers, then lowest variable index (Bland).
            tied = tied[np.lexsort((basis[tied], ~pin_zero[basis[tied]]))]
        leave_pos = int(tied[0])
        # Only a boxed basic column blocks while rising.
        stops_at_upper = bounded and toward[leave_pos] < 0.0 and upper[basis[leave_pos]] < np.inf
        return (best, stall, bland), _Move(entering, direction, leave_pos, stops_at_upper)

    try:
        while True:
            if sum(tally.phase_pivots) >= MAX_PIVOTS:
                raise NumericalFailure(f"pivot cap of {MAX_PIVOTS} exhausted")
            refactor = tally.phase_pivots[phase] % _REFACTOR_INTERVAL == 0
            if not refactor:
                step_progress, move = decide(B_inv @ basic_rhs(), cost[basis] @ B_inv, B_inv.__matmul__)
            if refactor or move is None or move.unbounded:
                # The step exactly as a from-scratch revised simplex takes it.
                B = A[:, basis]
                x_basic = np.linalg.solve(B, basic_rhs())
                duals = np.linalg.solve(B.T, cost[basis])
                step_progress, move = decide(x_basic, duals, lambda column: np.linalg.solve(B, column))
            progress = step_progress
            if move is None:
                return basis, at_upper, x_basic
            if move.unbounded:
                raise _Unbounded

            if refactor:
                B_inv = np.linalg.inv(B)
                tally.refactorizations += 1
            tally.phase_pivots[phase] += 1
            entering, d, r = move.entering, move.direction, move.leave_pos
            if move.flip:
                at_upper[entering] = not at_upper[entering]
                placement = None
                tally.bound_flips += 1
                continue
            pivot_row = B_inv[r] / d[r]
            B_inv -= np.outer(d, pivot_row)
            B_inv[r] = pivot_row
            leaving = basis[r]
            basis[r] = entering
            if bounded and (upper[entering] < np.inf or upper[leaving] < np.inf):
                at_upper[leaving], at_upper[entering] = move.to_upper, False
                is_basic[leaving], is_basic[entering] = False, True
                placement = None
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


def solve_lp(problem: LinearProgram) -> LpResult:
    """Solve a dense LP, returning status, an optimal point, and its objective.

    Raises:
        ValidationError: structural problems with the input (not a solver status).
        NumericalFailure: pivot cap exhausted or an internal consistency check failed.
    """
    problem.validate()
    std = _standard_form(problem)
    A, artificial = std.matrix, std.artificial
    basis, at_upper, tally = std.basis, np.zeros(A.shape[1], dtype=bool), _Tally()
    try:
        # Phase 1: minimize the artificial mass.
        if artificial.any():
            try:
                basis, at_upper, x_basic = _iterate(std, artificial.astype(float), basis, at_upper, False, tally)
            except _Unbounded as exc:  # phase-1 objective is bounded below by zero
                raise NumericalFailure("phase-1 subproblem reported unbounded") from exc
            infeasibility = float(x_basic[artificial[basis]].sum())
            if infeasibility > FEASIBILITY_TOL * max(1.0, float(np.abs(std.rhs).max(initial=0.0))):
                return LpResult(status=INFEASIBLE)

        # Phase 2: the real objective.
        try:
            basis, at_upper, x_basic = _iterate(std, std.cost, basis, at_upper, True, tally)
        except _Unbounded:
            return LpResult(status=UNBOUNDED)
    finally:
        _log_debug(
            "solve_lp: standard form %d x %d, pivots %d + %d (phase 1 + 2), %d bound flips, %d refactorizations",
            *A.shape, *tally.phase_pivots, tally.bound_flips, tally.refactorizations,
        )

    # Nonbasic columns sit at a bound, and basic ones are clipped to their lower bound.
    z = np.where(at_upper, std.upper, std.lower)
    z[basis] = np.maximum(x_basic, std.lower[basis])

    # Snap hair-width bound violations and verify feasibility before returning.
    solution = np.clip(std.original_point(z), problem.lower, problem.upper)
    _check_feasible(problem, solution)
    objective_value = float(problem.objective @ solution)
    return LpResult(status=OPTIMAL, solution=solution, objective_value=objective_value)
