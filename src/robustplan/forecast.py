"""Forecasts as constraints on an unknown distribution.

A forecast bounds the expectation of a known test function: E[g(x)] <= bound.
A collection of forecasts over a common domain describes the ambiguity set —
every probability distribution on the domain consistent with all of them.
Prediction intervals (lower/upper bounds on the probability of each cell of a
partition) are the main structured special case and convert to the generic
form with one indicator constraint per bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, ValidationError
from .simplex import EQ, LE, OPTIMAL, UNBOUNDED, LinearProgram, solve_lp

#: Offset used to probe just inside a half-open boundary.
BOUNDARY_SHIFT = 1e-9


@dataclass(frozen=True)
class Domain:
    """The closed interval of outcomes the random quantity lives in."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValidationError("domain", "bounds must be finite")
        if not self.lower < self.upper:
            raise ValidationError("domain", f"lower {self.lower} must be < upper {self.upper}")


@dataclass(frozen=True)
class IndicatorInterval:
    """1 on [lo, hi) — or [lo, hi] when closed_right — and 0 elsewhere."""

    lo: float
    hi: float
    closed_right: bool = False


@dataclass(frozen=True)
class NegatedIndicatorInterval:
    """Negative of IndicatorInterval; encodes a lower probability bound."""

    lo: float
    hi: float
    closed_right: bool = False


@dataclass(frozen=True)
class AffineFunction:
    """offset + slope * x."""

    offset: float
    slope: float


@dataclass(frozen=True)
class PowerFunction:
    """x ** exponent for a positive integer exponent."""

    exponent: int


@dataclass(frozen=True)
class NegatedPowerFunction:
    """-(x ** exponent) for a positive integer exponent."""

    exponent: int


ConstraintFunction = (
    IndicatorInterval | NegatedIndicatorInterval | AffineFunction | PowerFunction | NegatedPowerFunction
)

_INDICATOR_KINDS = (IndicatorInterval, NegatedIndicatorInterval)


def constraint_values(fn: ConstraintFunction, xs: np.ndarray) -> np.ndarray:
    """Evaluate a constraint function on an array of points (no domain check)."""
    xs = np.asarray(xs, dtype=float)
    if isinstance(fn, IndicatorInterval) or isinstance(fn, NegatedIndicatorInterval):
        inside = (xs >= fn.lo) & ((xs <= fn.hi) if fn.closed_right else (xs < fn.hi))
        vals = inside.astype(float)
        return -vals if isinstance(fn, NegatedIndicatorInterval) else vals
    if isinstance(fn, AffineFunction):
        return fn.offset + fn.slope * xs
    if isinstance(fn, PowerFunction):
        return xs**fn.exponent
    if isinstance(fn, NegatedPowerFunction):
        return -(xs**fn.exponent)
    raise ValidationError("constraint", f"unknown constraint function {type(fn).__name__}")


def _validate_function(fn: ConstraintFunction, domain: Domain, where: str) -> None:
    if isinstance(fn, _INDICATOR_KINDS):
        if not (domain.lower <= fn.lo < fn.hi <= domain.upper):
            raise ValidationError(
                where,
                f"indicator bounds ({fn.lo}, {fn.hi}) must satisfy "
                f"{domain.lower} <= lo < hi <= {domain.upper}",
            )
    elif isinstance(fn, (PowerFunction, NegatedPowerFunction)):
        if not (isinstance(fn.exponent, int) and fn.exponent >= 1):
            raise ValidationError(where, f"exponent must be a positive integer, got {fn.exponent!r}")
    elif isinstance(fn, AffineFunction):
        if not (math.isfinite(fn.offset) and math.isfinite(fn.slope)):
            raise ValidationError(where, "affine coefficients must be finite")
    else:
        raise ValidationError(where, f"unknown constraint function {type(fn).__name__}")


@dataclass(frozen=True)
class Forecast:
    """One expectation constraint: E[function(x)] <= bound."""

    function: ConstraintFunction
    bound: float


@dataclass(frozen=True)
class ForecastSet:
    """A domain plus the expectation constraints that carve out the ambiguity set.

    ``interval_count`` is set when the constraints came from a prediction-
    interval conversion: the first ``interval_count`` entries are the upper
    probability bounds and the next ``interval_count`` the lower ones, in
    interval order.
    """

    domain: Domain
    forecasts: tuple[Forecast, ...]
    interval_count: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "forecasts", tuple(self.forecasts))
        for i, fc in enumerate(self.forecasts):
            _validate_function(fc.function, self.domain, f"constraints[{i}]")
            if not math.isfinite(fc.bound):
                raise ValidationError(f"constraints[{i}]", "bound must be finite")
        if self.interval_count is not None and 2 * self.interval_count != len(self.forecasts):
            raise ValidationError(
                "interval_count", f"{self.interval_count} does not match {len(self.forecasts)} constraints"
            )

    @property
    def bounds(self) -> np.ndarray:
        """The constraint bounds as a vector (the epsilon coordinates)."""
        return np.array([fc.bound for fc in self.forecasts])

    def with_bounds(self, bounds) -> "ForecastSet":
        """Copy of this set with every constraint bound replaced."""
        bounds = np.asarray(bounds, dtype=float)
        if bounds.shape != (len(self.forecasts),):
            raise ValidationError("bounds", f"expected {len(self.forecasts)} entries, got {bounds.shape}")
        forecasts = tuple(
            Forecast(function=fc.function, bound=float(b)) for fc, b in zip(self.forecasts, bounds)
        )
        return ForecastSet(domain=self.domain, forecasts=forecasts, interval_count=self.interval_count)

    def values(self, xs) -> np.ndarray:
        """Every forecast's function at the points xs, as an (n, k) matrix."""
        xs = np.asarray(xs, dtype=float)
        rows = [constraint_values(fc.function, xs) for fc in self.forecasts]
        return np.array(rows, dtype=float).reshape(len(rows), xs.size)

    def all_indicators(self) -> bool:
        return all(isinstance(fc.function, _INDICATOR_KINDS) for fc in self.forecasts)

    def indicator_endpoints(self) -> list[float]:
        """Sorted unique interval endpoints of every indicator constraint."""
        points = set()
        for fc in self.forecasts:
            if isinstance(fc.function, _INDICATOR_KINDS):
                points.add(fc.function.lo)
                points.add(fc.function.hi)
        return sorted(points)


@dataclass(frozen=True)
class PredictionIntervals:
    """Probability bounds for each cell of a partition of the domain.

    breakpoints x_0 < x_1 < ... < x_m split [x_0, x_m] into m cells; cell i
    (0-based) carries the constraint lower_probs[i] <= P(cell i) <=
    upper_probs[i]. All cells are half-open [x_i, x_{i+1}) except the last,
    which is closed so the partition covers the whole domain.
    """

    breakpoints: tuple[float, ...]
    lower_probs: tuple[float, ...]
    upper_probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(float(x) for x in self.breakpoints))
        object.__setattr__(self, "lower_probs", tuple(float(x) for x in self.lower_probs))
        object.__setattr__(self, "upper_probs", tuple(float(x) for x in self.upper_probs))
        if len(self.breakpoints) < 2:
            raise ValidationError("breakpoints", "need at least two breakpoints")
        for i, (a, b) in enumerate(zip(self.breakpoints, self.breakpoints[1:])):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValidationError(f"breakpoints[{i}]", "breakpoints must be finite")
            if not a < b:
                raise ValidationError(f"breakpoints[{i + 1}]", f"breakpoints must be strictly increasing, got {b} after {a}")
        m = len(self.breakpoints) - 1
        if len(self.lower_probs) != m:
            raise ValidationError("lower_probs", f"expected {m} entries, got {len(self.lower_probs)}")
        if len(self.upper_probs) != m:
            raise ValidationError("upper_probs", f"expected {m} entries, got {len(self.upper_probs)}")
        for i in range(m):
            lo, hi = self.lower_probs[i], self.upper_probs[i]
            if not 0.0 <= lo:
                raise ValidationError(f"lower_probs[{i}]", f"must be >= 0, got {lo}")
            if not hi <= 1.0:
                raise ValidationError(f"upper_probs[{i}]", f"must be <= 1, got {hi}")
            if lo > hi:
                raise ValidationError(f"upper_probs[{i}]", f"upper bound {hi} below lower bound {lo}")
        if sum(self.lower_probs) > 1.0 + 1e-12:
            raise ValidationError("lower_probs", f"sum {sum(self.lower_probs)} exceeds 1; no distribution can satisfy them")
        if sum(self.upper_probs) < 1.0 - 1e-12:
            raise ValidationError("upper_probs", f"sum {sum(self.upper_probs)} is below 1; no distribution can satisfy them")

    @property
    def interval_count(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def domain(self) -> Domain:
        return Domain(self.breakpoints[0], self.breakpoints[-1])


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely many atoms (location, probability) with probabilities summing to 1."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        atoms = tuple((float(x), float(p)) for x, p in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValidationError("atoms", "need at least one atom")
        total = 0.0
        for i, (x, p) in enumerate(atoms):
            if not math.isfinite(x):
                raise ValidationError(f"atoms[{i}]", "location must be finite")
            if not (math.isfinite(p) and p >= 0.0):
                raise ValidationError(f"atoms[{i}]", f"probability must be finite and >= 0, got {p}")
            total += p
        if abs(total - 1.0) > 1e-12:
            raise ValidationError("atoms", f"probabilities sum to {total!r}, expected 1 within 1e-12")

    @property
    def locations(self) -> np.ndarray:
        return np.array([x for x, _ in self.atoms])

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms])

    def expectation(self, fn: ConstraintFunction) -> float:
        """E[fn(x)] under this distribution."""
        return float(self.probabilities @ constraint_values(fn, self.locations))

    def constraint_slacks(self, fs: ForecastSet) -> np.ndarray:
        """Per-forecast slack bound - E[g]; nonnegative entries mean satisfied."""
        return np.array([fc.bound - self.expectation(fc.function) for fc in fs.forecasts])


def to_generic(pi: PredictionIntervals) -> ForecastSet:
    """Convert prediction intervals to generic expectation constraints.

    Returns 2m constraints, upper bounds first: for each cell i an indicator
    with bound upper_probs[i], then for each cell i a negated indicator with
    bound -lower_probs[i]. The last cell's indicators are closed on the right.
    """
    m = pi.interval_count
    domain = pi.domain
    forecasts: list[Forecast] = []
    for i in range(m):
        fn = IndicatorInterval(pi.breakpoints[i], pi.breakpoints[i + 1], closed_right=(i == m - 1))
        forecasts.append(Forecast(function=fn, bound=pi.upper_probs[i]))
    for i in range(m):
        fn = NegatedIndicatorInterval(pi.breakpoints[i], pi.breakpoints[i + 1], closed_right=(i == m - 1))
        forecasts.append(Forecast(function=fn, bound=-pi.lower_probs[i]))
    return ForecastSet(domain=domain, forecasts=tuple(forecasts), interval_count=m)


def outcome_grid(fs: ForecastSet, base_points: int, kinks=()) -> np.ndarray:
    """Sorted unique outcome points on which the package checks a distribution.

    A uniform grid of base_points over the domain, both domain ends, every
    indicator endpoint e with its probe e - BOUNDARY_SHIFT (just inside a
    half-open end), the probe e + BOUNDARY_SHIFT just past every closed right
    end (each probe when it lies in the domain), and the given kinks, all
    clipped to the domain.
    """
    lo, hi = fs.domain.lower, fs.domain.upper
    endpoints = np.array(fs.indicator_endpoints(), dtype=float)
    before = endpoints - BOUNDARY_SHIFT
    closed_ends = [
        fc.function.hi
        for fc in fs.forecasts
        if isinstance(fc.function, _INDICATOR_KINDS) and fc.function.closed_right
    ]
    after = np.array(closed_ends, dtype=float) + BOUNDARY_SHIFT
    points = np.concatenate(
        [
            np.linspace(lo, hi, base_points),
            [lo, hi],
            endpoints,
            before[before >= lo],
            after[after <= hi],
            np.asarray(kinks, dtype=float),
        ]
    )
    return np.unique(np.clip(points, lo, hi))


def strict_feasibility_slack(fs: ForecastSet, grid_size: int) -> float:
    """Largest uniform slack any grid-supported distribution leaves on all forecasts.

    Solves max zeta s.t. sum(p) = 1, p >= 0, E_p[g_i] + zeta <= bound_i over
    distributions p supported on outcome_grid(fs, grid_size). A strictly
    positive value certifies that some distribution satisfies every forecast
    with room to spare (at this grid resolution). Returns +inf when there are
    no forecasts to violate.
    """
    if grid_size < 2:
        raise ValidationError("grid_size", f"must be >= 2, got {grid_size}")
    n = len(fs.forecasts)
    if n == 0:
        return math.inf

    grid = outcome_grid(fs, grid_size)
    k = grid.size
    # Variables: k atom probabilities, then zeta (free).
    objective = np.zeros(k + 1)
    objective[-1] = 1.0
    matrix = np.zeros((n + 1, k + 1))
    matrix[0, :k] = 1.0
    matrix[1:, :k] = fs.values(grid)
    matrix[1:, k] = 1.0
    lp = LinearProgram(
        objective=objective,
        matrix=matrix,
        senses=(EQ,) + (LE,) * n,
        rhs=np.concatenate([[1.0], fs.bounds]),
        lower=np.concatenate([np.zeros(k), [-np.inf]]),
        upper=np.full(k + 1, np.inf),
        sense="maximize",
    )
    result = solve_lp(lp)
    if result.status == UNBOUNDED:
        # Only possible with no effective constraints; handled above for n == 0.
        raise NumericalFailure("slack subproblem reported unbounded despite constraints")
    if result.status != OPTIMAL:
        # The subproblem is feasible for any p on the simplex with zeta small
        # enough, so this branch is unreachable for valid inputs.
        raise NumericalFailure(f"slack subproblem unexpectedly {result.status}")
    return float(result.objective_value)


def feasibility_ball_radius(slack: float, bounds) -> float:
    """Radius of the bound-perturbation ball guaranteed to stay feasible.

    Given a distribution satisfying every forecast with uniform slack > 0,
    any perturbed bound vector within this radius (in max norm) still admits
    that distribution after scaling; computed as
    min(1, min_i slack / (1 + |bounds_i - slack|)).
    """
    if slack <= 0:
        raise ValidationError("slack", f"must be > 0, got {slack}")
    bounds = np.asarray(bounds, dtype=float)
    if bounds.size == 0:
        return 1.0
    ratios = slack / (1.0 + np.abs(bounds - slack))
    return float(min(1.0, ratios.min()))
