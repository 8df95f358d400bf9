"""Planner utilities as minima of affine pieces.

A utility J(x, b) maps (outcome, decision) to payoff. Storing it as
min_k (a_k + c_k*x + d_k*b) makes it jointly concave by construction and
keeps every optimization in the package a finite linear program. The market
bidding profile — sell a bid b at price p, pay penalty q per unit shortfall
when the realized quantity x falls below the bid — is the built-in instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Utility:
    """min over affine pieces (a + c*x + d*b), with decision b confined to a closed interval."""

    pieces: tuple[tuple[float, float, float], ...]
    decision_bounds: tuple[float, float]

    def __post_init__(self):
        pieces = tuple((float(a), float(c), float(d)) for a, c, d in self.pieces)
        object.__setattr__(self, "pieces", pieces)
        bounds = (float(self.decision_bounds[0]), float(self.decision_bounds[1]))
        object.__setattr__(self, "decision_bounds", bounds)
        if not pieces:
            raise ValidationError("pieces", "need at least one affine piece")
        for k, (a, c, d) in enumerate(pieces):
            if not (math.isfinite(a) and math.isfinite(c) and math.isfinite(d)):
                raise ValidationError(f"pieces[{k}]", "coefficients must be finite")
        lo, hi = bounds
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("decision_bounds", "bounds must be finite")
        if not lo < hi:
            raise ValidationError("decision_bounds", f"lower {lo} must be < upper {hi}")

    def check_decision(self, b: float) -> float:
        """The decision b as a float, after checking it lies in decision_bounds."""
        lo, hi = self.decision_bounds
        if not lo <= b <= hi:
            raise ValidationError("b", f"decision {b} outside bounds [{lo}, {hi}]")
        return float(b)

    def value(self, x: float, b: float) -> float:
        """Exact minimum over the affine pieces at (x, b)."""
        b = self.check_decision(b)
        return min(a + c * x + d * b for a, c, d in self.pieces)

    def values_at(self, xs: np.ndarray, b: float) -> np.ndarray:
        """Vectorized value over outcomes for a fixed decision (no bound check on xs)."""
        b = self.check_decision(b)
        xs = np.asarray(xs, dtype=float)
        stacked = np.stack([a + c * xs + d * b for a, c, d in self.pieces])
        return stacked.min(axis=0)

    def outcome_kinks(self, b: float, domain_lower: float, domain_upper: float) -> list[float]:
        """Outcome locations where the active piece can change, inside the domain.

        These are the pairwise crossings a_j + c_j*x + d_j*b = a_k + c_k*x + d_k*b
        solved for x; the worst-case search grids include them so the minimum
        of a concave piecewise-affine function is never missed between samples.
        """
        kinks = []
        pieces = self.pieces
        for j in range(len(pieces)):
            for k in range(j + 1, len(pieces)):
                a1, c1, d1 = pieces[j]
                a2, c2, d2 = pieces[k]
                if abs(c1 - c2) < 1e-15:
                    continue
                x = ((a2 - a1) + (d2 - d1) * b) / (c1 - c2)
                if domain_lower <= x <= domain_upper:
                    kinks.append(float(x))
        return sorted(set(kinks))

    def scaled(self, factor: float) -> "Utility":
        """The utility with every piece coefficient multiplied by factor > 0."""
        if factor <= 0:
            raise ValidationError("factor", f"must be > 0, got {factor}")
        return Utility(
            pieces=tuple((factor * a, factor * c, factor * d) for a, c, d in self.pieces),
            decision_bounds=self.decision_bounds,
        )


def market_bidding(
    price: float, penalty: float, bid_lower: float = 0.0, bid_upper: float = 1.0
) -> Utility:
    """Market-bidding utility: J(x, b) = price*b - penalty*max(b - x, 0).

    Selling the full bid earns price*b; shortfall (realized x below the bid)
    is bought back at the penalty rate, which must exceed the price for the
    problem to be meaningful. Equals min(price*b, penalty*x + (price-penalty)*b).
    """
    if price <= 0:
        raise ValidationError("price", f"must be > 0, got {price}")
    if penalty <= price:
        raise ValidationError("penalty", f"must exceed price {price}, got {penalty}")
    return Utility(
        pieces=((0.0, 0.0, price), (0.0, penalty, price - penalty)),
        decision_bounds=(bid_lower, bid_upper),
    )
