"""Tests for piecewise-linear utilities and the market bidding family."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robustplan.errors import ValidationError
from robustplan.utility import Utility, market_bidding
from support import scaled


class TestMarketBidding:
    def test_full_delivery_pays_price(self):
        u = market_bidding(1.0, 1.6)
        assert u.value(0.5, 0.5) == pytest.approx(0.5)

    def test_shortfall_penalized(self):
        u = market_bidding(1.0, 1.6)
        # 1*1 - 1.6*(1 - 0.5) = 0.2
        assert u.value(0.5, 1.0) == pytest.approx(0.2)

    def test_total_shortfall(self):
        u = market_bidding(1.0, 1.6)
        assert u.value(0.0, 1.0) == pytest.approx(-0.6)

    def test_zero_bid_is_flat(self):
        u = market_bidding(1.0, 1.6)
        for x in np.linspace(0.0, 1.0, 7):
            assert u.value(float(x), 0.0) == 0.0

    def test_exact_delivery_along_diagonal(self):
        u = market_bidding(1.0, 1.6)
        for b in np.linspace(0.0, 1.0, 7):
            assert u.value(float(b), float(b)) == pytest.approx(float(b))

    def test_matches_closed_form_everywhere(self):
        u = market_bidding(1.3, 2.0, bid_upper=2.0)
        rng = np.random.default_rng(7)
        xs = rng.uniform(0.0, 3.0, size=10_000)
        bs = rng.uniform(0.0, 2.0, size=10_000)
        expected = 1.3 * bs - 2.0 * np.maximum(bs - xs, 0.0)
        got = np.array([u.value(x, b) for x, b in zip(xs, bs)])
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError) as err:
            market_bidding(0.0, 1.6)
        assert "price" in str(err.value)
        with pytest.raises(ValidationError) as err:
            market_bidding(1.0, 1.0)
        assert "penalty" in str(err.value)

    def test_kink_sits_at_the_bid(self):
        u = market_bidding(1.0, 1.6)
        assert u.outcome_kinks(0.3, 0.0, 1.0) == pytest.approx([0.3])

    def test_vectorized_matches_scalar(self):
        u = market_bidding(1.0, 1.6)
        xs = np.linspace(0.0, 1.0, 21)
        vec = u.values_at(xs, 0.4)
        scalar = [u.value(float(x), 0.4) for x in xs]
        np.testing.assert_array_equal(vec, scalar)


class TestUtilityGeneral:
    def test_constant_piece(self):
        u = Utility(pieces=((2.0, 0.0, 0.0),), decision_bounds=(0.0, 1.0))
        assert u.value(0.7, 0.3) == 2.0

    def test_min_of_pieces(self):
        u = Utility(pieces=((0.0, 1.0, 0.0), (1.0, -1.0, 0.0)), decision_bounds=(0.0, 1.0))
        assert u.value(0.2, 0.0) == pytest.approx(0.2)
        assert u.value(0.8, 0.0) == pytest.approx(0.2)

    def test_decision_bounds_enforced(self):
        u = market_bidding(1.0, 1.6)
        with pytest.raises(ValidationError) as err:
            u.value(0.5, 1.5)
        assert "b" in str(err.value)

    def test_empty_pieces_rejected(self):
        with pytest.raises(ValidationError):
            Utility(pieces=(), decision_bounds=(0.0, 1.0))

    def test_power_of_two_scaling_is_exact(self):
        u = market_bidding(1.0, 1.6)
        doubled = scaled(u, 2.0)
        halved = scaled(u, 0.5)
        rng = np.random.default_rng(11)
        for _ in range(200):
            x = float(rng.uniform(0.0, 1.0))
            b = float(rng.uniform(0.0, 1.0))
            assert doubled.value(x, b) == 2.0 * u.value(x, b)
            assert halved.value(x, b) == 0.5 * u.value(x, b)


@st.composite
def utilities(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    coef = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
    pieces = tuple((draw(coef), draw(coef), draw(coef)) for _ in range(n))
    return Utility(pieces=pieces, decision_bounds=(0.0, 1.0))


class TestConcavity:
    @given(
        u=utilities(),
        x1=st.floats(min_value=0.0, max_value=1.0),
        b1=st.floats(min_value=0.0, max_value=1.0),
        x2=st.floats(min_value=0.0, max_value=1.0),
        b2=st.floats(min_value=0.0, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_jointly_concave(self, u, x1, b1, x2, b2, t):
        xm = t * x1 + (1 - t) * x2
        bm = t * b1 + (1 - t) * b2
        mixed = u.value(xm, bm)
        assert mixed >= t * u.value(x1, b1) + (1 - t) * u.value(x2, b2) - 1e-9
