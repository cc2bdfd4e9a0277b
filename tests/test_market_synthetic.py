"""Tests for the synthetic spot-market generator."""

import numpy as np
import pytest

from repro.cloud.instance import get_instance_type
from repro.market.synthetic import (
    DEFAULT_MARKET_PROFILES,
    MIN_DAYS,
    MarketModelParams,
    SyntheticMarketGenerator,
    params_for,
)
from repro.sim.clock import DAY


@pytest.fixture(scope="module")
def r3_trace():
    return SyntheticMarketGenerator(seed=0).generate(get_instance_type("r3.xlarge"), days=11)


@pytest.fixture(scope="module")
def m4_trace():
    return SyntheticMarketGenerator(seed=0).generate(get_instance_type("m4.4xlarge"), days=11)


class TestGeneration:
    def test_deterministic_given_seed(self):
        instance = get_instance_type("r4.large")
        a = SyntheticMarketGenerator(seed=5).generate(instance, days=2)
        b = SyntheticMarketGenerator(seed=5).generate(instance, days=2)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.prices, b.prices)

    def test_different_seeds_differ(self):
        instance = get_instance_type("r4.large")
        a = SyntheticMarketGenerator(seed=5).generate(instance, days=2)
        b = SyntheticMarketGenerator(seed=6).generate(instance, days=2)
        assert not np.array_equal(a.prices, b.prices)

    def test_markets_are_uncorrelated(self):
        generator = SyntheticMarketGenerator(seed=0)
        a = generator.generate(get_instance_type("r4.xlarge"), days=4).to_minutely()
        b = generator.generate(get_instance_type("r4.2xlarge"), days=4).to_minutely()
        n = min(len(a.prices), len(b.prices))
        correlation = np.corrcoef(np.diff(a.prices[:n]), np.diff(b.prices[:n]))[0, 1]
        assert abs(correlation) < 0.15

    def test_span_matches_requested_days(self, r3_trace):
        assert r3_trace.end - r3_trace.start >= 10.9 * DAY

    def test_rejects_nonpositive_days(self):
        with pytest.raises(ValueError):
            SyntheticMarketGenerator(0).generate(get_instance_type("r4.large"), days=0)

    def test_rejects_days_under_one_minute(self):
        # Half a minute used to round to an empty latent grid and fail
        # with an IndexError; one minute is the shortest trace.
        generator = SyntheticMarketGenerator(0)
        instance = get_instance_type("r4.large")
        for days in (0.0001, 0.5 * MIN_DAYS, float("nan")):
            with pytest.raises(ValueError, match="at least one minute"):
                generator.generate(instance, days=days)
        assert len(generator.generate(instance, days=MIN_DAYS)) == 1

    def test_records_are_sparse(self, m4_trace):
        # Stable market: far fewer change records than minutes.
        total_minutes = 11 * 24 * 60
        assert len(m4_trace) < total_minutes


class TestCalibration:
    def test_prices_respect_floor_and_cap(self, r3_trace):
        instance = get_instance_type("r3.xlarge")
        params = params_for("r3.xlarge")
        assert r3_trace.prices.min() >= params.floor_fraction * instance.on_demand_price
        assert r3_trace.prices.max() <= params.cap_multiple * instance.on_demand_price

    def test_base_price_is_discounted(self, r3_trace):
        # Median spot price should be well below on-demand (70-80% discount).
        on_demand = get_instance_type("r3.xlarge").on_demand_price
        assert np.median(r3_trace.prices) < 0.5 * on_demand

    def test_volatile_market_spikes_above_on_demand(self, r3_trace):
        # Fig. 1: r3.xlarge spikes well above its on-demand price.
        on_demand = get_instance_type("r3.xlarge").on_demand_price
        assert r3_trace.prices.max() > on_demand

    def test_stable_market_changes_less_than_volatile(self, r3_trace, m4_trace):
        r3_rate = len(r3_trace) / (r3_trace.end - r3_trace.start)
        m4_rate = len(m4_trace) / (m4_trace.end - m4_trace.start)
        assert m4_rate < r3_rate

    def test_all_pool_markets_have_profiles(self):
        for name in ("r3.xlarge", "r4.large", "r4.xlarge", "r4.2xlarge", "m4.2xlarge", "m4.4xlarge"):
            assert name in DEFAULT_MARKET_PROFILES

    def test_unknown_market_gets_default_profile(self):
        assert params_for("c5.large") == MarketModelParams()


class TestParams:
    def test_rejects_bad_discount(self):
        with pytest.raises(ValueError):
            MarketModelParams(base_discount=1.5)

    def test_rejects_bad_mean_reversion(self):
        with pytest.raises(ValueError):
            MarketModelParams(mean_reversion=0.0)

    def test_rejects_floor_above_cap(self):
        with pytest.raises(ValueError):
            MarketModelParams(floor_fraction=20.0, cap_multiple=10.0)

    def test_rejects_unreachable_stationary_turbulent_share(self):
        # f=0.9 with stay=0.5 needs P(calm->turbulent) = 4.5 > 1: no
        # Markov chain has that stationary share, so the combination
        # must be rejected instead of silently breaking the contract.
        with pytest.raises(ValueError, match="entry probability"):
            MarketModelParams(turbulent_fraction=0.9, regime_stay_probability=0.5)

    def test_accepts_large_turbulent_share_with_long_sojourns(self):
        # The same share is fine when sojourns are long enough.
        params = MarketModelParams(
            turbulent_fraction=0.9, regime_stay_probability=0.995
        )
        assert params.turbulent_fraction == 0.9

    def test_inert_regime_combo_not_validated(self):
        # turbulence_multiplier == 1 short-circuits the regime chain
        # entirely, so the stationary-share contract has nothing to
        # break and the combination stays accepted.
        params = MarketModelParams(
            turbulent_fraction=0.9,
            regime_stay_probability=0.5,
            turbulence_multiplier=1.0,
        )
        assert params.turbulence_multiplier == 1.0
