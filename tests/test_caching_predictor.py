"""Tests for the memoising predictor wrapper."""

from dataclasses import dataclass, field

from repro.cloud.instance import get_instance_type
from repro.revpred.predictor import CachingPredictor

R4L = get_instance_type("r4.large")
R4X = get_instance_type("r4.xlarge")


@dataclass
class CountingPredictor:
    """Test double that counts real inferences."""

    value: float = 0.4
    calls: list = field(default_factory=list)

    def probability(self, instance, t, max_price):
        self.calls.append((instance.name, t, max_price))
        return self.value


class TestCachingPredictor:
    def test_repeated_query_hits_cache(self):
        inner = CountingPredictor()
        cache = CachingPredictor(inner, time_quantum=300.0)
        first = cache.probability(R4L, 100.0, 0.05)
        second = cache.probability(R4L, 150.0, 0.05)  # same 300 s bucket
        assert first == second == 0.4
        assert len(inner.calls) == 1
        assert cache.cache_size == 1

    def test_time_quantum_separates_buckets(self):
        inner = CountingPredictor()
        cache = CachingPredictor(inner, time_quantum=300.0)
        cache.probability(R4L, 100.0, 0.05)
        cache.probability(R4L, 400.0, 0.05)  # next bucket
        assert len(inner.calls) == 2

    def test_price_rounding_separates_keys(self):
        inner = CountingPredictor()
        cache = CachingPredictor(inner, price_decimals=3)
        cache.probability(R4L, 0.0, 0.0501)
        cache.probability(R4L, 0.0, 0.0504)  # rounds to the same 0.050
        cache.probability(R4L, 0.0, 0.0560)  # distinct
        assert len(inner.calls) == 2

    def test_instances_are_independent(self):
        inner = CountingPredictor()
        cache = CachingPredictor(inner)
        cache.probability(R4L, 0.0, 0.05)
        cache.probability(R4X, 0.0, 0.05)
        assert len(inner.calls) == 2

    def test_inner_query_uses_bucket_midpoint(self):
        inner = CountingPredictor()
        cache = CachingPredictor(inner, time_quantum=300.0)
        cache.probability(R4L, 100.0, 0.05)
        _, queried_time, _ = inner.calls[0]
        assert queried_time == 150.0  # midpoint of [0, 300)


class TestFirstQueryFixesTheKey:
    def test_first_unrounded_price_wins(self):
        """Two max prices that round to one key return the value
        computed from whichever was queried first, not from the key."""
        from repro.analysis.context import build_context
        from repro.revpred.trainer import untrained_predictor_bank

        context = build_context(seed=0)
        bank = untrained_predictor_bank(context.dataset)
        t = context.replay_start + 100.0
        midpoint = (t // 300.0 + 0.5) * 300.0
        cheap, dear = 0.1231, 0.1234
        cached = {}
        for first, second in ((cheap, dear), (dear, cheap)):
            cache = CachingPredictor(bank)
            value = cache.probability(R4L, t, first)
            assert cache.probability_many([(R4L, t, second)]) == [value]
            assert value == bank.probability(R4L, midpoint, first)
            cached[first] = value
        assert round(cached[cheap], 6) == 0.319965
        assert round(cached[dear], 6) == 0.320030
