"""Tests for price traces: step semantics, windows, resampling."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.market.trace import HOUR, MINUTE, PriceTrace


def simple_trace() -> PriceTrace:
    # Price 1.0 from t=0, 2.0 from t=100, 0.5 from t=200.
    return PriceTrace("test", np.array([0.0, 100.0, 200.0]), np.array([1.0, 2.0, 0.5]))


class TestValidation:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            PriceTrace("x", np.array([0.0, 1.0]), np.array([1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PriceTrace("x", np.array([]), np.array([]))

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            PriceTrace("x", np.array([1.0, 0.0]), np.array([1.0, 2.0]))

    def test_rejects_duplicate_times(self):
        with pytest.raises(ValueError):
            PriceTrace("x", np.array([1.0, 1.0]), np.array([1.0, 2.0]))

    def test_rejects_nonpositive_prices(self):
        with pytest.raises(ValueError):
            PriceTrace("x", np.array([0.0]), np.array([0.0]))


class TestStepSemantics:
    def test_price_at_record_time(self):
        assert simple_trace().price_at(100.0) == 2.0

    def test_price_holds_between_records(self):
        assert simple_trace().price_at(150.0) == 2.0

    def test_price_before_first_record_raises(self):
        with pytest.raises(ValueError):
            simple_trace().price_at(-1.0)

    def test_price_after_last_record_holds(self):
        assert simple_trace().price_at(10_000.0) == 0.5

    def test_price_at_many_matches_scalar(self):
        trace = simple_trace()
        ts = np.array([0.0, 50.0, 100.0, 199.9, 200.0, 300.0])
        expected = [trace.price_at(t) for t in ts]
        np.testing.assert_array_equal(trace.price_at_many(ts), expected)

    def test_last_change_time(self):
        assert simple_trace().last_change_time(150.0) == 100.0

    def test_changes_in_half_open_window(self):
        trace = simple_trace()
        assert trace.changes_in(0.0, 100.0) == 1  # record at 100 counted
        assert trace.changes_in(0.0, 99.9) == 0
        assert trace.changes_in(0.0, 200.0) == 2

    def test_mean_price_time_weighted(self):
        trace = simple_trace()
        # [0,200]: 100s at 1.0, 100s at 2.0 -> 1.5
        assert trace.mean_price_in(0.0, 200.0) == pytest.approx(1.5)

    def test_mean_price_single_segment(self):
        assert simple_trace().mean_price_in(10.0, 20.0) == 1.0

    def test_max_price_in(self):
        assert simple_trace().max_price_in(0.0, 300.0) == 2.0
        assert simple_trace().max_price_in(210.0, 300.0) == 0.5


class TestRevocationQuery:
    def test_first_time_above_at_start(self):
        # Price already above threshold at start.
        assert simple_trace().first_time_above(0.9, 0.0, 300.0) == 0.0

    def test_first_time_above_mid_trace(self):
        assert simple_trace().first_time_above(1.5, 0.0, 300.0) == 100.0

    def test_first_time_above_never(self):
        assert simple_trace().first_time_above(5.0, 0.0, 300.0) is None

    def test_first_time_above_respects_end(self):
        assert simple_trace().first_time_above(1.5, 0.0, 99.0) is None

    def test_threshold_is_strict(self):
        # Price equal to threshold does not revoke.
        assert simple_trace().first_time_above(2.0, 0.0, 300.0) is None


class TestTransformations:
    def test_window_anchors_start(self):
        window = simple_trace().window(50.0, 250.0)
        assert window.start == 50.0
        assert window.price_at(50.0) == 1.0
        assert window.price_at(240.0) == 0.5

    def test_window_rejects_empty(self):
        with pytest.raises(ValueError):
            simple_trace().window(100.0, 100.0)

    def test_to_minutely_grid(self):
        trace = PriceTrace("x", np.array([0.0, 90.0]), np.array([1.0, 2.0]))
        minutely = trace.to_minutely(0.0, 4 * MINUTE)
        np.testing.assert_array_equal(minutely.times, [0.0, 60.0, 120.0, 180.0, 240.0])
        np.testing.assert_array_equal(minutely.prices, [1.0, 1.0, 2.0, 2.0, 2.0])

    def test_compress_drops_repeats(self):
        trace = PriceTrace(
            "x", np.array([0.0, 60.0, 120.0, 180.0]), np.array([1.0, 1.0, 2.0, 2.0])
        )
        compressed = trace.compress()
        np.testing.assert_array_equal(compressed.times, [0.0, 120.0])
        np.testing.assert_array_equal(compressed.prices, [1.0, 2.0])

    def test_minutely_then_compress_roundtrip(self):
        trace = simple_trace()
        # Use 1-minute-aligned records so the grid can represent them.
        aligned = PriceTrace("x", np.array([0.0, 120.0, 240.0]), np.array([1.0, 2.0, 0.5]))
        roundtrip = aligned.to_minutely(0.0, 300.0).compress()
        np.testing.assert_array_equal(roundtrip.times, aligned.times)
        np.testing.assert_array_equal(roundtrip.prices, aligned.prices)
        assert trace.max_price_in(0, 300) == 2.0  # original untouched


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    gaps = draw(
        st.lists(st.floats(min_value=0.5, max_value=500.0), min_size=n, max_size=n)
    )
    times = np.cumsum(np.asarray(gaps))
    prices = np.asarray(
        draw(st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=n, max_size=n))
    )
    return PriceTrace("prop", times, prices)


class TestTraceProperties:
    @given(traces(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_mean_price_bounded_by_min_max(self, trace, frac):
        start = trace.start
        end = trace.end if trace.end > trace.start else trace.start + 1.0
        mid = start + frac * (end - start)
        if mid <= start:
            mid = start + 0.1
        mean = trace.mean_price_in(start, mid)
        assert trace.prices.min() - 1e-9 <= mean <= trace.prices.max() + 1e-9

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_first_time_above_consistent_with_max(self, trace):
        start, end = trace.start, trace.end + HOUR
        threshold = float(np.median(trace.prices))
        hit = trace.first_time_above(threshold, start, end)
        if hit is None:
            assert trace.max_price_in(start, end) <= threshold
        else:
            assert trace.price_at(hit) > threshold

    @given(traces())
    @settings(max_examples=60, deadline=None)
    def test_compress_preserves_price_function(self, trace):
        compressed = trace.compress()
        probes = np.linspace(trace.start, trace.end + 100.0, 50)
        np.testing.assert_array_equal(
            trace.price_at_many(probes), compressed.price_at_many(probes)
        )


# The lookups as they read before they called ``ndarray.searchsorted``
# directly, cached the trace's bounds and filled ``mean_price_in``'s
# boundary vector in place: the oracle the current lookups must equal
# bit for bit.
def _index_at_oracle(trace, t):
    if t < float(trace.times[0]):
        raise ValueError(f"query at {t} precedes first record")
    return int(np.searchsorted(trace.times, t, side="right") - 1)


def _price_at_oracle(trace, t):
    return float(trace.prices[_index_at_oracle(trace, t)])


def _changes_in_oracle(trace, start, end):
    if end < start:
        raise ValueError(f"empty window: ({start}, {end}]")
    lo = np.searchsorted(trace.times, start, side="right")
    hi = np.searchsorted(trace.times, end, side="right")
    return int(hi - lo)


def _mean_price_in_oracle(trace, start, end):
    if end <= start:
        return _price_at_oracle(trace, start)
    lo = _index_at_oracle(trace, start)
    hi = _index_at_oracle(trace, end)
    if lo == hi:
        return float(trace.prices[lo])
    boundaries = np.concatenate(([start], trace.times[lo + 1 : hi + 1], [end]))
    durations = np.diff(boundaries)
    segment_prices = trace.prices[lo : hi + 1]
    return float(np.sum(durations * segment_prices) / (end - start))


def _max_price_in_oracle(trace, start, end):
    lo = _index_at_oracle(trace, start)
    hi = _index_at_oracle(trace, end)
    return float(np.max(trace.prices[lo : hi + 1]))


def _first_time_above_oracle(trace, threshold, start, end):
    if _price_at_oracle(trace, start) > threshold:
        return float(start)
    lo = np.searchsorted(trace.times, start, side="right")
    hi = np.searchsorted(trace.times, end, side="right")
    above = np.nonzero(trace.prices[lo:hi] > threshold)[0]
    if above.size == 0:
        return None
    return float(trace.times[lo + int(above[0])])


def _outcome(lookup, *args):
    """A lookup's result as exact bytes (with its type), or the error
    type it raised."""
    try:
        value = lookup(*args)
    except ValueError:
        return ValueError
    if isinstance(value, float):
        return float, np.float64(value).tobytes()
    return type(value), value


@st.composite
def _lookup_traces(draw):
    """Traces whose record times and prices carry full float precision."""
    n = draw(st.integers(min_value=1, max_value=40))
    origin = draw(st.floats(min_value=-1e6, max_value=1e6))
    gaps = draw(st.lists(st.floats(min_value=1e-3, max_value=900.0), min_size=n, max_size=n))
    times = origin + np.cumsum(np.asarray(gaps))
    assume(np.all(np.diff(times) > 0))
    prices = draw(st.lists(st.floats(min_value=1e-4, max_value=100.0), min_size=n, max_size=n))
    return PriceTrace("prop", times, np.asarray(prices))


def _point(data, trace):
    """A query time: a record time, the start or end, a point inside a
    segment, or anywhere from before the start to past the end."""
    times = trace.times
    kind = data.draw(st.sampled_from(["record", "start", "end", "inside", "any"]))
    if kind == "record":
        return float(data.draw(st.sampled_from(list(times))))
    if kind == "start":
        return trace.start
    if kind == "end":
        return trace.end
    if kind == "inside":
        index = data.draw(st.integers(min_value=0, max_value=len(times) - 1))
        right = times[index + 1] if index + 1 < len(times) else times[index] + 100.0
        return float(times[index] + (right - times[index]) * data.draw(st.floats(0.0, 0.999)))
    return data.draw(st.floats(min_value=trace.start - 50.0, max_value=trace.end + HOUR))


class TestLookupsMatchOracle:
    @given(trace=_lookup_traces(), data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_bit_for_bit(self, trace, data):
        """Windows that start and end in one segment (``lo == hi``), on
        record times, at the trace's start and end, reversed, and
        before the first record."""
        start = _point(data, trace)
        shape = data.draw(st.sampled_from(["any", "same_segment", "empty", "reversed"]))
        if shape == "same_segment":
            index = int(np.searchsorted(trace.times, start, side="right")) - 1
            right = trace.times[index + 1] if 0 <= index < len(trace) - 1 else start + 100.0
            end = float(start + (right - start) * data.draw(st.floats(0.0, 0.999)))
        elif shape == "empty":
            end = start
        else:
            end = _point(data, trace)
            if (shape == "reversed") != (end < start):
                start, end = end, start
        threshold = data.draw(
            st.one_of(
                st.sampled_from([float(price) for price in trace.prices]),
                st.floats(min_value=1e-4, max_value=100.0),
            )
        )
        assert trace.start == float(trace.times[0])
        assert trace.end == float(trace.times[-1])
        pairs = [
            (trace.price_at, _price_at_oracle, (start,)),
            (trace.price_at, _price_at_oracle, (end,)),
            (trace.changes_in, _changes_in_oracle, (start, end)),
            (trace.mean_price_in, _mean_price_in_oracle, (start, end)),
            (trace.max_price_in, _max_price_in_oracle, (start, end)),
            (trace.first_time_above, _first_time_above_oracle, (threshold, start, end)),
        ]
        for lookup, oracle, args in pairs:
            expected = _outcome(lambda *a: oracle(trace, *a), *args)
            assert _outcome(lookup, *args) == expected, (lookup.__name__, args)
