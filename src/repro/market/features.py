"""RevPred's engineered features (paper §III-B).

Each price record contributes six features:

1. current spot market price;
2. average spot market price (time-weighted over the trailing hour);
3. number of price changes in the past hour;
4. time duration since the current spot market price was set;
5. whether the time is in the workdays or not;
6. current hour of the day.

The model input is split in two parts: a history matrix of the past 59
minutes (one six-feature record per minute) feeding the LSTM branch,
and the present record — the six features plus the *maximum price* —
feeding the fully-connected branch.

Prices are normalised by the market's on-demand price, counts by the
60-record window, durations by one hour, and hour-of-day by 23, so all
features are O(1) and the numpy LSTM trains without per-market tuning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.market.trace import HOUR, MINUTE, PriceTrace
from repro.sim.clock import hour_of_day, is_workday

#: Length of the LSTM history window, in minutes (paper: "the history
#: prices across the past 59 minutes").
HISTORY_MINUTES = 59

#: Number of engineered features per record (excluding max price).
NUM_BASE_FEATURES = 6

#: Seconds of trace context needed before a sample time: 59 minutes of
#: history records, whose earliest record needs its own trailing hour.
MIN_CONTEXT_SECONDS = HISTORY_MINUTES * MINUTE + HOUR


@dataclass(frozen=True)
class PresentRecord:
    """The present-time record: six base features plus the max price."""

    features: np.ndarray  # shape (7,)
    time: float
    max_price: float


#: Memoised feature rows per extractor before the memo resets.  History
#: windows at nearby sample times share most of their minute rows (two
#: samples 5 minutes apart share 54 of 59), so inference reuses rows
#: heavily; training sweeps with arbitrary sample times would otherwise
#: grow the memo without bound.
_ROW_CACHE_MAX = 32768


class FeatureExtractor:
    """Computes normalised feature windows from a price trace."""

    def __init__(self, trace: PriceTrace, on_demand_price: float) -> None:
        if on_demand_price <= 0:
            raise ValueError(f"on-demand price must be positive: {on_demand_price}")
        self.trace = trace
        self.on_demand_price = float(on_demand_price)
        #: Feature rows keyed by exact sample time.  The row is a pure
        #: function of (trace, on-demand price, t), so a memo hit is the
        #: identical array — bitwise, not approximately.
        self._row_cache: dict[float, np.ndarray] = {}

    @property
    def earliest_sample_time(self) -> float:
        """First timestamp with enough context for a full feature window."""
        return self.trace.start + MIN_CONTEXT_SECONDS

    def base_features_at(self, t: float) -> np.ndarray:
        """The six engineered features at time ``t`` (normalised)."""
        row = self._row_cache.get(t)
        if row is None:
            trace = self.trace
            scale = self.on_demand_price
            current = trace.price_at(t) / scale
            average = trace.mean_price_in(t - HOUR, t) / scale
            changes = trace.changes_in(t - HOUR, t) / 60.0
            since_set = min(t - trace.last_change_time(t), HOUR) / HOUR
            workday = 1.0 if is_workday(t) else 0.0
            hour = hour_of_day(t) / 23.0
            row = np.array([current, average, changes, since_set, workday, hour])
            row.flags.writeable = False  # shared across memo hits
            if len(self._row_cache) >= _ROW_CACHE_MAX:
                self._row_cache.clear()
            self._row_cache[t] = row
        return row

    def history_matrix(self, t: float) -> np.ndarray:
        """Feature matrix of the past 59 minutes, shape (59, 6).

        Row 0 is the oldest minute (t - 59 min), row 58 the most recent
        full minute before ``t``.
        """
        self._check_context(t)
        minutes = t - MINUTE * np.arange(HISTORY_MINUTES, 0, -1)
        rows = [self.base_features_at(m) for m in minutes]
        return np.array(rows)

    def present_record(self, t: float, max_price: float) -> PresentRecord:
        """The present record at ``t`` with the candidate ``max_price``."""
        if max_price <= 0:
            raise ValueError(f"max price must be positive: {max_price}")
        base = self.base_features_at(t)
        features = np.concatenate([base, [max_price / self.on_demand_price]])
        return PresentRecord(features=features, time=t, max_price=max_price)

    def window_sample(self, t: float, max_price: float) -> tuple[np.ndarray, np.ndarray]:
        """Full model input at ``t``: (history (59, 6), present (7,))."""
        history = self.history_matrix(t)
        present = self.present_record(t, max_price)
        return history, present.features

    def _check_context(self, t: float) -> None:
        if t < self.earliest_sample_time:
            raise ValueError(
                f"sample at {t} lacks context; earliest usable time is "
                f"{self.earliest_sample_time} for this trace"
            )
