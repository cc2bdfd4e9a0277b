"""Spot price traces.

A :class:`PriceTrace` is a right-continuous step function: record
``(t_i, p_i)`` means the market price becomes ``p_i`` at ``t_i`` and
holds until the next record.  The paper's source dataset is sparse
(records only on change, at irregular intervals); the paper preprocesses
it by "interpolating values between records, making the timestamp
interval between adjacent records fixed at 1 minute" — that operation is
:meth:`PriceTrace.to_minutely`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MINUTE = 60.0
HOUR = 3600.0


@dataclass
class PriceTrace:
    """An immutable spot-price history for one instance market.

    Attributes:
        instance_type: Market name, e.g. ``"r3.xlarge"``.
        times: Strictly increasing record timestamps (seconds).
        prices: Price in effect from the matching timestamp onward.
    """

    instance_type: str
    times: np.ndarray
    prices: np.ndarray
    region: str = field(default="us-east-1")

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.prices = np.asarray(self.prices, dtype=float)
        if self.times.ndim != 1 or self.prices.ndim != 1:
            raise ValueError("times and prices must be one-dimensional")
        if len(self.times) != len(self.prices):
            raise ValueError(
                f"length mismatch: {len(self.times)} times vs {len(self.prices)} prices"
            )
        if len(self.times) == 0:
            raise ValueError("a price trace requires at least one record")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("record timestamps must be strictly increasing")
        if np.any(self.prices <= 0):
            raise ValueError("spot prices must be positive")
        # Every lookup checks against the bounds, so they are Python
        # floats read once here rather than array items read per call.
        self._start = float(self.times[0])
        self._end = float(self.times[-1])

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def start(self) -> float:
        """Timestamp of the first record."""
        return self._start

    @property
    def end(self) -> float:
        """Timestamp of the last record."""
        return self._end

    def __len__(self) -> int:
        return len(self.times)

    def _index_at(self, t: float) -> int:
        if t < self._start:
            raise ValueError(
                f"{self.instance_type}: query at {t} precedes first record {self._start}"
            )
        return int(self.times.searchsorted(t, side="right")) - 1

    def price_at(self, t: float) -> float:
        """Market price in effect at time ``t``."""
        return float(self.prices[self._index_at(t)])

    def price_at_many(self, ts: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`price_at`."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and ts.min() < self.start:
            raise ValueError(f"{self.instance_type}: query precedes first record")
        idx = np.searchsorted(self.times, ts, side="right") - 1
        return self.prices[idx]

    def last_change_time(self, t: float) -> float:
        """Timestamp at which the price in effect at ``t`` was set."""
        return float(self.times[self._index_at(t)])

    def changes_in(self, start: float, end: float) -> int:
        """Number of price-change records in the half-open window
        ``(start, end]``."""
        if end < start:
            raise ValueError(f"empty window: ({start}, {end}]")
        lo = self.times.searchsorted(start, side="right")
        hi = self.times.searchsorted(end, side="right")
        return int(hi - lo)

    def mean_price_in(self, start: float, end: float) -> float:
        """Time-weighted average price over ``[start, end]``."""
        if end <= start:
            return self.price_at(start)
        lo = self._index_at(start)
        hi = self._index_at(end)
        if lo == hi:
            return float(self.prices[lo])
        # [start, the records inside, end], filled in place; its
        # differences are the segments' durations.
        count = hi - lo + 1
        boundaries = np.empty(count + 1)
        boundaries[0] = start
        boundaries[1:count] = self.times[lo + 1 : hi + 1]
        boundaries[count] = end
        durations = boundaries[1:] - boundaries[:-1]
        durations *= self.prices[lo : hi + 1]
        return float(durations.sum() / (end - start))

    def max_price_in(self, start: float, end: float) -> float:
        """Maximum price in effect anywhere in ``[start, end]``."""
        lo = self._index_at(start)
        hi = self._index_at(end)
        return float(self.prices[lo : hi + 1].max())

    def first_time_above(self, threshold: float, start: float, end: float) -> float | None:
        """Earliest time in ``[start, end]`` at which the market price
        strictly exceeds ``threshold``, or ``None`` if it never does.

        This is the revocation test: a spot VM with maximum price
        ``threshold`` launched at ``start`` is revoked at the returned
        instant (AWS revokes once market price > maximum price).
        """
        if self.price_at(start) > threshold:
            return float(start)
        lo = int(self.times.searchsorted(start, side="right"))
        hi = int(self.times.searchsorted(end, side="right"))
        above = (self.prices[lo:hi] > threshold).nonzero()[0]
        if above.size == 0:
            return None
        return float(self.times[lo + int(above[0])])

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def window(self, start: float, end: float) -> "PriceTrace":
        """Sub-trace covering ``[start, end]``, anchored with a record at
        ``start`` carrying the price then in effect."""
        if end <= start:
            raise ValueError(f"empty window: [{start}, {end}]")
        lo = self._index_at(start)
        hi = np.searchsorted(self.times, end, side="right")
        times = self.times[lo:hi].copy()
        prices = self.prices[lo:hi].copy()
        times[0] = start
        return PriceTrace(self.instance_type, times, prices, self.region)

    def to_minutely(self, start: float | None = None, end: float | None = None) -> "PriceTrace":
        """Resample onto a fixed 1-minute grid (forward-fill), the
        paper's preprocessing of the sparse Kaggle records (§IV-A1)."""
        start = self.start if start is None else float(start)
        end = self.end if end is None else float(end)
        if end <= start:
            raise ValueError(f"empty resample window: [{start}, {end}]")
        grid = np.arange(start, end + MINUTE / 2, MINUTE)
        return PriceTrace(self.instance_type, grid, self.price_at_many(grid), self.region)

    def compress(self) -> "PriceTrace":
        """Drop records that do not change the price (inverse of
        :meth:`to_minutely` up to grid alignment)."""
        keep = np.ones(len(self.times), dtype=bool)
        keep[1:] = self.prices[1:] != self.prices[:-1]
        return PriceTrace(self.instance_type, self.times[keep], self.prices[keep], self.region)

    def __repr__(self) -> str:
        return (
            f"PriceTrace({self.instance_type!r}, records={len(self)}, "
            f"span=[{self.start:.0f}, {self.end:.0f}]s)"
        )
