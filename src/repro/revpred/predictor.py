"""Inference interfaces the Provisioner consumes.

The Provisioner's contract is ``probability(instance, t, max_price)``
— the chance the market revokes such an instance within the next hour.
Implementations:

* :class:`PredictorBank` — one trained model per market (production
  path, used for the paper's main results);
* :class:`OraclePredictor` — reads the future of the replayed trace;
  the upper bound for ablations;
* :class:`ConstantPredictor` — fixed probability; p=0 reproduces the
  degenerate "stable markets" scenario of paper §V-A where SpotTune
  just picks the lowest step cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol

import numpy as np

from repro.cloud.instance import InstanceType
from repro.market.dataset import SpotPriceDataset
from repro.market.features import FeatureExtractor
from repro.market.labeling import will_be_revoked
from repro.market.trace import HOUR
from repro.revpred.calibration import OddsCorrection

#: Memoised history embeddings per market predictor before the memo
#: resets; each entry is a (1, lstm_hidden) float64 array, so even the
#: cap costs only a few megabytes.
_EMBEDDING_CACHE_MAX = 8192


class RevocationPredictor(Protocol):
    """Anything that estimates P(revoked within an hour | I, b, t)."""

    def probability(self, instance: InstanceType, t: float, max_price: float) -> float:
        ...


@dataclass
class MarketPredictor:
    """Trained model + odds correction + feature source for one market."""

    model: object
    correction: OddsCorrection
    extractor: FeatureExtractor
    #: History embeddings keyed by exact sample time.  RevPred's LSTM
    #: branch sees only the history window — never the candidate max
    #: price — so every max-price query at one time shares one
    #: embedding.  Populated only for models exposing the split
    #: inference API (``history_embedding``/``predict_proba_split``).
    _embedding_cache: dict[float, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )

    def probability(self, t: float, max_price: float) -> float:
        model = self.model
        if hasattr(model, "predict_proba_split"):
            # Two-branch split path: amortise the LSTM over every
            # max-price query at this sample time.  Bitwise-identical
            # to the full forward — the split evaluates the same
            # operations in the same order, and a memo hit returns the
            # identical embedding array.
            embedding = self._embedding_cache.get(t)
            if embedding is None:
                history = self.extractor.history_matrix(t)
                embedding = model.history_embedding(history[None])
                if len(self._embedding_cache) >= _EMBEDDING_CACHE_MAX:
                    self._embedding_cache.clear()
                self._embedding_cache[t] = embedding
            present = self.extractor.present_record(t, max_price).features
            p_hat = float(model.predict_proba_split(embedding, present[None])[0])
        elif hasattr(model, "infer_proba"):
            # Single-stream models (Tributary): no price-independent
            # prefix to memoise, but inference still skips BPTT caches.
            history, present = self.extractor.window_sample(t, max_price)
            p_hat = float(model.infer_proba(history[None], present[None])[0])
        else:
            history, present = self.extractor.window_sample(t, max_price)
            p_hat = float(model.predict_proba(history[None], present[None])[0])
        return float(self.correction.apply(p_hat))


@dataclass
class PredictorBank:
    """Per-market predictors addressed by instance type."""

    predictors: dict[str, MarketPredictor]

    def probability(self, instance: InstanceType, t: float, max_price: float) -> float:
        if instance.name not in self.predictors:
            known = ", ".join(sorted(self.predictors))
            raise KeyError(f"no predictor for {instance.name!r}; have: {known}")
        return self.predictors[instance.name].probability(t, max_price)

    def __contains__(self, name: str) -> bool:
        return name in self.predictors


@dataclass
class OraclePredictor:
    """Perfect foresight from the replayed trace (ablation reference)."""

    dataset: SpotPriceDataset
    horizon: float = HOUR

    def probability(self, instance: InstanceType, t: float, max_price: float) -> float:
        trace = self.dataset[instance.name]
        return 1.0 if will_be_revoked(trace, t, max_price, self.horizon) else 0.0


@dataclass(frozen=True)
class ConstantPredictor:
    """Fixed revocation probability for every query."""

    value: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"probability must be in [0, 1]: {self.value}")

    def probability(self, instance: InstanceType, t: float, max_price: float) -> float:
        return self.value


@dataclass
class CachingPredictor:
    """Memoising wrapper around any revocation predictor.

    The orchestrator queries the predictor for every pool instance at
    every deployment decision; quantising the query key (time to
    ``time_quantum`` seconds, max price to ``price_decimals``) lets the
    large simulation sweeps reuse LSTM inferences.  The market features
    RevPred consumes move on minute granularity, so a 5-minute quantum
    loses almost nothing.  The first query of a key fixes its value
    (the inner model sees that query's unrounded max price), so a
    cache's results depend on the order of its queries.
    """

    inner: RevocationPredictor
    time_quantum: float = 300.0
    price_decimals: int = 3
    _cache: dict[tuple[str, int, float], float] = field(default_factory=dict)

    def probability(self, instance: InstanceType, t: float, max_price: float) -> float:
        key = (
            instance.name,
            int(t // self.time_quantum),
            round(max_price, self.price_decimals),
        )
        if key not in self._cache:
            quantised_time = (key[1] + 0.5) * self.time_quantum
            self._cache[key] = self.inner.probability(instance, quantised_time, max_price)
        return self._cache[key]

    def probability_many(
        self, queries: Iterable[tuple[InstanceType, float, float]]
    ) -> list[float]:
        """Score a poll tick's pending queries in one pass.

        Equivalent to calling :meth:`probability` per query, in order.
        The order matters: a key rounds the max price, but its value is
        computed from the unrounded price of the first query that fills
        it, so two prices sharing a key return whichever came first.
        The batching is structural, not numeric:
        all queries sharing a (market, time-bucket) reuse one memoised
        history embedding, and only novel keys reach the model at all.
        Cross-query matrix batching is deliberately *not* done — a
        (B, F) GEMM is not bitwise-identical to B GEMV rows under
        OpenBLAS, and the sweep guarantees byte-identical summaries.
        """
        return [
            self.probability(instance, t, max_price)
            for instance, t, max_price in queries
        ]

    @property
    def cache_size(self) -> int:
        return len(self._cache)
