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
from repro.market.trace import HOUR
from repro.revpred.calibration import OddsCorrection

#: Memoised history embeddings per market predictor before the memo
#: resets; each entry is an (lstm_hidden,) float64 row, so even the cap
#: costs only a few megabytes.
_EMBEDDING_CACHE_MAX = 8192


class RevocationPredictor(Protocol):
    """Anything that estimates P(revoked within an hour | I, b, t)."""

    def probability(self, instance: InstanceType, t: float, max_price: float) -> float:
        ...


def score_queries(
    predictor: RevocationPredictor, queries: list[tuple[InstanceType, float, float]]
) -> list[float]:
    """``probability(*query)`` for each query, in order: one
    ``probability_many`` call when the predictor has that batch entry
    point, one ``probability`` call per query otherwise."""
    score_many = getattr(predictor, "probability_many", None)
    if score_many is not None:
        return score_many(queries)
    return [predictor.probability(*query) for query in queries]


@dataclass
class MarketPredictor:
    """Trained model + odds correction + feature source for one market."""

    model: object
    correction: OddsCorrection
    extractor: FeatureExtractor
    #: History embeddings keyed by exact sample time.  RevPred's LSTM
    #: branch sees only the history window — never the candidate max
    #: price — so every max-price query at one time shares one
    #: embedding.  Filled only for split models (RevPred's
    #: ``proba_split_stacked``).
    _embedding_cache: dict[float, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )


@dataclass
class PredictorBank:
    """Per-market predictors addressed by instance type."""

    predictors: dict[str, MarketPredictor]

    def probability(self, instance: InstanceType, t: float, max_price: float) -> float:
        return self.probability_many([(instance, t, max_price)])[0]

    def probability_many(
        self, queries: Iterable[tuple[InstanceType, float, float]]
    ) -> list[float]:
        """Score queries on any markets in one stacked pass.

        Each query runs through its own market's model, one row per
        query, and row q equals a one-query call bit for bit: the
        stacked matmuls run one GEMV per row, the kernel a one-row pass
        calls (see :func:`repro.nn.lstm.infer_stacked`).  RevPred first
        runs the history embeddings missing from the markets' memos,
        one per (market, time), then every query's present MLP and
        head; Tributary runs each query's whole sequence, since its max
        price enters every record.
        """
        queries = list(queries)
        markets = [self._market(instance) for instance, _, _ in queries]
        if not queries:
            return []
        model_type = type(markets[0].model)
        models = [market.model for market in markets]
        if hasattr(model_type, "proba_split_stacked"):
            embeddings = self._history_embeddings(model_type, queries)
            present = np.array(
                [
                    market.extractor.present_record(t, max_price).features
                    for market, (_, t, max_price) in zip(markets, queries)
                ]
            )
            p_hat = model_type.proba_split_stacked(models, embeddings, present)
        else:
            samples = [
                market.extractor.window_sample(t, max_price)
                for market, (_, t, max_price) in zip(markets, queries)
            ]
            p_hat = model_type.infer_proba_stacked(
                models,
                np.array([history for history, _ in samples]),
                np.array([present for _, present in samples]),
            )
        return [
            float(market.correction.apply(float(p)))
            for market, p in zip(markets, p_hat)
        ]

    def _market(self, instance: InstanceType) -> MarketPredictor:
        if instance.name not in self.predictors:
            known = ", ".join(sorted(self.predictors))
            raise KeyError(f"no predictor for {instance.name!r}; have: {known}")
        return self.predictors[instance.name]

    def _history_embeddings(self, model_type, queries) -> np.ndarray:
        """(Q, lstm_hidden): each query's history embedding; the ones
        missing from the markets' memos run in one stacked LSTM pass."""
        embeddings: dict[tuple[str, float], np.ndarray | None] = {}
        for instance, t, _ in queries:
            key = (instance.name, t)
            if key not in embeddings:
                embeddings[key] = self.predictors[instance.name]._embedding_cache.get(t)
        missing = [key for key, embedding in embeddings.items() if embedding is None]
        if missing:
            markets = [self.predictors[name] for name, _ in missing]
            histories = [
                market.extractor.history_matrix(t)
                for market, (_, t) in zip(markets, missing)
            ]
            fresh = np.ascontiguousarray(
                model_type.history_embedding_stacked(
                    [market.model for market in markets], np.array(histories)
                )
            )
            for market, key, embedding in zip(markets, missing, fresh):
                memo = market._embedding_cache
                if len(memo) >= _EMBEDDING_CACHE_MAX:
                    memo.clear()
                memo[key[1]] = embeddings[key] = embedding
        return np.array([embeddings[(instance.name, t)] for instance, t, _ in queries])

    def __contains__(self, name: str) -> bool:
        return name in self.predictors


#: Memoised peak prices per oracle before the memo resets; each entry
#: is one float per (market, time).
_PEAK_CACHE_MAX = 1 << 16


@dataclass
class OraclePredictor:
    """Perfect foresight from the replayed trace (ablation reference).

    A query is revoked exactly when the peak market price over
    ``[t, min(t + horizon, trace end)]`` exceeds its max price (the
    strict ``>`` of :func:`will_be_revoked`).  The peak is a pure
    function of (market, t), so it is memoised per oracle and every
    max price drawn at one instant shares it; ``ExperimentContext``
    keeps one oracle per context, so all of a seed's cells share the
    memo.
    """

    dataset: SpotPriceDataset
    horizon: float = HOUR
    _peaks: dict[tuple[str, float], float] = field(
        default_factory=dict, repr=False, compare=False
    )

    def probability(self, instance: InstanceType, t: float, max_price: float) -> float:
        key = (instance.name, t)
        peak = self._peaks.get(key)
        if peak is None:
            trace = self.dataset[instance.name]
            # Clamped below at t, as will_be_revoked's window is: past
            # the trace end only the price at t counts.
            peak = trace.max_price_in(t, max(t, min(t + self.horizon, trace.end)))
            if len(self._peaks) >= _PEAK_CACHE_MAX:
                self._peaks.clear()
            self._peaks[key] = peak
        return 1.0 if peak > max_price else 0.0


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
        return self.probability_many([(instance, t, max_price)])[0]

    def probability_many(
        self, queries: Iterable[tuple[InstanceType, float, float]]
    ) -> list[float]:
        """Score a poll tick's queries; the misses go to the inner
        predictor in one call.

        Equivalent to one :meth:`probability` call per query, in order.
        A key rounds the max price, but its value is computed from the
        unrounded price of the first query that names it, within this
        call or any earlier one, so two prices sharing a key return
        whichever came first.  The inner query is at the midpoint of
        the key's time bucket.  A :class:`PredictorBank` scores all the
        misses in one stacked pass, bitwise equal to scoring them one
        by one; any other inner predictor is asked per query.
        """
        keys = []
        misses: dict[tuple[str, int, float], tuple[InstanceType, float, float]] = {}
        for instance, t, max_price in queries:
            key = (
                instance.name,
                int(t // self.time_quantum),
                round(max_price, self.price_decimals),
            )
            keys.append(key)
            if key not in self._cache and key not in misses:
                misses[key] = (instance, (key[1] + 0.5) * self.time_quantum, max_price)
        if misses:
            values = score_queries(self.inner, list(misses.values()))
            self._cache.update(zip(misses, values))
        return [self._cache[key] for key in keys]

    @property
    def cache_size(self) -> int:
        return len(self._cache)
