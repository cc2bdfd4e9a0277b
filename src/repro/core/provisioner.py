"""Fine-grained cost-aware resource provisioning (paper §III-A).

For each candidate instance the Provisioner draws a max price slightly
above the current market price (uniform delta, Algorithm 1 line 4),
asks RevPred for the revocation probability p, and computes

    E[eCost] = (1 - p) * price * 1 hour          (Equation 1)
    E[sCost] = M[inst][hp] * (1 - p) * price     (Equation 2)

where ``price`` is the instance's average market price over the last
hour (Equation 1's definition; Algorithm 1's pseudocode reuses the
variable name for the max price, but the equations govern).  The
expected cost is zero when revoked within the hour because of the
first-instance-hour refund — which is why SpotTune *favours* instances
likely to be revoked.  The job deploys on the argmin step-cost
instance with the drawn max price.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.instance import InstanceType
from repro.cloud.provider import SimCloudProvider
from repro.core.perf_matrix import PerformanceMatrix
from repro.revpred.predictor import RevocationPredictor
from repro.sim.rng import RngStream


@dataclass(frozen=True)
class ProvisionDecision:
    """The chosen instance and the economics behind the choice."""

    instance: InstanceType
    max_price: float
    revocation_probability: float
    expected_hour_cost: float  # Equation 1
    step_cost: float  # Equation 2
    candidates: dict[str, float]  # step cost per considered instance


class Provisioner:
    """Implements getBestInst (Algorithm 1 lines 1-9)."""

    def __init__(
        self,
        pool: tuple[InstanceType, ...],
        predictor: RevocationPredictor,
        matrix: PerformanceMatrix,
        provider: SimCloudProvider,
        rng: RngStream,
        delta_low: float = 0.00001,
        delta_high: float = 0.2,
    ) -> None:
        if not pool:
            raise ValueError("instance pool is empty")
        if not 0 < delta_low <= delta_high:
            raise ValueError(f"invalid delta interval: [{delta_low}, {delta_high}]")
        self.pool = pool
        self.predictor = predictor
        self.matrix = matrix
        self.provider = provider
        self.rng = rng
        self.delta_low = delta_low
        self.delta_high = delta_high
        self._quoted_at: float | None = None
        self._quotes: list[tuple[InstanceType, float, float]] = []

    def _market_quotes(self) -> list[tuple[InstanceType, float, float]]:
        """(instance, current price, mean price over the last hour) for
        the pool.  Both prices are pure in (trace, now), so they are
        quoted once per simulated instant and shared by every decision
        made at it (several jobs often deploy in the same poll tick)."""
        now = self.provider.sim.now
        if now != self._quoted_at:
            self._quotes = [
                (
                    instance,
                    self.provider.current_price(instance),
                    self.provider.mean_price_last_hour(instance),
                )
                for instance in self.pool
            ]
            self._quoted_at = now
        return self._quotes

    def get_best_instance(self, hp_id: str, t: float) -> ProvisionDecision:
        """The instance with the lowest expected step cost right now.

        Runs in three phases so the revocation probabilities for the
        whole pool are scored as one batched pass per decision: (1) the
        market quotes (memoised per instant) plus the sequential
        max-price delta draws (the draw order is part of the
        orchestrator's rng stream and must stay in pool order), (2) one
        ``probability_many`` call over all candidates (a predictor bank
        scores the cache misses in one stacked pass, see
        CachingPredictor), (3) the Equation 1/2 economics and the
        strict-``<`` argmin in pool order.  Every phase computes exactly
        what the fused per-instance loop computed, so decisions are
        bitwise-identical.
        """
        market = self._market_quotes()
        quotes: list[tuple[InstanceType, float]] = []
        for instance, current_price, _ in market:
            delta = float(self.rng.uniform(self.delta_low, self.delta_high))
            quotes.append((instance, current_price + delta))
        probability_many = getattr(self.predictor, "probability_many", None)
        if probability_many is not None:
            probabilities = probability_many(
                [(instance, t, max_price) for instance, max_price in quotes]
            )
        else:
            probabilities = [
                self.predictor.probability(instance, t, max_price)
                for instance, max_price in quotes
            ]
        best: ProvisionDecision | None = None
        candidates: dict[str, float] = {}
        for (instance, max_price), probability, (_, _, average_price) in zip(
            quotes, probabilities, market
        ):
            expected_hour_cost = (1.0 - probability) * average_price
            step_cost = self.matrix.get(instance, hp_id) / 3600.0 * expected_hour_cost
            candidates[instance.name] = step_cost
            if best is None or step_cost < best.step_cost:
                best = ProvisionDecision(
                    instance=instance,
                    max_price=max_price,
                    revocation_probability=probability,
                    expected_hour_cost=expected_hour_cost,
                    step_cost=step_cost,
                    candidates={},
                )
        assert best is not None
        return ProvisionDecision(
            instance=best.instance,
            max_price=best.max_price,
            revocation_probability=best.revocation_probability,
            expected_hour_cost=best.expected_hour_cost,
            step_cost=best.step_cost,
            candidates=candidates,
        )
