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

The orchestrator asks once per poll tick, for every job waiting to
deploy at it: :meth:`Provisioner.get_best_instances` draws all their
deltas at once, scores the jobs x pool candidates in one predictor
call, and computes both equations on ``(jobs, pool)`` arrays.  Each
job's decision is exactly the one a call for that job alone, in job
order, would make.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.instance import InstanceType
from repro.cloud.provider import SimCloudProvider
from repro.core.perf_matrix import PerformanceMatrix
from repro.revpred.predictor import RevocationPredictor, score_queries
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
        """The instance with the lowest expected step cost right now."""
        return self.get_best_instances([hp_id], t)[0]

    def get_best_instances(self, hp_ids: list[str], t: float) -> list[ProvisionDecision]:
        """One decision per job in ``hp_ids``, scored in one pass.

        Equal, field for field and draw for draw, to one
        :meth:`get_best_instance` call per job in order: (1) the market
        quotes (memoised per instant) and one ``(J, N)`` max-price delta
        draw, which takes the same values as J x N scalar draws in
        job-then-pool order; (2) one :func:`score_queries` call over the
        J x N candidates in that order (a caching predictor's first
        query of a key still fixes its value, and a predictor bank
        scores the misses in one stacked pass); (3) Equations 1 and 2
        on float64 ``(J, N)`` arrays, the same expression per element
        as a scalar loop, and the first minimum of each row, which a
        strict-``<`` scan in pool order picks.
        """
        market = self._market_quotes()
        current_prices = np.array([current for _, current, _ in market])
        average_prices = np.array([average for _, _, average in market])
        max_prices = current_prices + self.rng.uniform(
            self.delta_low, self.delta_high, size=(len(hp_ids), len(self.pool))
        )
        max_price_rows = max_prices.tolist()
        queries = [
            (instance, t, max_price)
            for row in max_price_rows
            for instance, max_price in zip(self.pool, row)
        ]
        probabilities = score_queries(self.predictor, queries)
        probabilities = np.array(probabilities, dtype=float).reshape(max_prices.shape)
        hour_costs = (1.0 - probabilities) * average_prices
        seconds_per_step = np.array(
            [[self.matrix.get(instance, hp_id) for instance in self.pool] for hp_id in hp_ids],
            dtype=float,
        )
        step_costs = seconds_per_step / 3600.0 * hour_costs
        names = [instance.name for instance in self.pool]
        decisions = []
        for row, best in enumerate(step_costs.argmin(axis=1).tolist()):
            step_cost_row = step_costs[row].tolist()
            decisions.append(
                ProvisionDecision(
                    instance=self.pool[best],
                    max_price=max_price_rows[row][best],
                    revocation_probability=float(probabilities[row, best]),
                    expected_hour_cost=float(hour_costs[row, best]),
                    step_cost=step_cost_row[best],
                    candidates=dict(zip(names, step_cost_row)),
                )
            )
        return decisions
