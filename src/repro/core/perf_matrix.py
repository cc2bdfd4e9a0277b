"""The online performance matrix M (paper §III-A).

``M[instance][hp]`` records how many seconds one training step of HP
configuration ``hp`` takes on ``instance``.  Entries are initialised
to ``C0 * instance.CPUs`` (Algorithm 1 line 12) and updated online
from observed progress (line 36).  Because a job's computation pattern
is steady across iterations (COV < 0.1, §IV-A5), a running mean of the
observed segment speeds converges quickly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.instance import InstanceType


@dataclass
class PerformanceMatrix:
    """Seconds-per-step estimates keyed by (instance, HP id)."""

    c0: float
    _means: dict[tuple[str, str], float] = field(default_factory=dict)
    _counts: dict[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.c0 <= 0:
            raise ValueError(f"C0 must be positive: {self.c0}")

    def initial_value(self, instance: InstanceType) -> float:
        """Algorithm 1's default: C0 * instance.CPUs."""
        return self.c0 * instance.cpus

    def get(self, instance: InstanceType, hp_id: str) -> float:
        """Current estimate, falling back to the C0 initialisation."""
        return self._means.get((instance.name, hp_id), self.initial_value(instance))

    def update(self, instance: InstanceType, hp_id: str, seconds_per_step: float) -> None:
        """Fold one observation into the running mean."""
        if seconds_per_step <= 0:
            raise ValueError(f"seconds per step must be positive: {seconds_per_step}")
        key = (instance.name, hp_id)
        count = self._counts.get(key, 0)
        if count == 0:
            self._means[key] = seconds_per_step
        else:
            self._means[key] += (seconds_per_step - self._means[key]) / (count + 1)
        self._counts[key] = count + 1

    def update_repeated(
        self, instance: InstanceType, hp_id: str, seconds_per_step: float, times: int
    ) -> None:
        """Fold the same observation in ``times`` times; the count and
        mean come out exactly as after ``times`` calls to :meth:`update`.
        Once the mean equals the observation, further updates leave it
        unchanged, so only the count moves."""
        if times <= 0:
            return
        if seconds_per_step <= 0:
            raise ValueError(f"seconds per step must be positive: {seconds_per_step}")
        key = (instance.name, hp_id)
        count = self._counts.get(key, 0)
        mean = self._means[key] if count else seconds_per_step
        if not count:
            count, times = 1, times - 1
        while times and mean != seconds_per_step:
            mean += (seconds_per_step - mean) / (count + 1)
            count, times = count + 1, times - 1
        self._means[key] = mean
        self._counts[key] = count + times

    def observation_count(self, instance: InstanceType, hp_id: str) -> int:
        return self._counts.get((instance.name, hp_id), 0)

    def observed_entries(self) -> int:
        """Number of (instance, hp) cells with at least one observation."""
        return len(self._means)
