"""Per-instance training speed model (paper Fig. 6 and §IV-A5).

The paper profiles seconds-per-step of every (instance, HP) pair and
observes two facts this model reproduces:

1. price does not buy speed linearly — throughput grows sublinearly in
   vCPUs (``cpus**0.7``) and differs by instance generation (the older
   r3 generation underperforms r4/m4 at equal core count), so e.g.
   r3.xlarge costs more than r4.xlarge but trains slower;
2. the step time of a fixed (instance, HP) pair is stable across steps
   — coefficient of variation under 0.1 — which is what makes the
   online performance matrix M practical.

Hyper-parameters also shape step time: batch size scales the work per
step, tree depth / network depth multiply it, and the RBF kernel's
feature lift costs extra over the linear kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.instance import InstanceType
from repro.sim.rng import RngStream
from repro.workloads.spec import WorkloadSpec, config_id

#: Relative efficiency by instance family (generation effects).
GENERATION_FACTORS = {"r3": 0.72, "r4": 1.0, "m4": 0.95, "t2": 0.55}

#: Default step-time coefficient of variation (paper: < 0.1).
DEFAULT_COV = 0.05

#: Memoised segment speed factors per model before the memo resets;
#: each entry is one float per segment stream name.
_FACTOR_CACHE_MAX = 1 << 15


def throughput(instance: InstanceType) -> float:
    """Relative training throughput of an instance (1.0 reference).

    The 0.6 scaling exponent reproduces the paper's measured speed
    spread (Fig. 6): the 16-core m4.4xlarge trains roughly 3.3x faster
    than the 2-core r4.large, far below linear-in-cores and far below
    the price spread.
    """
    family = instance.name.split(".")[0]
    generation = GENERATION_FACTORS.get(family, 0.9)
    return generation * instance.cpus**0.6


def hp_time_multiplier(config: dict) -> float:
    """Work-per-step multiplier from the hyper-parameters."""
    multiplier = 1.0
    if "bs" in config:
        multiplier *= float(config["bs"]) / 64.0
    if "depth" in config:
        multiplier *= 0.7 + 0.05 * float(config["depth"])
    if "kernel" in config:
        multiplier *= 1.3 if config["kernel"] == "rbf" else 1.0
    if "version" in config:
        multiplier *= 1.15 if int(config["version"]) == 2 else 1.0
    return multiplier


@dataclass
class SpeedModel:
    """Ground-truth seconds-per-step with per-step noise.

    ``seconds_per_step`` is the stable mean; ``sample_segment_speed``
    draws the realised speed of one VM deployment segment (lognormal,
    COV ≈ ``cov``), modelling the small run-to-run variation the
    paper's profiling observes.  A segment's lognormal factor is the
    first draw of a stream forked by the segment's name, so the model
    memoises it per name.
    """

    seed: int = 0
    cov: float = DEFAULT_COV

    def __post_init__(self) -> None:
        if not 0.0 <= self.cov < 0.5:
            raise ValueError(f"cov must be in [0, 0.5): {self.cov}")
        self._rng = RngStream(self.seed, "speed")
        self._factors: dict[str, float] = {}

    def seconds_per_step(
        self, instance: InstanceType, workload: WorkloadSpec, config: dict
    ) -> float:
        """Mean seconds per training step of a trial on an instance."""
        return (
            workload.base_seconds_per_step
            * hp_time_multiplier(config)
            / throughput(instance)
        )

    def sample_segment_speed(
        self,
        instance: InstanceType,
        workload: WorkloadSpec,
        config: dict,
        segment_index: int,
    ) -> float:
        """Realised seconds-per-step of one deployment segment."""
        mean = self.seconds_per_step(instance, workload, config)
        name = f"{workload.name}/{config_id(config)}/{instance.name}/{segment_index}"
        factor = self._factors.get(name)
        if factor is None:
            sigma = np.sqrt(np.log(1.0 + self.cov**2))
            factor = self._rng.fork(name).generator.lognormal(-(sigma**2) / 2.0, sigma)
            if len(self._factors) >= _FACTOR_CACHE_MAX:
                self._factors.clear()
            self._factors[name] = factor
        return float(mean * factor)

    def profile(
        self, instances: list[InstanceType], workload: WorkloadSpec, config: dict
    ) -> dict[str, float]:
        """Mean seconds-per-step across a pool (the Fig. 6 series)."""
        return {
            instance.name: self.seconds_per_step(instance, workload, config)
            for instance in instances
        }
