"""Trials: one (workload, HP configuration) HPT job.

A :class:`Trial` bundles everything the orchestrator needs about one
job: its id, the workload spec, the HP configuration, and a metric
source.  Metric sources come in two flavours behind one interface:

* :class:`~repro.workloads.curves.SimulatedCurveSource` — precomputed
  parametric curve (the simulation benchmarks);
* :class:`LiveTrainerSource` — a real numpy trainer advanced lazily to
  the requested step (the end-to-end examples).

Every trial also keeps EarlyCurve's table of its metric points
(:meth:`Trial.observation_table`), built on first use and shared by
every run of the trial.  The orchestrator observes metrics only
through it, so a live trainer is trained to max_trial_steps once, when
its table is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.mlalgos.base import IterativeTrainer
from repro.workloads.curves import SimulatedCurveSource, make_curve
from repro.workloads.spec import WorkloadSpec, config_id


class MetricSource(Protocol):
    """Validation metric as a function of training step (1-based)."""

    def metric_at(self, step: int) -> float:
        ...


@dataclass
class LiveTrainerSource:
    """Metric source backed by a real trainer, advanced on demand.

    Steps are advanced lazily and metrics memoised, so the orchestrator
    can query any past step again (e.g. after a restore) without
    retraining.
    """

    trainer: IterativeTrainer
    _metric_cache: dict[int, float] = field(default_factory=dict)

    def metric_at(self, step: int) -> float:
        if step < 1:
            raise ValueError(f"steps are 1-based: {step}")
        if step in self._metric_cache:
            return self._metric_cache[step]
        while self.trainer.step_count < step:
            self.trainer.step()
            metric = self.trainer.validate()
            self._metric_cache[self.trainer.step_count] = metric
        return self._metric_cache[step]

    @property
    def true_final(self) -> float:
        raise AttributeError(
            "a live trainer has no precomputed final metric; run it to the end"
        )


@dataclass
class Trial:
    """One HPT job: a workload configuration plus its metric source."""

    workload: WorkloadSpec
    config: dict
    source: MetricSource
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def trial_id(self) -> str:
        # The id string is immutable but rebuilt-on-access would make
        # it a hot allocation: the orchestrator reads it on every poll
        # of every job.  Memoise the first render.
        cached = self.__dict__.get("_trial_id")
        if cached is None:
            cached = f"{self.workload.name}[{config_id(self.config)}]"
            self.__dict__["_trial_id"] = cached
        return cached

    @property
    def max_trial_steps(self) -> int:
        return self.workload.max_trial_steps

    def metric_at(self, step: int) -> float:
        return self.source.metric_at(step)

    def metrics_at(self, steps) -> list[float]:
        """:meth:`metric_at` at each of ``steps``, in order."""
        return [self.source.metric_at(step) for step in steps]

    def true_final(self) -> float:
        """Ground-truth final metric (simulated sources only)."""
        return self.source.true_final

    def observation_table(self, stride: int):
        """EarlyCurve's :class:`~repro.earlycurve.predictor.ObservationTable`
        of the metric at steps 1, 1 + stride, ... up to max_trial_steps.

        Built on the first call and kept with the trial, so every run of
        the trial shares it and its prediction memo.  A simulated curve
        that covers every step is viewed read-only in place.  Any other
        source (a live trainer, a shorter curve) is read once through
        :meth:`metrics_at` into float64, the values ``observe`` would
        record point by point.
        """
        table = self._tables.get(stride)
        if table is None:
            from repro.earlycurve.predictor import ObservationTable

            last = self.max_trial_steps
            source = self.source
            full_curve = (
                isinstance(source, SimulatedCurveSource)
                and source.curve.max_steps >= last
            )
            if full_curve:
                values = source.curve.values[:last:stride]
            else:
                steps = range(1, last + 1, stride)
                values = np.array(self.metrics_at(steps), dtype=float)
            values.flags.writeable = False
            table = self._tables[stride] = ObservationTable.build(values, stride)
        return table


def make_trials(workload: WorkloadSpec, seed: int = 0) -> list[Trial]:
    """Build simulated trials for every configuration of a workload."""
    trials = []
    for config in workload.configurations():
        curve = make_curve(workload, config, seed=seed)
        trials.append(Trial(workload=workload, config=config, source=SimulatedCurveSource(curve)))
    return trials
