"""Online EarlyCurve predictor and configuration ranking.

The Orchestrator streams (step, metric) points into one
:class:`EarlyCurvePredictor` per HPT job.  The predictor:

* detects plateau convergence before theta * max_trial_steps ("the
  metric curve becomes a plateau, where training is no longer
  meaningful" — §III-C) so converged jobs finish immediately;
* once theta * max_trial_steps points are in, fits the staged model
  and extrapolates the final metric;
* exposes :func:`rank_configurations` for the final top-mcnt selection
  (Algorithm 1, lines 48-53).

A trial's points are fixed in advance (a live trainer's once it has
been read), so an :class:`ObservationTable` holds them once per trial
together with the plateau counter after each point; the orchestrator
then observes a poll tick's points as one slice of the table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.earlycurve.model import CurveFit, StagedCurveModel

#: Plateau detection: this many trailing points, each changing by less
#: than the tolerance, mark convergence.
PLATEAU_WINDOW = 20
PLATEAU_TOLERANCE = 1e-3


class StopReason(enum.Enum):
    THETA_REACHED = "theta_reached"
    CONVERGED = "converged"


@dataclass(frozen=True)
class PredictionOutcome:
    """A final-metric prediction and how it was produced."""

    predicted_final: float
    mode: str  # "extrapolated", "converged", or "observed"
    observed_steps: int
    #: The full staged fit; only the frozen reference predictor fills it.
    fit: Optional[CurveFit] = None


@dataclass(frozen=True)
class ObservationTable:
    """A fixed metric series as :class:`EarlyCurvePredictor` sees it.

    ``values[i]`` is the metric at step ``1 + i * stride``.  After the
    first ``count`` points, :meth:`EarlyCurvePredictor.observe` would
    hold the plateau counter ``plateau_runs[count - 1]``, and
    ``plateau_next[count - 1] + 1`` is the first count at or after it
    where the plateau test holds (``len(values) + 1`` when none does).
    Both use ``PLATEAU_WINDOW`` and ``PLATEAU_TOLERANCE``.  ``predictions``
    memoises :meth:`EarlyCurvePredictor.predict_final` by observed
    count, which decides the observed points and hence the prediction.
    """

    values: np.ndarray
    stride: int
    plateau_runs: np.ndarray
    plateau_next: np.ndarray
    predictions: dict = field(default_factory=dict, compare=False)

    @classmethod
    def build(cls, values: np.ndarray, stride: int) -> "ObservationTable":
        """Tabulate ``values`` (kept as given, so a view stays a view)."""
        if not np.all(np.isfinite(values)):
            raise ValueError("metric values must be finite")
        count = len(values)
        index_type = np.int16 if count < np.iinfo(np.int16).max else np.int32
        # observe()'s scalar update, elementwise: |b - a| / max(|a|, 1e-12)
        # rounds identically, and the run after point i is i minus the
        # last point at or before i whose rate broke the tolerance.
        rates = np.abs(np.diff(values)) / np.maximum(np.abs(values[:-1]), 1e-12)
        positions = np.arange(count)
        breaks = np.zeros(count, dtype=np.int64)
        breaks[1:] = np.where(rates < PLATEAU_TOLERANCE, 0, positions[1:])
        runs = positions - np.maximum.accumulate(breaks)
        hits = np.append(np.flatnonzero(runs >= PLATEAU_WINDOW), count)
        plateau_next = hits[np.searchsorted(hits, positions)]
        return cls(
            values=values,
            stride=stride,
            plateau_runs=runs.astype(index_type),
            plateau_next=plateau_next.astype(index_type),
        )

    def step(self, count: int) -> int:
        """The step of the ``count``-th point."""
        return 1 + (count - 1) * self.stride


@dataclass
class EarlyCurvePredictor:
    """Per-job online metric collector and trend predictor."""

    max_trial_steps: int
    theta: float
    steps: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    #: Length of the run of trailing consecutive points whose relative
    #: change stayed under the tolerance — the incremental form of the
    #: windowed plateau scan (O(1) per observation instead of O(window)
    #: per poll).  Only :meth:`observe` and :meth:`observe_table` add
    #: values, and both keep it current.
    _plateau_run: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_trial_steps <= 0:
            raise ValueError(f"max_trial_steps must be positive: {self.max_trial_steps}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1]: {self.theta}")

    @property
    def cutoff_step(self) -> int:
        """theta * max_trial_steps, the early-shutdown point."""
        return int(round(self.theta * self.max_trial_steps))

    def observe(self, step: int, value: float) -> None:
        """Record a metric point; steps must arrive in order."""
        if self.steps and step <= self.steps[-1]:
            raise ValueError(
                f"metric steps must be increasing: {step} after {self.steps[-1]}"
            )
        if not np.isfinite(value):
            raise ValueError(f"metric value must be finite: {value}")
        self.steps.append(int(step))
        self.values.append(float(value))
        if len(self.values) >= 2:
            previous = self.values[-2]
            rate = abs(self.values[-1] - previous) / max(abs(previous), 1e-12)
            self._plateau_run = (
                self._plateau_run + 1 if rate < PLATEAU_TOLERANCE else 0
            )

    def observe_table(self, table: ObservationTable, count: int) -> None:
        """Record ``table``'s points up to the ``count``-th, leaving the
        state that :meth:`observe` per point would.  The points seen so
        far must be the table's first ones."""
        seen = len(self.values)
        if count <= seen:
            return
        self.steps.extend(
            range(table.step(seen + 1), table.step(count) + 1, table.stride)
        )
        self.values.extend(table.values[seen:count].tolist())
        self._plateau_run = int(table.plateau_runs[count - 1])

    @property
    def observed_steps(self) -> int:
        return self.steps[-1] if self.steps else 0

    def has_converged(self) -> bool:
        """Plateau test over the trailing window.

        Answered from the run counter that :meth:`observe` and
        :meth:`observe_table` maintain — scalar float64 ops reproduce
        the windowed numpy scan bit for bit, and "all window rates under
        tolerance" is exactly "the trailing run is at least window long".
        """
        return self._plateau_run >= PLATEAU_WINDOW

    def should_stop(self) -> Optional[StopReason]:
        """Whether the job can stop now, and why."""
        if self.observed_steps >= self.cutoff_step:
            return StopReason.THETA_REACHED
        if self.has_converged():
            return StopReason.CONVERGED
        return None

    def predict_final(self) -> PredictionOutcome:
        """Predict the metric at max_trial_steps from observed points."""
        if not self.values:
            raise ValueError("no metric points observed yet")
        if self.observed_steps >= self.max_trial_steps:
            return PredictionOutcome(
                predicted_final=self.values[-1],
                mode="observed",
                observed_steps=self.observed_steps,
            )
        if self.has_converged():
            tail = self.values[-PLATEAU_WINDOW:]
            return PredictionOutcome(
                predicted_final=float(np.mean(tail)),
                mode="converged",
                observed_steps=self.observed_steps,
            )
        # Observed points sit at indices 0..n-1 of the recorded series;
        # translate the target step into the same index space.  It lies
        # past the last point, so only the last stage is fitted.
        points_per_step = len(self.values) / max(self.observed_steps, 1)
        target_index = self.max_trial_steps * points_per_step - 1.0
        return PredictionOutcome(
            predicted_final=StagedCurveModel().fit_predict(
                np.asarray(self.values), target_index
            ),
            mode="extrapolated",
            observed_steps=self.observed_steps,
        )


def rank_configurations(
    predictions: dict[str, float], mcnt: int, lower_is_better: bool = True
) -> list[str]:
    """Sort configuration ids by predicted final metric and return the
    top ``mcnt`` (Algorithm 1's final SORT + top-mcnt selection)."""
    if mcnt <= 0:
        raise ValueError(f"mcnt must be positive: {mcnt}")
    ordered = sorted(predictions, key=predictions.get, reverse=not lower_is_better)
    return ordered[:mcnt]
