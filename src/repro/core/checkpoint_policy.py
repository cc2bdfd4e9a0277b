"""Checkpoint policies (paper §IV-F).

SpotTune's default is to checkpoint only when an event forces it — a
revocation notice, the one-hour recycle, or job completion.  That
works while the model fits in the two-minute notice window (the paper
derives max sizes of 7.36-15.73 GB); for larger models the paper
names "periodically checkpointing or prediction-based checkpointing"
as future work.  Both are implemented here:

* :class:`NoticeOnlyPolicy` — the paper's default behaviour;
* :class:`PeriodicPolicy` — an additional durable checkpoint every
  ``interval`` seconds, bounding progress loss when the notice window
  is too short to save the model;
* :class:`PredictionBasedPolicy` — checkpoints pro-actively when the
  revocation predictor says the current VM's market is about to turn
  (the "pro-active checkpointing" the related-work section mentions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cloud.instance import InstanceType
from repro.revpred.predictor import RevocationPredictor


@dataclass(frozen=True)
class PolicyContext:
    """What a policy may consult when deciding to checkpoint."""

    now: float
    vm_instance: InstanceType
    vm_age: float
    vm_max_price: float
    last_checkpoint_time: float  # -inf when never checkpointed
    steps_since_checkpoint: float


class CheckpointPolicy:
    """Base: no extra checkpoints beyond the forced events."""

    def should_checkpoint(self, context: PolicyContext) -> bool:
        return False

    def next_checkpoint_time(
        self, last_checkpoint_time: float, vm_assigned_at: float
    ) -> float | None:
        """Earliest time :meth:`should_checkpoint` could return True for
        a job whose VM was assigned at ``vm_assigned_at``.

        ``math.inf`` means never and ``None`` means unknown.  The
        orchestrator skips poll ticks before this time, so a policy that
        cannot state it must return ``None``.  A subclass that overrides
        :meth:`should_checkpoint` without restating this method reads as
        unknown.
        """
        if type(self).should_checkpoint is not CheckpointPolicy.should_checkpoint:
            return None
        return math.inf


class NoticeOnlyPolicy(CheckpointPolicy):
    """The paper's default: rely on the two-minute notice."""


@dataclass(frozen=True)
class PeriodicPolicy(CheckpointPolicy):
    """Durable checkpoint every ``interval`` seconds of VM time."""

    interval: float = 900.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError(f"interval must be positive: {self.interval}")

    def should_checkpoint(self, context: PolicyContext) -> bool:
        if context.steps_since_checkpoint <= 0:
            return False
        anchor = max(context.last_checkpoint_time, context.now - context.vm_age)
        return context.now - anchor >= self.interval

    def next_checkpoint_time(
        self, last_checkpoint_time: float, vm_assigned_at: float
    ) -> float | None:
        """The interval after the later of the last checkpoint and the
        VM assignment."""
        if type(self).should_checkpoint is not PeriodicPolicy.should_checkpoint:
            return None
        return max(last_checkpoint_time, vm_assigned_at) + self.interval


@dataclass(frozen=True)
class PredictionBasedPolicy(CheckpointPolicy):
    """Checkpoint when predicted revocation risk crosses a threshold.

    ``min_interval`` keeps a high-risk market from triggering a
    checkpoint storm; risk is evaluated for the VM's own max price.
    """

    predictor: RevocationPredictor = None
    threshold: float = 0.5
    min_interval: float = 300.0

    def __post_init__(self) -> None:
        if self.predictor is None:
            raise ValueError("prediction-based policy needs a predictor")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1): {self.threshold}")
        if self.min_interval < 0:
            raise ValueError(f"min_interval cannot be negative: {self.min_interval}")

    def should_checkpoint(self, context: PolicyContext) -> bool:
        if context.steps_since_checkpoint <= 0:
            return False
        if context.now - context.last_checkpoint_time < self.min_interval:
            return False
        risk = self.predictor.probability(
            context.vm_instance, context.now, context.vm_max_price
        )
        return risk >= self.threshold


def _parse_policy_spec(spec: str) -> tuple[str, list[float]]:
    """Split and validate a policy spec string; returns (name, args)."""
    name, _, rest = spec.partition(":")
    raw_args = [part for part in rest.split(":") if part] if rest else []
    try:
        args = [float(part) for part in raw_args]
    except ValueError:
        args = None
    max_args = {"notice": 0, "notice-only": 0, "periodic": 1, "prediction": 2}
    if args is None or name not in max_args or len(args) > max_args[name]:
        raise ValueError(
            f"unknown checkpoint policy spec {spec!r}; expected 'notice', "
            f"'periodic[:interval]', or 'prediction[:threshold[:min_interval]]'"
        )
    return name, args


def validate_policy_spec(spec: str) -> None:
    """Raise ``ValueError`` if ``spec`` is not a valid policy spec.

    Lets scenario grids reject a typo'd policy (or out-of-range
    arguments) at construction time, before any simulation has run.
    Runs the spec through the real policy constructors — with a dummy
    predictor for prediction-based specs — so the same value checks
    apply here as at run time.
    """
    from repro.revpred.predictor import ConstantPredictor

    policy_from_spec(spec, predictor=ConstantPredictor(0.0))


def policy_from_spec(spec: str, predictor: RevocationPredictor | None = None) -> CheckpointPolicy:
    """Build a policy from its compact string spec.

    Scenario grids and the CLI name policies as strings so they stay
    JSON-serialisable and fingerprintable:

    * ``"notice"`` (or ``"notice-only"``) — :class:`NoticeOnlyPolicy`;
    * ``"periodic:900"`` — :class:`PeriodicPolicy` every 900 s
      (``"periodic"`` alone uses the default interval);
    * ``"prediction:0.5:300"`` — :class:`PredictionBasedPolicy` with
      threshold 0.5 and min interval 300 s (needs ``predictor``).
    """
    name, args = _parse_policy_spec(spec)
    if name in ("notice", "notice-only"):
        return NoticeOnlyPolicy()
    if name == "periodic":
        return PeriodicPolicy(interval=args[0]) if args else PeriodicPolicy()
    if predictor is None:
        raise ValueError(f"policy spec {spec!r} needs a revocation predictor")
    kwargs = {}
    if args:
        kwargs["threshold"] = args[0]
    if len(args) == 2:
        kwargs["min_interval"] = args[1]
    return PredictionBasedPolicy(predictor=predictor, **kwargs)
