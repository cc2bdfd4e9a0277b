"""Run one HPT cell through an arbitrary orchestrator implementation.

The golden byte-identity tests and ``benchmarks/bench_cell_batched.py``
need to drive the *same* cell through both the live (batched)
:class:`~repro.core.orchestrator.SpotTuneOrchestrator` and the frozen
scalar :class:`~repro.core.reference.ReferenceOrchestrator`, with an
arbitrary predictor object (usually an untrained bank — see
:func:`repro.revpred.trainer.untrained_predictor_bank`).
:meth:`ExperimentContext.spottune_run` only accepts predictor *kinds*
and builds its orchestrator through :func:`make_orchestrator` too, so
there is one construction with the orchestrator class and predictor
pluggable.
"""

from __future__ import annotations

from repro.core.checkpoint_policy import policy_from_spec
from repro.core.config import SpotTuneConfig
from repro.core.orchestrator import SpotTuneOrchestrator
from repro.workloads.catalog import get_workload


def make_orchestrator(
    context,
    workload_name: str,
    theta: float,
    predictor,
    orchestrator_cls=SpotTuneOrchestrator,
    checkpoint_policy: str = "notice",
    reschedule_after: float = 3600.0,
    refund_enabled: bool = True,
    mcnt: int = 3,
):
    """The orchestrator of one cell; ``ExperimentContext.spottune_run``
    builds through here too."""
    workload = get_workload(workload_name)
    orchestrator = orchestrator_cls(
        workload,
        context.trials(workload_name),
        context.dataset,
        predictor,
        SpotTuneConfig(
            theta=theta,
            seed=context.seed,
            reschedule_after=reschedule_after,
            mcnt=mcnt,
        ),
        speed_model=context.speed_model,
        start_time=context.replay_start,
        checkpoint_policy=policy_from_spec(checkpoint_policy, predictor=predictor),
    )
    orchestrator.provider.billing.refund_enabled = refund_enabled
    return orchestrator


def run_cell(context, workload_name: str, theta: float, predictor, **kwargs) -> dict:
    """Simulate one cell and return its order-independent summary.

    ``kwargs`` are :func:`make_orchestrator`'s.  A cell run here is
    byte-identical to the same cell run through the context (given the
    same predictor object semantics).
    """
    from repro.sweep.runner import summarize_run

    orchestrator = make_orchestrator(context, workload_name, theta, predictor, **kwargs)
    return summarize_run(orchestrator.run())
