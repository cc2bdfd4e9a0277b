"""Distributed sweep broker: filesystem queue + lease-based workers.

Decouples sweep execution from the in-process pool so any number of
independent processes — on one machine or many sharing a mount — can
drain one scenario grid:

* :mod:`repro.sweep.distrib.queue` — the broker directory
  (:class:`TaskQueue`): claim-by-atomic-rename, expiry-triggered
  re-lease, task files, done records, the ``failures/`` quarantine
  ledger, and the per-state census;
* :mod:`repro.sweep.distrib.lease` — :class:`Lease` handles (each
  builds its attempt-history and quarantine-ledger entries) and the
  :class:`Heartbeat` renewal thread;
* :mod:`repro.sweep.distrib.worker` — the ``repro sweep-worker`` loop
  (:class:`SweepWorker`);
* :mod:`repro.sweep.distrib.coordinator` — the ``repro sweep
  --distributed`` side (:class:`DistributedSweepRunner`): enqueue,
  reconcile against the cache, tail, assemble;
* :mod:`repro.sweep.distrib.retry` — retry budgets and the
  deterministic backoff schedule;
* :mod:`repro.sweep.distrib.supervisor` — the self-healing local
  fleet (:class:`WorkerSupervisor`);
* :mod:`repro.sweep.distrib.faults` — the deterministic
  fault-injection plane (:class:`FaultPlan`), threaded through all of
  the above so every crash window is rehearsable.

The crash-safety contract: a worker SIGKILLed mid-cell loses only its
lease, which expires and re-leases the cell to a survivor; a cell that
*keeps* failing is retried with backoff at most ``max_attempts`` times
fleet-wide, then quarantined with a ledgered post-mortem while its
siblings drain; and the assembled (possibly partial) result is
byte-identical to a serial run of the same surviving cells regardless
of how many workers ran, died, or were overthrown along the way —
under any :class:`FaultPlan`.
"""

from repro.sweep.distrib.coordinator import (
    AdaptiveDelay,
    DistributedSweepRunner,
    SweepCancelled,
    spawn_local_worker,
)
from repro.sweep.distrib.faults import FaultPlan, FaultRule, InjectedFault
from repro.sweep.distrib.lease import Heartbeat, Lease
from repro.sweep.distrib.queue import (
    DEFAULT_LEASE_TTL,
    QUEUE_SCHEMA_VERSION,
    QueueError,
    TaskQueue,
    task_name,
)
from repro.sweep.distrib.retry import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_BACKOFF_CAP,
    DEFAULT_MAX_ATTEMPTS,
    backoff_delay,
)
from repro.sweep.distrib.supervisor import WorkerSupervisor
from repro.sweep.distrib.worker import SweepWorker, default_worker_id

__all__ = [
    "AdaptiveDelay",
    "DEFAULT_BACKOFF_BASE",
    "DEFAULT_BACKOFF_CAP",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_MAX_ATTEMPTS",
    "DistributedSweepRunner",
    "SweepCancelled",
    "FaultPlan",
    "FaultRule",
    "Heartbeat",
    "InjectedFault",
    "Lease",
    "QUEUE_SCHEMA_VERSION",
    "QueueError",
    "SweepWorker",
    "TaskQueue",
    "WorkerSupervisor",
    "backoff_delay",
    "default_worker_id",
    "spawn_local_worker",
    "task_name",
]
