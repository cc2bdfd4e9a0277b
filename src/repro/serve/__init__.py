"""Sweep-as-a-service: the HTTP front door over the distributed broker.

The paper frames hyper-parameter tuning as a *service* over transient
cloud resources; this package is that service's control plane for the
reproduction.  ``repro serve`` runs a long-lived, stdlib-only HTTP
server that accepts sweep specs as JSON, validates them through the
same rejection path as the CLI, runs each job through the PR-5
filesystem queue (so external ``repro sweep-worker`` fleets can attach
to a served job's queue directory exactly as to a CLI sweep), and
exposes status, NDJSON event streaming, byte-identical result
retrieval, and graceful cancellation:

* :mod:`repro.serve.jobs` — :class:`JobRegistry`: durable job records
  under ``<cache>/serve/``, idempotent submission (the job id is the
  grid fingerprint), crash re-adoption, the cancellation ledger;
* :mod:`repro.serve.streams` — the event-log tail generator (the
  coordinator's adaptive backoff, reused);
* :mod:`repro.serve.app` — :class:`SweepService` and its one route
  table: each row is a method, a path pattern (``/v1/sweeps/{id}``
  and friends) that is also the request metrics' route label, and a
  handler; one dispatcher maps errors to statuses for every route;
* :mod:`repro.serve.client` — :class:`SweepClient`, a stdlib client
  with cursor pagination and streaming.

Contract: ``GET /v1/sweeps/{id}/result`` returns bytes identical to
the ``repro sweep --out`` file for the same spec, whatever fleet —
local, external, killed and re-leased — executed the cells.
"""

from repro.serve.app import SweepService
from repro.serve.client import SweepClient, SweepServiceError
from repro.serve.jobs import (
    SERVE_SCHEMA_VERSION,
    TERMINAL_STATES,
    JobConflictError,
    JobRegistry,
    SpecValidationError,
    UnknownJobError,
    job_id_for,
)
from repro.serve.streams import iter_job_events

__all__ = [
    "JobConflictError",
    "JobRegistry",
    "SERVE_SCHEMA_VERSION",
    "SpecValidationError",
    "SweepClient",
    "SweepService",
    "SweepServiceError",
    "TERMINAL_STATES",
    "UnknownJobError",
    "iter_job_events",
    "job_id_for",
]
