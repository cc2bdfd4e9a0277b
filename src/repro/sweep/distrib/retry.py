"""Retry budgets and backoff schedules for the distributed sweep.

Failure policy for the distributed sweep, in one place:

* **Retry budget** — every task gets ``max_attempts`` executions
  (crashes and raised errors both consume attempts, since a crash's
  re-lease increments the same counter a retry does).
* **Backoff** — a failed attempt re-queues its task with a relative
  ``defer_for`` stamp computed by :func:`backoff_delay` (anchored to
  the task file's mtime at claim time, so cross-host clock skew never
  stretches or collapses the window): exponential
  in the attempt number, capped, with *deterministic* jitter hashed
  from the task key — two workers retrying different tasks spread out,
  and a replayed sweep backs off identically.
* **Quarantine** — a task that exhausts its budget is *poison*: it
  gets one crash-safe ledger entry under ``queue/failures/`` carrying
  the error, the traceback, the worker ids, and the full attempt
  history (see ``Lease.ledger_entry``), plus an ``ok=False`` done
  record so the sweep terminates (with a partial result) instead of
  re-leasing the cell forever.
"""

from __future__ import annotations

import hashlib

#: Executions per task before quarantine.  3 retries a transient fault
#: twice without letting a deterministic crasher starve the fleet.
DEFAULT_MAX_ATTEMPTS = 3

#: First-retry delay, seconds; attempt ``n`` waits ~``base * 2**(n-1)``.
DEFAULT_BACKOFF_BASE = 1.0

#: Ceiling on any single retry delay, seconds.
DEFAULT_BACKOFF_CAP = 30.0

#: Queue subdirectory holding one ledger entry per quarantined task.
FAILURES_SUBDIR = "failures"


def backoff_delay(
    attempt: int,
    *,
    base: float = DEFAULT_BACKOFF_BASE,
    cap: float = DEFAULT_BACKOFF_CAP,
    key: str = "",
) -> float:
    """Delay before re-queueing the task that just failed ``attempt``.

    ``min(cap, base * 2**(attempt-1))`` scaled by a jitter factor in
    ``[0.5, 1.0]`` hashed from ``(key, attempt)`` — deterministic, so a
    replayed sweep produces the identical schedule, yet different tasks
    (different keys) de-synchronise instead of thundering back
    together.  Halving-jitter keeps the schedule monotone while the
    exponential is uncapped: attempt ``n``'s floor (``raw/2``) equals
    attempt ``n-1``'s ceiling (``raw``).
    """
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1: {attempt}")
    if base <= 0:
        raise ValueError(f"base must be positive: {base}")
    if cap < base:
        raise ValueError(f"cap must be >= base: cap={cap} base={base}")
    # 2.0** not 2<<: attempt can be large and floats saturate safely.
    raw = min(float(cap), float(base) * (2.0 ** (attempt - 1)))
    digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2.0**64
    return raw * (0.5 + 0.5 * fraction)
