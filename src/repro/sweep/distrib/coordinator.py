"""The distributed sweep coordinator: enqueue, tail, assemble.

``repro sweep --distributed`` drives this runner instead of the
in-process pool.  It enqueues the grid into the filesystem broker
(co-located under the result cache), optionally launches local worker
processes, then *tails* the queue's done records — streaming each
completed cell into the same ``on_cell`` callback the pool path uses —
and finally assembles the grid-ordered :class:`~repro.sweep.runner
.SweepResult` from the cache.

The coordinator is not special: it holds no locks and does no cell
work, so killing and restarting it against the same queue attaches to
the surviving state (the enqueue is idempotent for an identical grid).
Expired leases are reclaimed from here too, so even a fleet that dies
entirely makes progress again as soon as one worker — or just the
coordinator plus one new worker — comes back.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterable, Optional, Union

from repro import obs
from repro.obs import publish as obs_publish
from repro.sweep.banks import BankCache
from repro.sweep.cache import SweepCache
from repro.sweep.distrib.faults import FaultPlan
from repro.sweep.distrib.queue import (
    DEFAULT_LEASE_TTL,
    TaskQueue,
    done_record,
    task_name,
)
from repro.sweep.distrib.retry import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_BACKOFF_CAP,
    DEFAULT_MAX_ATTEMPTS,
)
from repro.sweep.distrib.supervisor import WorkerSupervisor
from repro.sweep.runner import (
    CellResult,
    SweepCellError,
    SweepResult,
    ensure_market_snapshots,
    resolve_caches,
    task_order,
)
from repro.sweep.scenario import Scenario, ScenarioGrid


def _relative_to_queue(target: Path, queue_root: Path) -> str:
    """Record cache locations relative to the queue so the directory
    tree stays self-describing when mounted elsewhere."""
    try:
        return os.path.relpath(target, queue_root)
    except ValueError:  # different drives (Windows) — keep absolute
        return str(target)


class SweepCancelled(RuntimeError):
    """The sweep was stopped through its ``stop`` event before draining.

    Not a failure: the queue survives exactly as it was (pending tasks,
    leases, done records), so the caller decides whether to retire it
    (``repro serve``'s cancel endpoint does) or leave it for a later
    resume.  ``completed`` holds the cells that finished before the
    stop, in grid order; ``outstanding`` the task names that did not.
    """

    def __init__(
        self, completed: list[CellResult], outstanding: list[str]
    ) -> None:
        self.completed = list(completed)
        self.outstanding = list(outstanding)
        super().__init__(
            f"sweep cancelled with {len(self.outstanding)} cell(s) "
            f"outstanding ({len(self.completed)} completed)"
        )


class AdaptiveDelay:
    """The tail loop's idle backoff, reusable anywhere records trickle.

    Tight (``floor``) while progress streams, decaying 1.5x per idle
    poll toward ``cap``, snapping back to the floor the moment anything
    arrives — a tailer over a slow producer stops burning a scan per
    floor-interval, yet reacts at full speed when completions stream
    again.  Purely relative durations: no wall-clock deadline is ever
    computed, so the backoff is immune to clock skew by construction.
    """

    def __init__(self, floor: float, cap: float) -> None:
        self.floor = float(floor)
        self.cap = max(float(cap), self.floor)
        self._delay = self.floor

    @property
    def current(self) -> float:
        return self._delay

    def progress(self) -> None:
        self._delay = self.floor

    def idle(self) -> float:
        self._delay = min(self.cap, self._delay * 1.5)
        return self._delay


def spawn_local_worker(
    queue_root: Path,
    poll_interval: float = 0.2,
    stdout=subprocess.DEVNULL,
    fault_plan: Union[str, Path, None] = None,
) -> subprocess.Popen:
    """Start one independent ``repro sweep-worker`` process.

    A real subprocess, not a fork from a pool: local workers are the
    same animal as remote ones, so the coordinator's crash-recovery
    story is exercised identically either way.
    """
    import repro

    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    argv = [
        sys.executable,
        "-m",
        "repro.cli",
        "sweep-worker",
        "--queue",
        str(queue_root),
        "--poll",
        str(poll_interval),
    ]
    if fault_plan is not None:
        argv += ["--fault-plan", str(fault_plan)]
    return subprocess.Popen(
        argv,
        env=env,
        stdout=stdout,
        stderr=subprocess.STDOUT,
    )


def check_queue_policy(jobs: int, lease_ttl: float, max_attempts: int) -> None:
    """Reject a local worker count, lease TTL or retry budget that no
    queue can run with (``ValueError``)."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0: {jobs}")
    if lease_ttl <= 0:
        raise ValueError(f"lease-ttl must be positive: {lease_ttl}")
    if max_attempts < 1:
        raise ValueError(f"max-attempts must be >= 1: {max_attempts}")


class DistributedSweepRunner:
    """Executes a grid through the filesystem broker.

    Args:
        cache: Result-cache directory (or :class:`SweepCache`);
            **required** — completed summaries travel from workers to
            the coordinator through it.
        queue_dir: Broker directory; defaults to ``<cache>/queue``.
        jobs: Local worker processes to launch; 0 coordinates only
            (external ``repro sweep-worker`` processes do the work).
        resume: Reuse cached summaries instead of enqueueing them.
        bank_cache: As for :class:`~repro.sweep.runner.SweepRunner`.
        lease_ttl: Seconds without a heartbeat before a worker's cell
            is re-leased.
        poll_interval: Coordinator tail/reclaim cadence (the *floor*:
            the tail backs off adaptively toward the visibility grace
            while no records arrive).
        max_attempts: Per-task retry budget (manifest-recorded, so the
            whole fleet agrees); a cell failing this many attempts is
            quarantined into ``queue/failures/``.
        backoff_base: First retry delay in seconds, in
            ``(0, DEFAULT_BACKOFF_CAP]``; it doubles per attempt up to
            the cap.
        fail_fast: Abort the tail on the first failed cell instead of
            draining the surviving grid.
        fault_plan: A :class:`FaultPlan`, or a path to its JSON, to
            rehearse outages — threaded through this coordinator's
            queue handle and every locally-spawned worker.
        fsync: Durability of queue/cache publishes (manifest-recorded).
    """

    def __init__(
        self,
        cache: Union[str, Path, SweepCache],
        queue_dir: Union[str, Path, None] = None,
        jobs: int = 1,
        resume: bool = False,
        bank_cache: Union[str, Path, BankCache, None, bool] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        poll_interval: float = 0.2,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        fail_fast: bool = False,
        fault_plan: Union[str, Path, FaultPlan, None] = None,
        fsync: bool = True,
    ) -> None:
        if cache is None:
            raise ValueError("distributed sweeps require a result cache")
        check_queue_policy(jobs, lease_ttl, max_attempts)
        if not 0 < backoff_base <= DEFAULT_BACKOFF_CAP:
            # Checked here, not at the first failed cell, where
            # backoff_delay would raise out of the worker's loop.
            raise ValueError(
                f"retry-backoff must be in (0, {DEFAULT_BACKOFF_CAP:g}] "
                f"seconds: {backoff_base}"
            )
        self.cache, self.bank_cache = resolve_caches(cache, bank_cache)
        self.queue_dir = Path(queue_dir) if queue_dir else self.cache.queue_root
        self.jobs = jobs
        self.resume = resume
        self.lease_ttl = lease_ttl
        self.poll_interval = poll_interval
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.fail_fast = fail_fast
        self.fault_plan = (
            FaultPlan.load(fault_plan)
            if isinstance(fault_plan, (str, Path))
            else fault_plan
        )
        self.fsync = fsync
        #: The supervisor of the current or last :meth:`run`.
        self._supervisor = None
        #: Merged fleet snapshot (see ``repro.obs.publish.merge_fleet``)
        #: captured just before a successful run retires its queue.
        self.fleet_metrics: Optional[dict] = None

    @property
    def worker_restarts(self) -> int:
        """Local-fleet respawns the supervisor has made in the current or
        last :meth:`run`, read live while it tails (0 before a run, with
        ``jobs=0`` or with a healthy fleet)."""
        supervisor = self._supervisor
        return supervisor.restart_count if supervisor is not None else 0

    # ------------------------------------------------------------------
    def run(
        self,
        grid: Union[ScenarioGrid, Iterable[Scenario]],
        on_cell=None,
        timeout: Optional[float] = None,
        stop=None,
    ) -> SweepResult:
        """Enqueue, wait for the fleet to drain the queue, assemble.

        Matches ``SweepRunner.run`` semantics: ``on_cell`` streams in
        completion order (cache hits first), failures drain siblings
        then raise :class:`SweepCellError`, and the returned result is
        in grid order — byte-identical to a serial run of the same
        grid.  ``timeout`` (seconds, ``None`` = wait forever) bounds
        the tail loop for tests.  ``stop`` is an optional
        :class:`threading.Event`: setting it makes the tail return at
        its next poll, local workers shut down gracefully, and
        :class:`SweepCancelled` is raised with whatever completed —
        the queue is left intact for the caller to retire or resume.
        """
        scenarios = list(grid)
        total = len(scenarios)
        done: dict[str, CellResult] = {}
        stop = stop if stop is not None else threading.Event()

        def emit(cell: CellResult) -> None:
            done[cell.scenario.fingerprint()] = cell
            if on_cell is not None:
                on_cell(len(done), total, cell)

        # The queue's identity is the *full* grid, never the
        # resume-filtered remainder: a resumed (or restarted)
        # coordinator thereby always matches the manifest of the sweep
        # it is resuming, whatever happens to be cached by now.  The
        # dispatch order is likewise jobs-independent — the fleet size
        # is unknowable here anyway, and a restart with a different
        # --jobs must still produce the manifest it is re-attaching to.
        # It is bucket-*contiguous* (each (seed, scale) group in one
        # run), the order the pool path chunks too: workers claim
        # smallest-name-first, so contiguity is what lets a worker's
        # context LRU serve consecutive claims instead of rebuilding a
        # different context per cell once the grid has more buckets
        # than LRU slots.
        ordered = task_order(scenarios, 1)
        banks_path = (
            _relative_to_queue(self.bank_cache.root, self.queue_dir)
            if self.bank_cache is not None
            else None
        )
        # The manifest is held back until the reconcile below is done,
        # so no worker can claim a cell this coordinator is about to
        # complete from the cache (attach blocks on the manifest).
        if self.fault_plan is not None:
            # One plan governs the whole fleet: hit counters live in a
            # shared state dir under the queue (so a rule with times=1
            # fires once *fleet-wide*, the coordinator's own enqueue
            # writes and restarted workers included).  Bound *before*
            # create, because create already fires injection sites.
            self.fault_plan.bind_state(Path(self.queue_dir) / "fault-state")
        queue = TaskQueue.create(
            self.queue_dir,
            ordered,
            cache_path=_relative_to_queue(self.cache.root, self.queue_dir),
            banks_path=banks_path,
            lease_ttl=self.lease_ttl,
            publish=False,
            max_attempts=self.max_attempts,
            backoff_base=self.backoff_base,
            fsync=self.fsync,
            faults=self.fault_plan,
        )
        worker_plan_path = None
        if self.fault_plan is not None:
            # The plan itself is materialised next to the manifest for
            # spawned — or manually attached — workers to load.
            worker_plan_path = queue.root / "fault-plan.json"
            queue._write_atomic(worker_plan_path, self.fault_plan.to_dict())

        #: name -> completion record for this run (how each cell was
        #: satisfied: which worker, which attempt, cached or executed) —
        #: queryable after ``run`` since the drained queue is retired.
        self.completion_records: dict[str, dict] = {}
        outstanding = self._reconcile(queue, scenarios, ordered, emit)

        # Market snapshots land before the manifest publishes, so every
        # worker that can see tasks can also see the mmap-able traces
        # (workers fall back to regeneration if a snapshot is absent —
        # same bytes either way, just slower).  A seed whose snapshot an
        # earlier sweep or job already wrote is not generated again.
        ensure_market_snapshots(self.cache.root, scenarios)

        queue.publish_manifest()
        # Local workers log under the queue (rotated per slot by the
        # supervisor): kept exactly as long as diagnostics can matter —
        # a failed or interrupted sweep leaves them for post-mortem, a
        # successful one retires them with the queue.  The spawn
        # closure resolves ``spawn_local_worker`` at call time so tests
        # can stub the module global; crashed workers are respawned
        # with capped, jittered backoff until their slot's budget runs
        # out.
        supervisor = WorkerSupervisor(
            min(self.jobs, len(outstanding)),
            lambda stdout: spawn_local_worker(
                queue.root,
                poll_interval=self.poll_interval,
                stdout=stdout,
                fault_plan=worker_plan_path,
            ),
            logs_dir=queue.root / "logs",
        )
        self._supervisor = supervisor
        try:
            supervisor.start()
            failures = self._tail(queue, outstanding, emit, timeout, stop)
        finally:
            supervisor.shutdown()

        # What a cancel or a failure hands back, in grid order.
        completed = [
            done[s.fingerprint()] for s in scenarios if s.fingerprint() in done
        ]
        if stop.is_set() and outstanding:
            # Cancelled, not failed: leases were drained gracefully
            # (local workers terminated above; external workers keep
            # their leases until the caller retires the queue and the
            # vanished manifest tells them to exit).
            raise SweepCancelled(completed, sorted(outstanding))
        if failures:
            # The queue survives a failed sweep: its error records and
            # pending state are what ``--resume`` retries from.  The
            # quarantine ledger's per-cell post-mortems (traceback,
            # worker ids, attempt history) ride along as ``details``.
            raise SweepCellError(
                [(scenario, error) for scenario, error, _ in failures],
                completed=completed,
                persisted=True,
                details=[entry for _, _, entry in failures],
            )
        # Absorb the workers' published metric snapshots into this
        # process's registry *before* the queue (snapshots included) is
        # retired: fleet counters — claims, cell histograms, retries —
        # accumulate in worker processes, and this is the last moment
        # they are readable.  A post-run ``GET /metrics`` (or a test)
        # then deterministically shows fleet totals.
        self.fleet_metrics = obs_publish.merge_fleet(
            obs_publish.load_snapshots(queue.root)
        )
        obs.REGISTRY.absorb(self.fleet_metrics["metrics"])
        # A drained queue is coordination state, not results (those are
        # in the cache) — retire it, so a later identical sweep
        # re-executes like ``SweepRunner`` would instead of silently
        # replaying stale done records.  Lingering workers notice the
        # manifest vanish and exit.
        shutil.rmtree(queue.root, ignore_errors=True)
        return SweepResult(done[s.fingerprint()] for s in scenarios)

    def _reconcile(self, queue, scenarios, ordered, emit) -> dict:
        """Settle what the cache answers for before any worker claims.

        One pass in grid order with ``SweepRunner``'s resume rule: under
        ``--resume`` one cache load per cell decides whether it is
        cached (completed here, and emitted, without a worker ever
        touching it) or pending; without ``--resume`` every cell is
        pending and runs again.  A pending cell left settled by an
        earlier fleet (done, failed, or done with its summary since
        lost) goes back into play; an in-flight lease is never touched.

        Returns ``{name: (seq, scenario)}`` for the cells the fleet
        must still settle.
        """
        # Clear crashed-worker debris *before* judging done records: a
        # worker killed between mark_done's write and its lease unlink
        # leaves a lease that shadows the done record — ensure_pending
        # would skip the cell as in-flight, and the stale record would
        # then replay.  reclaim_expired drops exactly those leases (a
        # lease whose done record exists is garbage by contract).
        queue.reclaim_expired()
        seq_of = {scenario.fingerprint(): seq for seq, scenario in enumerate(ordered)}
        outstanding = {}
        for scenario in scenarios:
            fingerprint = scenario.fingerprint()
            seq = seq_of[fingerprint]
            name = task_name(seq, scenario)
            summary = self.cache.load(scenario) if self.resume else None
            if summary is None:
                queue.ensure_pending(name, scenario, seq)
                outstanding[name] = (seq, scenario)
                continue
            record = done_record(
                fingerprint, "coordinator-resume", 0, from_cache=True
            )
            queue.complete_cached(name, record)
            self.completion_records[name] = record
            emit(CellResult(scenario, summary, cached=True))
        if not self.resume:
            # Strip attempt counts inherited from a previous fleet's
            # requeued leases, so no task claims at attempt > 1 and
            # short-circuits to the cached summary — this run's
            # contract is to re-execute.
            queue.reset_pending_attempts()
        return outstanding

    def _tail(self, queue, outstanding, emit, timeout, stop) -> list:
        """Stream done records into ``emit`` until the queue drains.

        The tail also owns the fleet's liveness between records: the
        shared-mount visibility grace, the adaptive idle backoff, the
        expired-lease reclaim, the supervisor's restarts, and the
        vanished-task self-heal.

        ``outstanding`` (from :meth:`_reconcile`) is mutated in place:
        whatever remains on return did not settle (non-empty only on
        ``fail_fast`` or a ``stop``).  Setting ``stop`` makes the tail
        return at the next poll without touching queue state, so a
        cancel is graceful by construction.  ``timeout`` (seconds)
        bounds the loop for tests.  Returns the failed cells as
        ``(scenario, error, ledger entry or None)``.
        """
        supervisor = self._supervisor
        failures: list[tuple[Scenario, str, Optional[dict]]] = []
        deadline = None if timeout is None else time.monotonic() + timeout
        # On a shared mount (NFS/EFS) a done record can become visible
        # to this machine before the worker's cache summary does
        # (attribute/negative-entry caching): give a missing summary a
        # grace window before declaring the cell broken.
        summary_grace = max(10.0, 4 * self.poll_interval)
        summary_missing_since: dict[str, float] = {}
        # Adaptive poll: tight while records arrive, decaying toward the
        # grace window when idle — a coordinator tailing a slow remote
        # fleet stops burning a scan per poll_interval, yet reacts at full
        # speed the moment completions stream again.
        idle = AdaptiveDelay(self.poll_interval, summary_grace)

        while outstanding:
            if stop.is_set():
                return failures
            progressed = False
            for name in queue.done_names():
                if name not in outstanding:
                    continue
                scenario = outstanding[name][1]
                record = queue.done_record(name) or {}
                summary = self.cache.load(scenario) if record.get("ok") else None
                if record.get("ok") and summary is None:
                    first = summary_missing_since.setdefault(name, time.monotonic())
                    if time.monotonic() - first < summary_grace:
                        continue  # keep outstanding; re-poll
                # Settle the cell: its record is consumed whatever it says.
                progressed = True
                del outstanding[name]
                self.completion_records[name] = record
                try:
                    # Done-record tail latency: how long the record sat
                    # on the mount before this tail consumed it.  A
                    # *difference* of wall-clock readings (mount mtime
                    # vs. now), clamped at zero against skew — never an
                    # absolute deadline.
                    age = time.time() - os.stat(queue.done_dir / name).st_mtime
                except OSError:
                    pass
                else:
                    obs.observe("repro_coordinator_tail_latency_seconds", max(0.0, age))
                if summary is not None:
                    emit(
                        CellResult(
                            scenario,
                            summary,
                            # A re-lease that found its predecessor's
                            # summary already persisted did not execute.
                            cached=bool(record.get("from_cache")),
                            bank_trainings=int(record.get("bank_trainings", 0)),
                            seconds=float(record.get("seconds", 0.0) or 0.0),
                            attempt=int(record.get("attempt", 1) or 1),
                        )
                    )
                    continue
                error = (
                    "completed cell missing from the result cache"
                    if record.get("ok")
                    else record.get("error") or "worker reported failure"
                )
                failures.append((scenario, error, queue.failure_entry(name)))
            if failures and self.fail_fast:
                # Abort the tail: the queue (leases, pending tasks,
                # records) survives as-is for post-mortem or --resume.
                return failures
            if not outstanding:
                break
            queue.reclaim_expired()
            restarted = supervisor.tick()
            if restarted:
                obs.inc("repro_worker_restarts_total", restarted)
            # Self-heal vanished tasks: an outstanding cell with no
            # task, lease, or done record cannot finish on its own (a
            # worker quarantined its corrupt task file, or someone
            # deleted it) — rewrite the task from the manifest.  The
            # scan order (tasks, then in-flight leases including
            # claim-temps, then done) matches the claim and completion
            # transitions, so a cell mid-move is always seen in at
            # least one of the three.
            pending = queue.pending_names()
            obs.set_gauge("repro_queue_depth", len(pending))
            present = (
                set(pending)
                | set(queue.inflight_names())
                | set(queue.done_names())
            )
            for name in outstanding.keys() - present:
                seq, scenario = outstanding[name]
                queue.ensure_pending(name, scenario, seq)
                obs.inc("repro_coordinator_heals_total")
            # A locally-spawned fleet that has died entirely — every
            # slot's process exited *and* every slot's restart budget
            # is spent — can never drain the queue; a worker only exits
            # this early on a crash (clean exits need the sweep
            # complete or the queue retired), so hanging silently would
            # hide a real failure.  External fleets (jobs=0, or anyone
            # holding a live lease) are unaffected — and a cell whose
            # done record landed after this iteration's scan (`present`
            # sees it) is not grounds to raise: the next iteration
            # consumes it.
            if (
                supervisor.fleet_dead()
                and not queue.inflight_names()
                and outstanding.keys() - set(queue.done_names())
            ):
                raise RuntimeError(
                    f"local sweep-worker fleet died (restarted "
                    f"{supervisor.restart_count} time(s), budget spent) with "
                    f"{len(outstanding)} cell(s) outstanding "
                    f"(queue: {queue.root}); see {queue.root / 'logs'} for "
                    "worker output; external workers can still drain it, "
                    "or rerun to respawn the local fleet"
                )
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"distributed sweep timed out with {len(outstanding)} cell(s) "
                    f"outstanding (queue: {queue.root})"
                )
            if progressed:
                idle.progress()
            else:
                idle.idle()
            # Never let the idle backoff postpone a self-heal, and let a
            # stop interrupt the sleep, or a cancel waits out a full
            # idle backoff before being noticed.
            stop.wait(
                self.poll_interval if supervisor.pending_restart() else idle.current
            )
        return failures
