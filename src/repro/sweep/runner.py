"""The sweep engine: stream scenarios through persistent workers.

``run_scenario`` is the single code path that turns a
:class:`~repro.sweep.scenario.Scenario` into a plain-data summary
dict, and :func:`execute_cell` is the one bracket every executor puts
around it — the serial loop of :meth:`SweepRunner.run`, its pool
workers and the fleet's :mod:`~repro.sweep.distrib.worker` alike: it
counts the cell's bank trainings, times it, captures its error and
stores its summary.  :meth:`SweepRunner.run_one` replays one cell with
``run_scenario`` alone.  Summaries contain only JSON scalars/lists, so
every path produces byte-identical canonical JSON for the same cell —
a guarantee that holds under *arbitrary* cell completion order,
because the final :class:`SweepResult` is reordered to grid order
regardless of which worker finished what first.

The pool path is a streaming executor: persistent workers take chunks
of cells from one shared task queue (``imap_unordered``), and each
chunk's outcomes flow back to the parent — and to ``on_cell``, once
per cell — when the chunk ends, not when a shard drains.  The queue
holds the cells grouped by ``(seed, scale)`` context
(:func:`task_order` with one lane, the fleet coordinator's order too),
cut into chunks of at most one context's cells and at least four
chunks per worker; grids of fewer than eight cells per worker keep
chunks of one cell.  A chunk's cells share one worker's context and
its memos, so a sweep whose contexts each fill a chunk builds each
context once, in one worker.  Workers build their experiment contexts lazily and keep a
bounded LRU of live ones per ``(seed, scale)``, which serves the
cells of a context that two chunks split.  Context construction is
deterministic in the seed, so a pool run reproduces the serial results
exactly.

Persistence is incremental: summaries hit the on-disk cache cell by
cell as they complete (pool workers write their own cells, through
the runner's own cache handles, so one ``fsync`` setting governs every
process), never in a batch at the end, so nothing already finished is
ever lost to a crash or interrupt.  Trained predictor banks persist
the same way through the co-located :class:`~repro.sweep.banks
.BankCache`: the first worker to need a bank trains and stores it,
every other consumer — concurrent or in a later run — loads it.
Market snapshots persist in the cache too: each seed's is generated
once per cache and every later sweep or job reuses it.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback as traceback_mod
from contextlib import closing
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Union

from repro import obs
from repro.market.trace import HOUR
from repro.sweep import banks as banks_mod
from repro.sweep.banks import BankCache
from repro.sweep.cache import SweepCache
from repro.sweep.scenario import Scenario, ScenarioGrid

#: Per-process memo of experiment contexts, keyed by (seed, scale).
#: Worker processes populate their own copy on first use.
_CONTEXT_CACHE: dict = {}

#: Contexts hold a full multi-market price dataset (and possibly
#: trained predictor banks), so a long-lived process sweeping many
#: seeds must not retain them all; least-recently-used ones go first.
_MAX_CACHED_CONTEXTS = 8


def market_snapshot_dir(cache_root, seed: int):
    """Where the mmap-able market snapshot for ``seed`` lives under a
    result-cache root (see :mod:`repro.market.snapshot`), or ``None``
    without a cache.  A context handed this path reads a missing or
    unreadable snapshot as a miss and generates the dataset instead."""
    if cache_root is None:
        return None
    from repro.sweep.cache import MARKETS_SUBDIR

    return Path(cache_root) / MARKETS_SUBDIR / f"seed{int(seed)}"


def ensure_market_snapshots(cache_root, scenarios) -> None:
    """Give every seed of ``scenarios`` a readable market snapshot.

    One snapshot per seed under ``<cache_root>/markets/``, always of
    the *default* dataset: pool and fleet workers build their own
    default contexts (a caller-supplied context is in-process only),
    so the snapshot must mirror exactly what a worker would generate.
    A snapshot that loads is reused as it is; only a missing or
    unreadable one is generated and saved, which also repairs a
    broken one in place.
    """
    from repro.analysis.context import TOTAL_DAYS
    from repro.market.dataset import generate_default_dataset
    from repro.market.snapshot import load_market_snapshot, save_market_snapshot

    for seed in sorted({int(s.seed) for s in scenarios}):
        directory = market_snapshot_dir(cache_root, seed)
        if load_market_snapshot(directory) is None:
            save_market_snapshot(
                generate_default_dataset(seed=seed, days=TOTAL_DAYS), directory
            )


def _context_for(
    seed: int, scale: str, context=None, bank_cache=None, dataset_path=None
):
    """The process-local context for ``(seed, scale)``.

    A caller-supplied context is used (and memoised) when it matches,
    so figure runners can share their prebuilt context — and its
    memoised runs — with the sweep.  Every hit, caller-supplied or
    not, goes through the same LRU touch/evict bookkeeping so the memo
    never grows past :data:`_MAX_CACHED_CONTEXTS`.

    Memoised/worker-built contexts are re-pointed at exactly the given
    predictor-bank cache — ``None`` detaches one, so a runner with
    bank caching disabled never keeps writing a cache memoised from an
    earlier sweep in the same process.  A caller-supplied context
    keeps its own bank cache (only a missing one is filled in): it
    belongs to the caller, not the sweep.

    ``dataset_path`` (a market-snapshot directory) only matters when a
    fresh context is built here: it makes the new context memory-map
    its dataset instead of regenerating.  Memoised and caller-supplied
    contexts keep whatever dataset they already have — a snapshot
    round-trips the generated data exactly, so the two are
    interchangeable and the memo key stays ``(seed, scale)``.
    """
    key = (int(seed), scale)
    supplied = context is not None and (context.seed, context.scale) == key
    if supplied:
        _CONTEXT_CACHE[key] = context
    elif key not in _CONTEXT_CACHE:
        from repro.analysis.context import build_context

        _CONTEXT_CACHE[key] = build_context(
            seed=int(seed),
            scale=scale,
            bank_cache=bank_cache,
            dataset_path=dataset_path,
        )
    _CONTEXT_CACHE[key] = _CONTEXT_CACHE.pop(key)  # mark most recent
    while len(_CONTEXT_CACHE) > _MAX_CACHED_CONTEXTS:
        _CONTEXT_CACHE.pop(next(iter(_CONTEXT_CACHE)))
    ctx = _CONTEXT_CACHE[key]
    if not supplied or getattr(ctx, "bank_cache", None) is None:
        ctx.bank_cache = bank_cache
    return ctx


def summarize_run(result) -> dict:
    """Flatten a :class:`~repro.core.accounting.RunResult` into JSON
    scalars — the cacheable, order-independent cell summary."""
    truth = {
        trial_id: record.true_final for trial_id, record in result.jobs.items()
    }
    have_truth = truth and all(value is not None for value in truth.values())
    return {
        "workload": result.workload_name,
        "theta": float(result.theta),
        "cost": float(result.total_paid),
        "refunded": float(result.total_refunded),
        "jct_hours": float(result.jct / HOUR),
        "free_step_fraction": float(result.free_step_fraction),
        "refund_fraction": float(result.refund_fraction),
        "overhead_fraction": float(result.overhead_fraction),
        "num_jobs": len(result.jobs),
        "steps_completed": float(
            sum(job.steps_completed for job in result.jobs.values())
        ),
        "lost_steps": float(sum(job.lost_steps for job in result.jobs.values())),
        "failed_checkpoints": int(
            sum(job.failed_checkpoints for job in result.jobs.values())
        ),
        "selected": [str(trial_id) for trial_id in result.selected],
        "top1_hit": bool(result.top_k_hit(truth, 1)) if have_truth else None,
        "top3_hit": bool(result.top_k_hit(truth, 3)) if have_truth else None,
    }


def run_scenario(
    scenario: Scenario, context=None, bank_cache=None, dataset_path=None
) -> dict:
    """Simulate one grid cell and return its summary dict."""
    ctx = _context_for(
        scenario.seed, scenario.scale, context, bank_cache, dataset_path=dataset_path
    )
    if scenario.approach == "spottune":
        result = ctx.spottune_run(
            scenario.workload,
            scenario.theta,
            scenario.predictor,
            checkpoint_policy=scenario.checkpoint_policy,
            reschedule_after=scenario.reschedule_after,
            refund_enabled=scenario.refund_enabled,
            mcnt=scenario.mcnt,
        )
    else:
        result = ctx.baseline_run(
            scenario.workload, scenario.instance, mcnt=scenario.mcnt
        )
    return summarize_run(result)


class CellOutcome(NamedTuple):
    """What :func:`execute_cell` reports: a summary or an error."""

    summary: Optional[dict]
    #: ``"Type: message"`` of the exception the cell raised.
    error: Optional[str]
    traceback: Optional[str]
    #: Predictor-bank trainings the cell caused in this process.
    bank_trainings: int
    #: Wall seconds of the simulation, the store excluded.
    seconds: float


def execute_cell(
    scenario: Scenario,
    *,
    cache: Optional[SweepCache] = None,
    context=None,
    bank_cache: Optional[BankCache] = None,
    dataset_path=None,
    faults=None,
    fault_key: str = "",
) -> CellOutcome:
    """Run one cell the way every executor does.

    Times :func:`run_scenario` (this module's global, looked up at
    call time, so a patched stand-in runs on every executor), counts
    the bank trainings it causes, and turns an exception into
    ``"Type: message"`` plus traceback so siblings keep running.  A
    summary is stored in ``cache`` the moment it exists; the fleet
    worker passes none and stores once its lease is confirmed.
    ``faults`` fires the ``worker.cell.execute`` site, keyed by
    ``fault_key``, inside the captured region.  The simulation and the
    store are traced as one ``cell`` span, whichever executor runs it.
    """
    summary = error = traceback_text = None
    trained_before = banks_mod.train_count()
    with obs.trace.span("cell", cell=f"seed={scenario.seed} {scenario.label()}"):
        started = time.monotonic()
        try:
            if faults is not None:
                from repro.sweep.distrib import faults as faults_mod

                faults_mod.perform(faults, "worker.cell.execute", fault_key)
            summary = run_scenario(
                scenario,
                context=context,
                bank_cache=bank_cache,
                dataset_path=dataset_path,
            )
        except Exception as exc:  # noqa: BLE001 — isolate sibling cells
            error = f"{type(exc).__name__}: {exc}"
            traceback_text = traceback_mod.format_exc()
        seconds = time.monotonic() - started
        if error is None and cache is not None:
            cache.store(scenario, summary)
    trained = banks_mod.train_count() - trained_before
    return CellOutcome(summary, error, traceback_text, trained, seconds)


#: The runner's own (SweepCache, BankCache), installed once per pool
#: worker by :func:`_pool_init`, so workers store with exactly the
#: parent's settings (its ``fsync`` policy included).
_POOL_CACHES: tuple = (None, None)


def _pool_init(cache, bank_cache) -> None:
    global _POOL_CACHES
    _POOL_CACHES = (cache, bank_cache)


def _pool_run_cell(task: tuple[int, Scenario]) -> tuple[int, CellOutcome]:
    """Pool worker entry point: run ONE cell through :func:`execute_cell`,
    tagged with its position in the task queue."""
    index, scenario = task
    cache, bank_cache = _POOL_CACHES
    return index, execute_cell(
        scenario,
        cache=cache,
        bank_cache=bank_cache,
        # The parent wrote this seed's market snapshot before the
        # pool started; mmap it instead of regenerating per worker.
        dataset_path=market_snapshot_dir(
            cache.root if cache is not None else None, scenario.seed
        ),
    )


def shard_cells(pending: list[Scenario]) -> list[list[Scenario]]:
    """Group cells by ``(seed, scale)``, groups in first-seen order.

    Building an experiment context (loading every market's price
    history, making each workload's trials) dominates small cells, so
    dispatch keeps the cells that share a context together.
    """
    buckets: dict[tuple[int, str], list[Scenario]] = {}
    for scenario in pending:
        buckets.setdefault((scenario.seed, scenario.scale), []).append(scenario)
    return list(buckets.values())


def task_order(pending: list[Scenario], jobs: int) -> list[Scenario]:
    """Queue order for streaming dispatch.

    With ``jobs=1`` this is the :func:`shard_cells` order, each
    context's cells in one run: the pool chunks it and the distributed
    coordinator enqueues it.  The multi-lane order of ``jobs > 1`` now
    serves only perfbench's traced replay of the pool: a pool feeds
    every worker from one shared queue, so one-cell tasks in lanes
    sent each worker through every lane's contexts.

    That order is cut into ``w = min(jobs, len(pending))`` contiguous
    lanes whose sizes differ by at most one, longer lanes first.  The
    lanes interleave rank by rank, so ``order[k::w]`` is lane ``k``:

    * the first ``w`` tasks open each lane's first context, distinct
      unless one context fills a whole lane;
    * each lane walks its contexts once, each context in one run.
    """
    grouped = [scenario for shard in shard_cells(pending) for scenario in shard]
    lanes = max(1, min(jobs, len(grouped)))
    size, longer = divmod(len(grouped), lanes)
    ordered: list = [None] * len(grouped)
    start = 0
    for lane in range(lanes):
        stop = start + size + (lane < longer)
        ordered[lane::lanes] = grouped[start:stop]
        start = stop
    return ordered


def resolve_caches(
    cache: Union[str, Path, SweepCache, None],
    bank_cache: Union[str, Path, BankCache, None, bool] = None,
) -> tuple[Union[SweepCache, None], Union[BankCache, None]]:
    """Normalise the (result cache, bank cache) pair every runner takes.

    ``bank_cache=None`` co-locates the bank cache under the result
    cache root (``banks/``) when one is set; ``False`` disables bank
    caching; a path or :class:`BankCache` pins an explicit location.
    A bank cache built here takes the result cache's fsync policy, so
    one ``--no-fsync`` governs both.
    """
    if cache is not None and not isinstance(cache, SweepCache):
        cache = SweepCache(cache)
    if bank_cache is None and cache is not None:
        bank_cache = cache.banks_root
    if bank_cache is None or bank_cache is False:
        banks = None
    elif isinstance(bank_cache, BankCache):
        banks = bank_cache
    else:
        banks = BankCache(bank_cache, fsync=cache.fsync if cache is not None else True)
    return cache, banks


@dataclass
class CellResult:
    """One completed grid cell."""

    scenario: Scenario
    summary: dict
    cached: bool = False
    #: Predictor-bank trainings this cell caused (0 for cache hits and
    #: for cells whose bank was already trained or loaded).  Kept out
    #: of ``summary`` on purpose: summaries must stay byte-identical
    #: between a fresh run and a cache replay.
    bank_trainings: int = 0
    #: Wall seconds the cell's simulation took on whatever worker ran
    #: it (0.0 for cache hits).  Telemetry only — like
    #: ``bank_trainings``, never part of ``summary``.
    seconds: float = 0.0
    #: Queue attempt the cell completed on (1 everywhere except a
    #: distributed cell that was retried or re-leased).
    attempt: int = 1


class SweepCellError(RuntimeError):
    """One or more cells failed after the rest of the sweep drained.

    Raised only once every runnable cell has been attempted, so sibling
    cells are never aborted by one failure.  ``failures`` holds
    ``(scenario, error message)`` pairs in completion order and
    ``completed`` the sibling :class:`CellResult` s that did finish, in
    grid order like :class:`SweepResult` — with a cache they are also
    on disk, so ``--resume`` re-runs exactly the failed cells; without
    one they are reachable only here.

    Distributed sweeps also attach ``details``: one quarantine-ledger
    entry (or ``None``) per failure, aligned with ``failures``,
    carrying the per-cell traceback, worker ids, and attempt history.
    """

    def __init__(
        self,
        failures: list[tuple[Scenario, str]],
        completed: list[CellResult] = (),
        persisted: bool = False,
        details: list = (),
    ) -> None:
        self.failures = list(failures)
        self.completed = list(completed)
        self.persisted = persisted
        self.details = list(details)
        shown = "; ".join(
            f"{scenario.label()}: {message}" for scenario, message in self.failures[:3]
        )
        suffix = "" if len(self.failures) <= 3 else f" (+{len(self.failures) - 3} more)"
        fate = (
            "completed cells are cached, rerun with resume to retry only the failures"
            if persisted
            else "no cache configured; completed cells survive only on this "
            "exception's .completed"
        )
        super().__init__(
            f"{len(self.failures)} sweep cell(s) failed — {fate}: {shown}{suffix}"
        )


class SweepResult:
    """Ordered cell results with small query/aggregation helpers."""

    def __init__(self, cells: Iterable[CellResult]) -> None:
        self.cells: list[CellResult] = list(cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    @property
    def executed_count(self) -> int:
        return sum(1 for cell in self.cells if not cell.cached)

    @property
    def cached_count(self) -> int:
        return sum(1 for cell in self.cells if cell.cached)

    @property
    def bank_trainings(self) -> int:
        """Total predictor-bank trainings this sweep caused."""
        return sum(cell.bank_trainings for cell in self.cells)

    def select(self, **matchers) -> list[CellResult]:
        """Cells whose scenario fields equal every given matcher.

        Matcher names must be :class:`Scenario` fields — a typoed axis
        would otherwise silently match nothing and read as an empty
        slice of the sweep.
        """
        valid = {f.name for f in fields(Scenario)}
        unknown = set(matchers) - valid
        if unknown:
            raise ValueError(
                f"unknown scenario fields: {sorted(unknown)}; "
                f"choose from {sorted(valid)}"
            )
        return [
            cell
            for cell in self.cells
            if all(getattr(cell.scenario, k) == v for k, v in matchers.items())
        ]

    def one(self, **matchers) -> CellResult:
        """The unique cell matching the filters; raises otherwise."""
        matches = self.select(**matchers)
        if len(matches) != 1:
            raise KeyError(
                f"expected exactly one cell for {matchers}, found {len(matches)}"
            )
        return matches[0]

    def summaries(self) -> list[dict]:
        return [cell.summary for cell in self.cells]


class SweepRunner:
    """Executes a :class:`ScenarioGrid`.

    Args:
        jobs: Worker processes; 1 runs everything in-process.
        cache: Result-cache directory (or a :class:`SweepCache`).
            Fresh results are always written when a cache is set.
        resume: Reuse cached summaries instead of re-simulating.
        context: Optional prebuilt experiment context shared with the
            in-process path (ignored by pool workers, which build
            their own).
        bank_cache: Where trained predictor banks persist.  ``None``
            (the default) co-locates the bank cache under the result
            cache root (``banks/`` subdirectory) when one is set;
            ``False`` disables bank caching; a path or
            :class:`~repro.sweep.banks.BankCache` pins an explicit
            location (usable even without a result cache).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Union[str, Path, SweepCache, None] = None,
        resume: bool = False,
        context=None,
        bank_cache: Union[str, Path, BankCache, None, bool] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1: {jobs}")
        self.jobs = jobs
        self.cache, self.bank_cache = resolve_caches(cache, bank_cache)
        self.resume = resume
        self._context = context

    # ------------------------------------------------------------------
    def run_one(self, scenario: Scenario) -> CellResult:
        """Deterministic in-process replay of a single cell."""
        return CellResult(
            scenario, run_scenario(scenario, self._context, self.bank_cache)
        )

    def run(
        self,
        grid: Union[ScenarioGrid, Iterable[Scenario]],
        on_cell=None,
    ) -> SweepResult:
        """Execute the grid; results stream to the cache cell by cell.

        Every cell's summary is persisted the moment it exists — by the
        worker that computed it on the pool path, immediately after
        simulation on the in-process path — so an interrupt or crash at
        any point loses nothing already finished and a later ``resume``
        run re-executes zero completed cells.

        ``on_cell(index, total, cell)`` is invoked once per cell (cache
        hits included), in completion order; the cells of one pool
        chunk arrive together when the chunk ends.

        A cell that raises does not abort its siblings; the sweep
        drains fully, then raises :class:`SweepCellError` listing the
        failed cells.
        """
        scenarios = list(grid)
        total = len(scenarios)
        done: dict[str, CellResult] = {}

        def emit(cell: CellResult) -> None:
            done[cell.scenario.fingerprint()] = cell
            if on_cell is not None:
                on_cell(len(done), total, cell)

        pending: list[Scenario] = []
        for scenario in scenarios:
            if self.resume and self.cache is not None:
                summary = self.cache.load(scenario)
                if summary is not None:
                    emit(CellResult(scenario, summary, cached=True))
                    continue
            pending.append(scenario)

        failures: list[tuple[Scenario, str]] = []
        outcomes = (
            self._pool_outcomes(pending)
            if len(pending) > 1 and self.jobs > 1
            else self._serial_outcomes(pending)
        )
        with closing(outcomes):  # an on_cell that raises stops the pool now
            for scenario, outcome in outcomes:
                if outcome.error is not None:
                    failures.append((scenario, outcome.error))
                    continue
                # Observed in the parent on both paths: a pool worker's
                # registry dies with its process, but --profile and
                # /metrics read this one.
                obs.observe("repro_worker_cell_seconds", outcome.seconds)
                emit(
                    CellResult(
                        scenario,
                        outcome.summary,
                        bank_trainings=outcome.bank_trainings,
                        seconds=outcome.seconds,
                    )
                )
        if failures:
            raise SweepCellError(
                failures,
                completed=[
                    done[s.fingerprint()] for s in scenarios if s.fingerprint() in done
                ],
                persisted=self.cache is not None,
            )
        return SweepResult(done[s.fingerprint()] for s in scenarios)

    # ------------------------------------------------------------------
    def write_market_snapshots(self, pending) -> None:
        """Make sure each pending seed has a market snapshot for the
        workers to memory-map (see :func:`ensure_market_snapshots`).

        Needs a cache; without one every worker generates its own
        markets.
        """
        if self.cache is not None:
            ensure_market_snapshots(self.cache.root, pending)

    def _serial_outcomes(self, pending) -> Iterator[tuple[Scenario, CellOutcome]]:
        for scenario in pending:
            yield scenario, execute_cell(
                scenario,
                cache=self.cache,
                context=self._context,
                bank_cache=self.bank_cache,
            )

    def _pool_outcomes(self, pending) -> Iterator[tuple[Scenario, CellOutcome]]:
        # Prefer fork where available: workers inherit any context the
        # parent already built (dataset, trained banks) copy-on-write.
        # Contexts the parent never built are constructed inside the
        # workers, so distinct seeds build their markets concurrently.
        self.write_market_snapshots(pending)
        if self._context is not None:
            _CONTEXT_CACHE.setdefault(
                (self._context.seed, self._context.scale), self._context
            )
        methods = multiprocessing.get_all_start_methods()
        mp = multiprocessing.get_context("fork" if "fork" in methods else None)
        workers = min(self.jobs, len(pending))
        ordered = task_order(pending, 1)
        largest = max(len(shard) for shard in shard_cells(pending))
        with mp.Pool(
            processes=workers,
            initializer=_pool_init,
            initargs=(self.cache, self.bank_cache),
        ) as pool:
            # Workers take context-contiguous chunks of the grouped
            # order from one shared queue: a chunk's cells share one
            # worker's context and memos, and come back as one message
            # when the chunk ends.  At most a context per chunk, and at
            # least four chunks per worker, so a one-seed grid still
            # spreads.  Each cell is persisted by its worker the moment
            # it completes, so nothing in a chunk waits on the parent.
            results = pool.imap_unordered(
                _pool_run_cell,
                enumerate(ordered),
                chunksize=max(1, min(largest, len(pending) // (4 * workers))),
            )
            for index, outcome in results:
                yield ordered[index], outcome
