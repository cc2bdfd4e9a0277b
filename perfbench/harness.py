"""The benchmark's three workloads, driven through public entry points.

* ``paper-grid-serial`` — ``SweepRunner(jobs=1)`` with a fresh result
  cache over a balanced half of the paper's SpotTune grid (Table II
  workloads x theta x predictor x checkpoint policy) on two market
  seeds whose revpred banks were prepared once per checkout.  The
  simulator layers (orchestrator, EarlyCurve, provisioner, revpred
  inference) do the work.
* ``regimes-pool`` — ``SweepRunner(jobs=2)`` over ~5 ms Single-Spot
  baseline cells across a window of 24 market seeds, far above the
  runner's 8-context memo, so every task reloads its context.  Pool
  dispatch, market snapshots, context reloads and one durable cache
  store per cell do the work.
* ``serve-fleet`` — an in-process ``repro serve`` (fsync on, two local
  workers per job) and one closed-loop client: submit a regime sweep
  with ``resume: true``, follow ``/events`` to the final state line,
  read ``/result``; each job's seed window overlaps the previous one's
  by half.  Queue claims, leases, fsyncs, the coordinator's tail and
  resume reconcile, the event log and worker start-up do the work.
  ``BENCHMARK.json`` does not gate on it: its server polls the event
  log without pausing while events keep coming and reads every event
  file per poll, so a job the host slows costs more server CPU, on
  cores the workers share.  In
  phases of 19-27% CPU steal on a 2-vCPU VM its throughput fell from
  ~120 to ~65 cells/s, and ten runs spread 0.44-0.57.
  ``regimes-pool --trace 1`` runs it once for the fleet and serve
  layers.

Every workload runs a fixed amount of work sized from ``--seconds``
(whole sweeps, rounds or jobs at their nominal duration on a 2-core
x86 host), so two commits time exactly the same cells and the sample
counts behind each percentile never change between runs.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import random
import re
import statistics
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

#: Table II workloads and the instance pool, spelled out so the
#: benchmark's inputs do not move when the program's catalog does.
TABLE2_WORKLOADS = ("LoR", "SVM", "GBTR", "LiR", "AlexNet", "ResNet")
POOL_INSTANCES = (
    "r4.large",
    "r4.xlarge",
    "r3.xlarge",
    "m4.2xlarge",
    "r4.2xlarge",
    "m4.4xlarge",
)

#: Market seeds whose revpred banks are trained once per checkout;
#: ``paper-grid-serial`` runs cells of both in every run.
BANK_SEEDS = (0, 1)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Percentiles a tail may be reported at; the highest one with at
#: least ten samples beyond it is used.  A fixed ladder keeps the
#: reported percentile constant while the sample count only drifts.
#: It stops at p75, which the grid's 48 cells reach with 12 beyond.
#: Over the pool's and the fleet's ~4 ms cells, higher percentiles
#: count the cells a busy core preempted: on a 2-vCPU VM, fleet p90
#: spread 0.26 between runs against 0.16 for their throughput.
TAIL_LADDER = (75.0, 50.0)

#: Cells replayed in-process per run for the byte-identity check.
REPLAY_SAMPLE = 3


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(count: float) -> float:
    """The highest ladder percentile with at least ten of ``count``
    samples beyond it."""
    for q in TAIL_LADDER:
        if count * (100.0 - q) / 100.0 >= 10.0:
            return q
    return TAIL_LADDER[-1]


def host_loop_ms() -> float:
    """Milliseconds a fixed pure-Python loop takes: printed beside each
    timed phase so that a slow host tells itself apart from a slow
    program."""
    start = perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return 1000.0 * (perf_counter() - start)


@contextlib.contextmanager
def rotating_cpu():
    """Yield ``rotate()``, which moves the calling thread to the next of
    the CPUs it may run on; the original affinity is back on exit.

    A serial sweep sits on one vCPU, and on a 2-vCPU x86 VM the two
    vCPUs ran a fixed loop in 19-21 ms and 16 ms at the same moment, so
    which one the scheduler picked set a run's speed.  Rotating cell by
    cell gives every run the same share of each.  Where affinity cannot
    be set, ``rotate()`` does nothing."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        allowed = []
    turn = itertools.cycle(allowed)

    def rotate() -> None:
        if len(allowed) > 1:
            try:
                os.sched_setaffinity(0, {next(turn)})
            except OSError:
                pass

    try:
        rotate()
        yield rotate
    finally:
        if len(allowed) > 1:
            try:
                os.sched_setaffinity(0, allowed)
            except OSError:
                pass


def cpu_seconds() -> tuple[float, float]:
    """``(own, reaped children)`` user+system CPU seconds so far."""
    times = os.times()
    return times.user + times.system, times.children_user + times.children_system


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest reaped
    child's (Linux reports kilobytes)."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def canonical(summary) -> str:
    from repro.sweep.cache import canonical_json

    return canonical_json(summary)


@dataclass
class RunContext:
    """Everything a workload needs from the command line and checkout."""

    seed: int
    seconds: float
    run_dir: Path
    bank_root: Path
    _counter: itertools.count = field(default_factory=itertools.count)

    def fresh_dir(self, name: str) -> Path:
        path = self.run_dir / f"{name}-{next(self._counter)}"
        path.mkdir(parents=True)
        return path

    def bank_cache(self):
        from repro.sweep.banks import BankCache

        return BankCache(self.bank_root)


@dataclass
class Measurement:
    """One pass of a workload: set-ups, then the timed phase."""

    setup_s: list
    wall_s: float = 0.0
    #: ``(scenario, summary)`` of every completed cell, in completion order.
    cells: list = field(default_factory=list)
    #: Per-cell seconds behind ``cell_p50_s`` / ``cell_tail_s``, and
    #: where they come from.
    cell_s: list = field(default_factory=list)
    cell_source: str = ""
    #: Seconds the executing worker reported per cell (``CellResult.seconds``).
    worker_cell_s: list = field(default_factory=list)
    submits: list = field(default_factory=list)
    own_cpu_s: float = 0.0
    child_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    trainings: int = 0
    jobs: int = 0
    failed_jobs: int = 0
    #: :func:`host_loop_ms` just before and just after the timed phase.
    host_loop_ms: list = field(default_factory=list)
    #: Tracer totals at the start and end of the timed phase.
    trace_before: Optional[dict] = None
    trace_after: Optional[dict] = None
    extra: dict = field(default_factory=dict)


class TimedPhase:
    """Wall and CPU bookkeeping around the timed phase."""

    def __init__(self, measurement: Measurement, tracer=None) -> None:
        self.m = measurement
        self.tracer = tracer

    def __enter__(self) -> "TimedPhase":
        from repro.sweep import banks

        if self.tracer is not None:
            self.m.trace_before = self.tracer.totals()
        self.m.host_loop_ms.append(host_loop_ms())
        self._trained = banks.train_count()
        self._cpu = cpu_seconds()
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        from repro.sweep import banks

        self.m.wall_s = perf_counter() - self._start
        own, child = cpu_seconds()
        self.m.own_cpu_s = own - self._cpu[0]
        self.m.child_cpu_s = child - self._cpu[1]
        self.m.trainings += banks.train_count() - self._trained
        self.m.peak_rss_mb = peak_rss_mb()
        if self.tracer is not None:
            self.m.trace_after = self.tracer.totals()
        self.m.host_loop_ms.append(host_loop_ms())


def repeated_setup(setup, ctx: RunContext, release=None):
    """Run ``setup(ctx)`` :data:`SETUP_REPEATS` times from an empty
    per-run state; keep the last state.  Each earlier state is released
    and freed before the next set-up starts, so the process never holds
    two and its peak RSS is the program's, not the harness's."""
    seconds = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            if release is not None:
                release(state)
            state = None
            gc.collect()
        start = perf_counter()
        state = setup(ctx)
        seconds.append(perf_counter() - start)
    return seconds, state


def replay_sample(ctx: RunContext, m: Measurement, bank_cache=None) -> list:
    """Replay :data:`REPLAY_SAMPLE` completed cells in-process with
    ``run_scenario`` on freshly built contexts (markets generated anew,
    banks loaded anew); each summary must equal the one the workload
    produced, and the result cache's copy, byte for byte."""
    from repro.analysis.context import build_context
    from repro.sweep import SweepCache, run_scenario

    cache = SweepCache(m.extra["cache_root"], sweep_stale=False)
    problems = []
    picked = random.Random(ctx.seed).sample(range(len(m.cells)), min(REPLAY_SAMPLE, len(m.cells)))
    for index in sorted(picked):
        scenario, summary = m.cells[index]
        fresh = build_context(scenario.seed, bank_cache=bank_cache)
        expected = canonical(summary)
        if canonical(run_scenario(scenario, context=fresh)) != expected:
            problems.append(f"replay differs: seed={scenario.seed} {scenario.label()}")
        if canonical(cache.load(scenario)) != expected:
            problems.append(f"cached summary differs: seed={scenario.seed} {scenario.label()}")
    return problems


# ---------------------------------------------------------------------------
# paper-grid-serial
# ---------------------------------------------------------------------------
class PaperGridSerial:
    name = "paper-grid-serial"
    #: Ordered so that the two configs of one parity differ in both
    #: predictor and checkpoint policy; they share a block on each seed.
    configs = (
        ("oracle", "notice"),
        ("oracle", "periodic"),
        ("revpred", "periodic"),
        ("revpred", "notice"),
    )
    #: Half of the 96-cell grid (48 cells, 0.15-1.3 s each) takes
    #: ~30-45 s on a 2-vCPU x86 VM.
    nominal_half_s = 30.0

    def __init__(self, ctx: RunContext) -> None:
        """The grid is 4 configs x 2 market seeds x 6 workloads x 2
        thetas.  The seed shuffles the workloads and splits the 12
        (workload, theta) cells into two blocks of six, each holding
        every workload once, three at each theta.  Config c on market
        seed s runs block (c + s + h) mod 2 in half h, so in every half
        each config meets every (workload, theta) once and each seed
        meets it twice, and the two halves partition the grid.  A run
        does one sweep per market seed (24 cells); the seed picks the
        half, the block split and the seed order.  A half's 48 cells
        leave 12 beyond the p75 tail."""
        from repro.sweep import Scenario, ScenarioGrid

        rng = random.Random(ctx.seed)
        w = list(TABLE2_WORKLOADS)
        rng.shuffle(w)
        slow, fast = 0.7, 1.0  # theta 0.7 cells run longer
        blocks = [
            [(w[0], slow), (w[1], slow), (w[2], slow), (w[3], fast), (w[4], fast), (w[5], fast)],
            [(w[0], fast), (w[1], fast), (w[2], fast), (w[3], slow), (w[4], slow), (w[5], slow)],
        ]
        first = rng.randrange(2)
        count = min(2, max(1, round(ctx.seconds / self.nominal_half_s)))
        order = list(range(len(BANK_SEEDS)))
        rng.shuffle(order)
        self.seeds = BANK_SEEDS
        self.sweeps = [
            ScenarioGrid(
                Scenario(
                    workload=workload,
                    theta=theta,
                    predictor=predictor,
                    checkpoint_policy=policy,
                    seed=BANK_SEEDS[s],
                )
                for c, (predictor, policy) in enumerate(self.configs)
                for workload, theta in blocks[(c + s + half) % 2]
            )
            for half in (first, 1 - first)[:count]
            for s in order
        ]

    def describe(self) -> str:
        cells = sum(len(g) for g in self.sweeps)
        return (
            f"{len(self.sweeps)} sweeps over market seeds {list(self.seeds)}, "
            f"{cells} cells"
        )

    def setup(self, ctx: RunContext):
        """Fresh result cache, one context per seed with its market
        generated and its prepared revpred bank loaded."""
        import repro.analysis.context as context_mod
        from repro.sweep import SweepRunner

        cache = ctx.fresh_dir("cache")
        bank_cache = ctx.bank_cache()
        runners = {}
        for seed in self.seeds:
            context = context_mod.build_context(seed, bank_cache=bank_cache)
            context.dataset
            context.revpred_bank
            runners[seed] = SweepRunner(
                jobs=1, cache=cache, context=context, bank_cache=bank_cache
            )
        return runners

    def measure(self, ctx: RunContext, tracer=None) -> Measurement:
        from repro.sweep import SweepCellError

        setups, runners = repeated_setup(self.setup, ctx)
        m = Measurement(setup_s=setups, cell_source="gaps between on_cell callbacks")
        with rotating_cpu() as rotate, TimedPhase(m, tracer):
            for grid in self.sweeps:
                runner = runners[grid.scenarios[0].seed]
                last = [perf_counter()]
                submitted = last[0]

                def on_cell(_done, _total, cell, last=last):
                    now = perf_counter()
                    m.cell_s.append(now - last[0])
                    last[0] = now
                    m.worker_cell_s.append(cell.seconds)
                    m.cells.append((cell.scenario, cell.summary))
                    rotate()

                try:
                    runner.run(grid, on_cell=on_cell)
                except SweepCellError as error:
                    m.failed += len(error.failures)
                m.submits.append(perf_counter() - submitted)
                m.attempted += len(grid)
        m.extra["cache_root"] = next(iter(runners.values())).cache.root
        m.extra["workers"] = 1
        return m

    def check(self, ctx: RunContext, m: Measurement) -> list:
        return replay_sample(ctx, m, bank_cache=ctx.bank_cache())



# ---------------------------------------------------------------------------
# regimes-pool
# ---------------------------------------------------------------------------
class RegimesPool:
    name = "regimes-pool"
    #: Three times the runner's 8-context memo: with fewer seeds the
    #: memo hit ratio depends on which worker drew which task.
    window = 24
    mcnts = (1, 2, 3)
    jobs = 2
    #: One 864-cell round (one mcnt over the window) takes 5-8 s on a
    #: 2-vCPU x86 VM.
    nominal_round_s = 7.5

    def __init__(self, ctx: RunContext) -> None:
        from repro.sweep import ScenarioGrid

        first = 1000 + self.window * ctx.seed
        self.seeds = list(range(first, first + self.window))
        # Whole blocks of rounds: each block runs every mcnt once.
        block = len(self.mcnts)
        count = block * max(1, round(ctx.seconds / (block * self.nominal_round_s)))
        self.rounds = [
            ScenarioGrid.from_axes(
                approach="single_spot",
                workload=list(TABLE2_WORKLOADS),
                instance=list(POOL_INSTANCES),
                mcnt=self.mcnts[index % len(self.mcnts)],
                seed=self.seeds,
            )
            for index in range(count)
        ]

    def describe(self) -> str:
        cells = sum(len(g) for g in self.rounds)
        return (
            f"market seeds {self.seeds[0]}..{self.seeds[-1]}, "
            f"{len(self.rounds)} rounds, {cells} cells, jobs={self.jobs}"
        )

    def setup(self, ctx: RunContext):
        """Fresh result cache and pool runner; the window's market
        snapshots written for the workers to memory-map."""
        from repro.sweep import SweepRunner

        runner = SweepRunner(jobs=self.jobs, cache=ctx.fresh_dir("cache"))
        runner.write_market_snapshots(list(self.rounds[0]))
        return runner

    def measure(self, ctx: RunContext, tracer=None) -> Measurement:
        from repro.sweep import SweepCellError

        setups, runner = repeated_setup(self.setup, ctx)
        m = Measurement(setup_s=setups, cell_source="CellResult.seconds of pool workers")

        def on_cell(_done, _total, cell):
            m.cell_s.append(cell.seconds)
            m.worker_cell_s.append(cell.seconds)
            m.cells.append((cell.scenario, cell.summary))

        with TimedPhase(m, tracer):
            for grid in self.rounds:
                submitted = perf_counter()
                try:
                    runner.run(grid, on_cell=on_cell)
                except SweepCellError as error:
                    m.failed += len(error.failures)
                m.submits.append(perf_counter() - submitted)
                m.attempted += len(grid)
        m.extra["cache_root"] = runner.cache.root
        m.extra["workers"] = self.jobs
        return m

    def check(self, ctx: RunContext, m: Measurement) -> list:
        return replay_sample(ctx, m)

    def replay(self, ctx: RunContext, tracer=None) -> Measurement:
        """The first round's cells in-process, in the pool's task order,
        with the snapshot path the pool passes and one durable store per
        cell — the pool's per-cell work without the pool.  Each replay
        sets up afresh (traced, its snapshot writes show), so the traced
        and the untraced replay do the same work."""
        import repro.sweep.runner as runner_mod

        setups, runner = repeated_setup(self.setup, ctx)
        cache = runner.cache
        cache_root = cache.root
        ordered = runner_mod.task_order(list(self.rounds[0]), self.jobs)
        m = Measurement(setup_s=setups, cell_source="in-process replay")
        with TimedPhase(m, tracer):
            for scenario in ordered:
                started = perf_counter()
                summary = runner_mod.run_scenario(
                    scenario,
                    dataset_path=str(runner_mod.market_snapshot_dir(cache_root, scenario.seed)),
                )
                cache.store(scenario, summary)
                m.cell_s.append(perf_counter() - started)
                m.cells.append((scenario, summary))
        m.attempted = len(ordered)
        return m



# ---------------------------------------------------------------------------
# serve-fleet
# ---------------------------------------------------------------------------
_SERIES = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{.*\})? (\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def scrape_metrics(url: str) -> dict:
    """``GET /metrics`` as ``{(name, ((label, value), ...)): number}``."""
    with urllib.request.urlopen(url + "/metrics", timeout=30) as response:
        text = response.read().decode("utf-8")
    series = {}
    for line in text.splitlines():
        match = _SERIES.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        key = tuple(sorted(_LABEL.findall(labels or "")))
        series[(name, key)] = float(value)
    return series


class Scrape:
    """The difference between two ``/metrics`` scrapes."""

    def __init__(self, before: dict, after: dict) -> None:
        self.delta = {k: v - before.get(k, 0.0) for k, v in after.items()}

    def total(self, name: str, **labels) -> float:
        want = set(labels.items())
        return sum(
            value
            for (series, key), value in self.delta.items()
            if series == name and want <= set(key)
        )

    def mean(self, name: str, **labels) -> float:
        count = self.total(name + "_count", **labels)
        return self.total(name + "_sum", **labels) / count if count else 0.0


@contextlib.contextmanager
def distributed_cells(record):
    """Call ``record(cell)`` with every ``CellResult`` a
    ``DistributedSweepRunner.run`` streams, beside the caller's own
    ``on_cell``.  Executed cells carry the seconds their worker measured
    in its done record, so per-cell times cover every cell, unlike the
    ``/metrics`` histogram, which loses the counts of a worker stopped
    before its last snapshot flush."""
    from repro.sweep.distrib import DistributedSweepRunner

    original = DistributedSweepRunner.__dict__["run"]

    def run(self, grid, on_cell=None, **kwargs):
        def tapped(done, total, cell):
            record(cell)
            if on_cell is not None:
                on_cell(done, total, cell)

        return original(self, grid, on_cell=tapped, **kwargs)

    DistributedSweepRunner.run = run
    try:
        yield
    finally:
        DistributedSweepRunner.run = original


class ServeFleet:
    name = "serve-fleet"
    window = 4
    mcnts = (1, 2, 3)
    workers = 2
    #: One 432-cell job (half served from the cache) takes 3-4 s on a
    #: 2-vCPU x86 VM.
    nominal_job_s = 3.5

    def __init__(self, ctx: RunContext) -> None:
        self.first = 100000 + 1000 * ctx.seed
        self.job_count = max(1, round(ctx.seconds / self.nominal_job_s))
        half = self.window // 2
        # The set-up job is the half of job 1's window that job 1 then
        # finds in the cache; every timed job overlaps its predecessor
        # by half a window.
        self.setup_spec = self.spec(self.first + half, half)
        self.specs = [
            self.spec(self.first + k * half, self.window)
            for k in range(1, self.job_count + 1)
        ]

    def spec(self, first: int, seeds: int) -> dict:
        return {
            "approach": "single_spot",
            "workload": list(TABLE2_WORKLOADS),
            "instance": list(POOL_INSTANCES),
            "mcnt": list(self.mcnts),
            "seed": list(range(first, first + seeds)),
        }

    def describe(self) -> str:
        return (
            f"market seeds from {self.first}, {self.job_count} jobs of "
            f"{self.window} seeds overlapping by half, {self.workers} workers/job"
        )

    def setup(self, ctx: RunContext):
        """Fresh cache, a started service, and the first job's round trip."""
        from repro.serve import JobRegistry, SweepClient, SweepService

        registry = JobRegistry(ctx.fresh_dir("cache"), jobs=self.workers, fsync=True)
        service = SweepService(registry).start()
        client = SweepClient(service.url, timeout=120)
        trip = self.round_trip(client, self.setup_spec)
        if not trip["final"] or trip["final"]["state"] != "done":
            service.close()
            raise RuntimeError(f"set-up job ended {trip['final']}")
        return service, client

    @staticmethod
    def release(state) -> None:
        state[0].close()

    @staticmethod
    def round_trip(client, spec: dict) -> dict:
        """Submit, follow ``/events`` to the final state line, read
        ``/result``; the client never polls."""
        submitted = perf_counter()
        record = client.submit(spec, resume=True)
        events, final, first_event, last_event = [], None, None, None
        for line in client.stream_events(record["id"], timeout=120):
            now = perf_counter() - submitted
            if first_event is None:
                first_event = now
            if "seq" in line:
                events.append(line)
                last_event = now
            else:
                final = line
        final_s = perf_counter() - submitted
        body = client.result_text(record["id"]) if final and final["state"] == "done" else None
        return {
            "spec": spec,
            "seconds": perf_counter() - submitted,
            "first_event_s": first_event,
            "last_event_s": last_event,
            "final_s": final_s,
            "events": events,
            "final": final,
            "body": body,
        }

    def measure(self, ctx: RunContext, tracer=None) -> Measurement:
        from repro.sweep import Scenario

        setups, (service, client) = repeated_setup(
            self.setup, ctx, release=self.release
        )
        m = Measurement(
            setup_s=setups, cell_source="worker seconds of executed cells' done records"
        )
        trips = []

        def on_cell(cell):
            if not cell.cached:
                m.cell_s.append(cell.seconds)
                m.worker_cell_s.append(cell.seconds)

        try:
            before = scrape_metrics(service.url)
            with distributed_cells(on_cell), TimedPhase(m, tracer):
                for spec in self.specs:
                    trips.append(self.round_trip(client, spec))
            scrape = Scrape(before, scrape_metrics(service.url))
        finally:
            service.close()
        for trip in trips:
            m.jobs += 1
            m.submits.append(trip["seconds"])
            total = trip["final"]["total"] if trip["final"] else 0
            m.attempted += total
            if not trip["final"] or trip["final"]["state"] != "done":
                m.failed_jobs += 1
                m.failed += total - len(trip["events"])
            for event in trip["events"]:
                m.cells.append((Scenario.from_dict(event["scenario"]), event["summary"]))
        m.trainings += int(scrape.total("repro_bank_trainings_total"))
        m.extra.update(
            trips=trips,
            scrape=scrape,
            workers=self.workers,
            cache_root=service.registry.cache.root,
        )
        return m

    def check(self, ctx: RunContext, m: Measurement) -> list:
        """``/result`` must be ``sweep_out_text`` of the streamed
        summaries in grid order; a sample replays byte-identically."""
        from repro.sweep import ScenarioGrid, sweep_out_text

        problems = []
        for trip in m.extra["trips"]:
            by_fingerprint = {e["fingerprint"]: e["summary"] for e in trip["events"]}
            grid = ScenarioGrid.from_spec(trip["spec"])
            try:
                expected = sweep_out_text(by_fingerprint[s.fingerprint()] for s in grid)
            except KeyError:
                problems.append(f"events miss cells of job seeds {trip['spec']['seed']}")
                continue
            if trip["body"] != expected:
                problems.append(f"/result differs from the streamed summaries, seeds {trip['spec']['seed']}")
        return problems + replay_sample(ctx, m)



WORKLOADS = {cls.name: cls for cls in (PaperGridSerial, RegimesPool, ServeFleet)}
