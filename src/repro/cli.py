"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures [--only figN ...] [--scale small|paper] [--seed N]`` —
  regenerate the paper's evaluation figures as text tables;
* ``tune --workload LoR [--theta 0.7] [--predictor oracle|revpred]`` —
  run one SpotTune HPT simulation and print its accounting;
* ``trace --instance r3.xlarge [--days 12] [--out prices.csv]`` —
  generate and optionally export a synthetic spot-price dataset;
  ``trace --chrome out.json --spans spans.ndjson`` instead converts a
  span log (written by ``sweep --trace``) into a Chrome
  ``chrome://tracing`` / Perfetto file;
* ``sweep [--spec grid.json] [--jobs N] [--resume]`` — run a
  declarative scenario grid through the streaming sweep engine, with a
  fingerprint-keyed result cache (see README.md for the spec format).
  Progress streams one line per completed cell — in real completion
  order, with the remaining queue depth and elapsed seconds, flushed
  so piped CI output sees it live — and results persist incrementally,
  so an interrupted sweep resumes with ``--resume`` re-running only
  the missing cells.  Trained predictor banks persist to a co-located
  bank cache (``--bank-cache``/``--no-bank-cache``), so each bank
  trains exactly once across workers, sweeps, and resumes.
* ``sweep --distributed [--queue DIR] [--jobs N]`` — run the same grid
  through the filesystem task broker instead of the in-process pool:
  the grid is enqueued under the cache root, ``--jobs`` local worker
  processes are launched (0 = coordinate only), and any number of
  additional ``repro sweep-worker`` processes — other machines sharing
  the directory included — drain it alongside them.
* ``sweep-worker --queue DIR`` — join a distributed sweep as one
  disposable worker: claim cells under expiring leases, execute them,
  persist summaries to the sweep's cache, repeat until the sweep is
  complete.  SIGKILLing a worker mid-cell only delays that cell by one
  lease TTL; a survivor re-leases and re-runs it.
* ``top QUEUE_DIR`` — one-shot fleet view of a distributed sweep's
  queue: depth and ledger counts, one row per worker (throughput from
  the metrics snapshots each worker publishes to ``queue/metrics/``),
  and the fleet-wide slowest cells.
* ``lint [--rule NAME ...] [--format json]`` — run the repo's
  AST-based invariant checker (determinism, durability, byte-identity
  contracts; see README "Static analysis").  Exits 1 on any finding,
  so CI and pre-commit can gate on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.analysis.context import build_context
from repro.analysis.reporting import format_table
from repro.market.synthetic import MIN_DAYS
from repro.workloads.catalog import BENCHMARK_WORKLOADS

FIGURES = ("fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10ab", "fig10c", "fig11", "fig12")


def _run_figures(args: argparse.Namespace) -> int:
    from repro.analysis import experiments as exp

    context = build_context(seed=args.seed, scale=args.scale)
    selected = args.only if args.only else list(FIGURES)
    runners = {
        "fig1": (exp.fig1_price_trace, ["series property", "value"]),
        "fig5": (exp.fig5_loss_curves, ["curve", "start", "end"]),
        "fig6": (exp.fig6_performance_profile, ["instance", "speed"]),
        "fig7": (exp.fig7_cost_jct_pcr, ["workload", "approach", "cost ($)", "JCT (h)", "PCR"]),
        "fig8": (
            exp.fig8_theta_sensitivity,
            ["theta", "mean cost ($)", "mean JCT (h)", "top-1", "top-3"],
        ),
        "fig9": (exp.fig9_refund_contribution, ["workload", "free steps", "refund share"]),
        "fig10ab": (exp.fig10ab_revpred_accuracy, ["model", "accuracy", "F1", "n"]),
        "fig10c": (exp.fig10c_predictor_effect, ["workload", "predictor", "cost ($)", "PCR"]),
        "fig11": (exp.fig11_earlycurve_vs_slaq, ["configuration", "EarlyCurve |err|", "SLAQ |err|"]),
        "fig12": (exp.fig12_checkpoint_overhead, ["item", "value"]),
    }
    for figure in selected:
        if figure not in runners:
            print(f"unknown figure {figure!r}; choose from {', '.join(FIGURES)}", file=sys.stderr)
            return 2
        runner, headers = runners[figure]
        print(f"running {figure}...", flush=True)
        result = runner(context)
        print(format_table(headers, result.rows(), title=f"== {figure} =="))
        print()
    return 0


def _run_tune(args: argparse.Namespace) -> int:
    from repro.core.baselines import CHEAPEST_INSTANCE

    context = build_context(seed=args.seed, scale=args.scale)
    trials = context.trials(args.workload)
    result = context.spottune_run(args.workload, args.theta, args.predictor)
    cheapest = context.baseline_run(args.workload, CHEAPEST_INSTANCE)
    rows = [
        ["cost ($)", f"{result.total_paid:.2f}", f"{cheapest.total_paid:.2f}"],
        ["JCT (h)", f"{result.jct / 3600:.2f}", f"{cheapest.jct / 3600:.2f}"],
        ["free steps", f"{result.free_step_fraction:.1%}", "0.0%"],
        ["refunds ($)", f"{result.total_refunded:.2f}", "0.00"],
        ["overhead", f"{result.overhead_fraction:.2%}", "0.00%"],
    ]
    print(format_table(
        ["metric", f"SpotTune(theta={args.theta})", "Single-Spot (Cheapest)"],
        rows,
        title=f"== {args.workload}: {len(trials)} configurations ==",
    ))
    print("\nselected top models:")
    for rank, trial_id in enumerate(result.selected, start=1):
        print(f"  {rank}. {trial_id} (predicted {result.predictions[trial_id]:.4f})")
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    if args.chrome:
        from repro.obs import trace as trace_mod

        if not args.spans:
            print(
                "--chrome needs --spans FILE (the span NDJSON log a sweep "
                "wrote under --trace)",
                file=sys.stderr,
            )
            return 2
        try:
            events = trace_mod.load_events(args.spans)
        except OSError as error:
            print(
                f"cannot read span log {args.spans!r}: {error}",
                file=sys.stderr,
            )
            return 2
        Path(args.chrome).write_text(trace_mod.chrome_trace_text(events))
        print(f"wrote {args.chrome} ({len(events)} span(s))")
        return 0

    from repro.market.dataset import generate_default_dataset

    dataset = generate_default_dataset(seed=args.seed, days=args.days)
    rows = []
    for name in dataset.instance_types:
        trace = dataset[name]
        rows.append([name, str(len(trace)), f"{trace.prices.min():.4f}", f"{trace.prices.max():.4f}"])
    print(format_table(["market", "records", "min ($/h)", "max ($/h)"], rows,
                       title=f"== synthetic dataset: {args.days} days, seed {args.seed} =="))
    if args.out:
        dataset.save_csv(args.out)
        print(f"\nwrote {args.out}")
    return 0


#: The demo grid `repro sweep` runs when no --spec file is given:
#: SpotTune at two thetas on two workloads over two market regimes
#: (seeds draw independent synthetic price histories) — eight cells
#: spanning every pool-parallel axis.
DEFAULT_SWEEP_SPEC = {
    "seed": [0, 1],
    "grids": [
        {
            "approach": "spottune",
            "workload": ["LoR", "LiR"],
            "theta": [0.7, 1.0],
            "predictor": "oracle",
        },
    ],
}


class _CellProgressPrinter:
    """One line per completed cell, as it completes.

    Each line carries the remaining queue depth and the elapsed wall
    seconds, so a tailing operator (or CI log) can see both *where* the
    sweep is and *how fast* it is draining.  Explicitly flushed: under
    piped/redirected output stdout is block-buffered, and an unflushed
    progress line would sit in the buffer until the sweep exits —
    invisible exactly when streaming progress matters.
    """

    def __init__(self) -> None:
        self._started = time.perf_counter()

    def __call__(self, index: int, total: int, cell) -> None:
        if cell.cached:
            status = "cached"
        else:
            status = (
                f"cost={cell.summary['cost']:.2f}$ "
                f"jct={cell.summary['jct_hours']:.2f}h"
            )
            if cell.bank_trainings:
                status += f" banks-trained={cell.bank_trainings}"
        elapsed = time.perf_counter() - self._started
        # The seed is spelled out because the stable cell label omits
        # it, and streaming interleaves cells of different seeds.
        print(
            f"[{index}/{total}] queue={total - index} t={elapsed:.1f}s "
            f"seed={cell.scenario.seed} {cell.scenario.label()}: {status}",
            flush=True,
        )


def _output_closed(recovery: str) -> int:
    """Stdout's reader went away (``repro sweep | head -1``).

    Stdout is pointed at the null device, so the flush at exit cannot
    fail again, and the exit status is 141 (128 + SIGPIPE), as SIGINT's
    is 130.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    print(f"output closed — {recovery}", file=sys.stderr)
    return 141


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import (
        BankCache,
        ScenarioGrid,
        SweepCellError,
        SweepRunner,
        cells_table,
        summary_columns,
        sweep_out_text,
    )
    from repro.sweep.distrib import (
        DEFAULT_LEASE_TTL,
        DistributedSweepRunner,
        QueueError,
    )

    if args.trace:
        from repro import obs

        obs.trace.configure(Path(args.trace))
    if args.jobs < 1 and not args.distributed:
        print(
            f"invalid sweep options: jobs must be >= 1, got {args.jobs} "
            "(--distributed --jobs 0 coordinates external sweep-worker "
            "processes instead)",
            file=sys.stderr,
        )
        return 2
    if not args.distributed and (
        args.queue
        or args.lease_ttl is not None
        or args.max_attempts is not None
        or args.retry_backoff is not None
        or args.fail_fast
        or args.fault_plan
    ):
        print(
            "invalid sweep options: --queue/--lease-ttl/--max-attempts/"
            "--retry-backoff/--fail-fast/--fault-plan configure the "
            "task broker and need --distributed",
            file=sys.stderr,
        )
        return 2
    if args.spec:
        try:
            spec = json.loads(Path(args.spec).read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"cannot read sweep spec {args.spec!r}: {error}", file=sys.stderr)
            return 2
    else:
        spec = dict(DEFAULT_SWEEP_SPEC)
    # CLI-level seed/scale act as defaults; the spec wins when it
    # names them itself.
    spec.setdefault("seed", args.seed)
    spec.setdefault("scale", args.scale)
    try:
        grid = ScenarioGrid.from_spec(spec)
    except (TypeError, ValueError) as error:
        print(f"invalid sweep spec: {error}", file=sys.stderr)
        return 2
    cache = None if args.no_cache else args.cache_dir
    if cache is not None and args.no_fsync and not args.distributed:
        # The distributed path threads fsync through the queue manifest
        # (so the whole fleet agrees); the serial/pool path only has
        # the result cache to configure.
        from repro.sweep import SweepCache

        cache = SweepCache(cache, fsync=False)
    if args.no_bank_cache:
        bank_cache = False
    elif args.bank_cache:
        # Built here, not from the result cache, so --no-fsync reaches
        # it under --no-cache too.
        bank_cache = BankCache(args.bank_cache, fsync=not args.no_fsync)
    else:
        # None co-locates under the result cache (banks/ subdirectory).
        bank_cache = None
    try:
        if args.distributed:
            if cache is None:
                raise ValueError(
                    "--distributed needs the result cache (summaries travel "
                    "from workers to the coordinator through it); drop --no-cache"
                )
            from repro.sweep.distrib import (
                DEFAULT_BACKOFF_BASE,
                DEFAULT_MAX_ATTEMPTS,
            )

            runner = DistributedSweepRunner(
                cache=cache,
                queue_dir=args.queue,
                jobs=args.jobs,
                resume=args.resume,
                bank_cache=bank_cache,
                lease_ttl=(
                    args.lease_ttl if args.lease_ttl is not None else DEFAULT_LEASE_TTL
                ),
                max_attempts=(
                    args.max_attempts
                    if args.max_attempts is not None
                    else DEFAULT_MAX_ATTEMPTS
                ),
                backoff_base=(
                    args.retry_backoff
                    if args.retry_backoff is not None
                    else DEFAULT_BACKOFF_BASE
                ),
                fail_fast=args.fail_fast,
                fault_plan=args.fault_plan,
                fsync=not args.no_fsync,
            )
        else:
            runner = SweepRunner(
                jobs=args.jobs, cache=cache, resume=args.resume, bank_cache=bank_cache
            )
    except ValueError as error:
        print(f"invalid sweep options: {error}", file=sys.stderr)
        return 2
    where = str(runner.cache.root) if runner.cache is not None else "disabled"
    banks_where = (
        str(runner.bank_cache.root) if runner.bank_cache is not None else "disabled"
    )
    if runner.cache is not None:
        recovery = (
            f"completed cells are cached ({where}); rerun with --resume to "
            "re-execute only the missing ones"
        )
    else:
        recovery = "cache disabled, completed cells were not persisted"
    started = time.perf_counter()
    try:
        result = runner.run(grid, on_cell=_CellProgressPrinter())
    except QueueError as error:
        print(f"cannot start distributed sweep: {error}", file=sys.stderr)
        return 2
    except SweepCellError as error:
        # Completed cells are already on disk; only failures re-run.
        for index, (scenario, message) in enumerate(error.failures):
            print(f"cell failed: {scenario.label()}: {message}", file=sys.stderr)
            detail = (
                error.details[index] if index < len(error.details) else None
            )
            if not detail:
                continue
            # The quarantine ledger's post-mortem: where it died, who
            # tried, how many times.
            traceback_text = detail.get("traceback")
            if traceback_text:
                print(traceback_text.rstrip(), file=sys.stderr)
            attempts = detail.get("attempts") or []
            tried = sorted(
                {a.get("worker") for a in attempts if a.get("worker")}
            )
            print(
                f"  attempts={len(attempts)} worker(s)={', '.join(tried)}",
                file=sys.stderr,
            )
        print(f"{len(error.failures)} cell(s) failed; {recovery}", file=sys.stderr)
        if args.distributed:
            print(
                f"failure ledger: {runner.queue_dir / 'failures'}",
                file=sys.stderr,
            )
        if args.out and error.completed:
            # Partial result: the surviving cells, grid-ordered and
            # canonical — byte-identical to a serial run of the same
            # surviving cells.
            Path(args.out).write_text(
                sweep_out_text(cell.summary for cell in error.completed)
            )
            print(
                f"wrote partial {args.out} "
                f"({len(error.completed)}/{len(grid)} cells)",
                file=sys.stderr,
            )
        return 1
    except KeyboardInterrupt:
        print(f"\ninterrupted — {recovery}", file=sys.stderr)
        return 130
    except BrokenPipeError:
        return _output_closed(recovery)
    try:
        elapsed = time.perf_counter() - started
        if args.out:
            # Grid-ordered canonical JSON — two runs of the same grid are
            # byte-comparable with `cmp`, whatever executed them.  Written
            # before the report, so a closed stdout cannot lose it.
            Path(args.out).write_text(sweep_out_text(result.summaries()))
        print(format_table(
            summary_columns(), cells_table(result),
            title=f"== sweep: {len(result)} cells ==",
        ), flush=True)
        mode = f"queue: {runner.queue_dir}" if args.distributed else f"jobs={args.jobs}"
        if args.distributed and runner.worker_restarts:
            mode += f"; supervisor restarted {runner.worker_restarts} worker(s)"
        print(
            f"\nexecuted {result.executed_count} cell(s), {result.cached_count} from "
            f"cache; trained {result.bank_trainings} predictor bank(s); "
            f"{mode}, {elapsed:.1f}s wall; cache: {where}; banks: {banks_where}",
            flush=True,
        )
        if args.profile:
            executed = [cell for cell in result.cells if not cell.cached]
            slowest = sorted(
                executed, key=lambda cell: cell.seconds, reverse=True
            )[: args.profile]
            rows = [
                [
                    f"seed={cell.scenario.seed} {cell.scenario.label()}",
                    f"{cell.seconds:.3f}",
                    str(cell.attempt),
                ]
                for cell in slowest
            ]
            print()
            print(
                format_table(
                    ["cell", "wall (s)", "attempt"], rows,
                    title=f"== profile: {len(rows)} slowest cell(s) ==",
                ),
                flush=True,
            )
        if args.out:
            print(f"wrote {args.out}", flush=True)
    except BrokenPipeError:
        return _output_closed(recovery)
    return 0


def _run_sweep_worker(args: argparse.Namespace) -> int:
    from repro.sweep.distrib import FaultPlan, QueueError, SweepWorker, TaskQueue

    if args.trace:
        from repro import obs

        obs.trace.configure(Path(args.trace))
    plan = None
    if args.fault_plan:
        try:
            # Hit counters bind to the queue's shared state dir, so one
            # plan file governs the whole fleet: a rule with times=1
            # fires once fleet-wide, however many workers load it.
            plan = FaultPlan.load(args.fault_plan).bind_state(
                Path(args.queue) / "fault-state"
            )
        except ValueError as error:
            print(f"cannot join sweep: {error}", file=sys.stderr)
            return 2
    try:
        queue = TaskQueue.attach(args.queue, wait_seconds=args.wait_manifest)
    except QueueError as error:
        print(f"cannot join sweep: {error}", file=sys.stderr)
        return 2

    def on_claim(lease):
        # Printed *before* the cell executes (and flushed): the signal
        # harnesses use to kill a worker provably mid-cell.
        print(
            f"claim {lease.name} attempt={lease.attempt} "
            f"seed={lease.scenario.seed} {lease.scenario.label()}",
            flush=True,
        )

    def on_cell(lease, record):
        status = "ok" if record["ok"] else f"FAILED {record['error']}"
        if record.get("quarantined"):
            status += " (quarantined: retry budget exhausted)"
        if record.get("from_cache"):
            status += " (summary already cached)"
        print(f"done {lease.name} {status}", flush=True)

    def on_retry(lease, error, delay):
        print(
            f"retry {lease.name} attempt={lease.attempt} failed ({error}); "
            f"requeued with {delay:.2f}s backoff",
            flush=True,
        )

    try:
        worker = SweepWorker(
            queue,
            worker_id=args.worker_id,
            poll_interval=args.poll,
            max_cells=args.max_cells,
            on_cell=on_cell,
            on_claim=on_claim,
            on_retry=on_retry,
            faults=plan,
        )
    except ValueError as error:
        print(f"cannot join sweep: {error}", file=sys.stderr)
        return 2
    print(f"worker {worker.worker_id} joined queue {queue.root}", flush=True)
    try:
        executed = worker.run()
    except KeyboardInterrupt:
        print("\nworker interrupted — leases expire and re-queue", file=sys.stderr)
        return 130
    print(
        f"worker {worker.worker_id} finished: {executed} cell(s) executed, "
        f"{worker.failed} failed",
        flush=True,
    )
    return 1 if worker.failed else 0


def _run_top(args: argparse.Namespace) -> int:
    from repro.obs import publish as obs_publish
    from repro.sweep.distrib import TaskQueue

    queue_root = Path(args.queue_dir)
    if not queue_root.is_dir():
        print(f"no queue directory at {queue_root}", file=sys.stderr)
        return 2
    # A bare handle: a census needs no manifest, and a fleet view
    # must never mutate queue state.
    census = TaskQueue(queue_root).census()
    print(
        f"queue {queue_root}: depth={census['pending']} "
        f"inflight={census['inflight']} done={census['done']} "
        f"quarantined={census['quarantined']}",
        flush=True,
    )
    snapshots = obs_publish.load_snapshots(queue_root)
    if not snapshots:
        print("no worker snapshots published yet (queue metrics/ is empty)")
        return 0
    fleet = obs_publish.merge_fleet(snapshots)
    rows = []
    for worker in fleet["workers"]:
        uptime = float(worker.get("uptime_seconds") or 0.0)
        executed = int(worker.get("executed") or 0)
        rate = executed / uptime * 60.0 if uptime > 0 else 0.0
        age = max(0.0, time.time() - float(worker.get("published_unix") or 0.0))
        rows.append([
            str(worker.get("worker", "?")),
            str(worker.get("pid", "")),
            f"{uptime:.0f}",
            str(executed),
            str(int(worker.get("failed") or 0)),
            str(int(worker.get("retried") or 0)),
            f"{rate:.2f}",
            f"{age:.0f}",
        ])
    print()
    print(format_table(
        ["worker", "pid", "up (s)", "executed", "failed", "retried",
         "cells/min", "age (s)"],
        rows,
        title=f"== fleet: {len(rows)} worker(s) ==",
    ))
    slowest = fleet.get("slowest_cells") or []
    if slowest:
        print()
        print(format_table(
            ["cell", "wall (s)", "attempt"],
            [
                [
                    str(cell.get("name", "?")),
                    f"{float(cell.get('seconds', 0.0)):.3f}",
                    str(cell.get("attempt", 1)),
                ]
                for cell in slowest
            ],
            title="== slowest cells (fleet-wide) ==",
        ))
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.serve import JobRegistry, SweepService

    try:
        registry = JobRegistry(
            args.cache_dir,
            jobs=args.jobs,
            lease_ttl=args.lease_ttl,
            max_attempts=args.max_attempts,
            fsync=not args.no_fsync,
        )
    except ValueError as error:
        print(f"cannot serve: {error}", file=sys.stderr)
        return 2
    try:
        service = SweepService(
            registry, host=args.host, port=args.port, quiet=args.quiet
        )
    except (OSError, OverflowError) as error:
        # A busy or out-of-range port.  The registry has already
        # adopted the jobs left running; stop their runners again.
        registry.close()
        print(f"cannot serve: {error}", file=sys.stderr)
        return 2
    adopted = [r["id"] for r in registry.list_jobs() if r["state"] == "running"]
    if adopted:
        print(f"re-adopted {len(adopted)} running job(s): {', '.join(adopted)}")
    print(
        f"serving sweeps on {service.url} (cache: {registry.cache.root})",
        flush=True,
    )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print(
            "\nshutting down — running jobs stay adoptable on restart",
            file=sys.stderr,
        )
    finally:
        service.close()
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    from repro.lint import LintError, all_rules, run_lint
    from repro.lint.rules.frozen import pin_frozen

    if args.list_rules:
        for name, rule in all_rules().items():
            print(f"{name}: {rule.description}")
        return 0
    root = Path(args.root)
    if args.pin_frozen:
        try:
            path = pin_frozen(root)
        except OSError as error:
            print(f"cannot pin frozen references: {error}", file=sys.stderr)
            return 2
        print(f"pinned frozen reference hashes: {path}")
        return 0
    try:
        findings = run_lint(root, rule_names=args.rule)
    except LintError as error:
        print(f"lint failed: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(
            json.dumps(
                {
                    "schema": 1,
                    "root": str(root),
                    "rules": sorted(args.rule) if args.rule else sorted(all_rules()),
                    "findings": [f.to_dict() for f in findings],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 1 if findings else 0
    for finding in findings:
        print(finding.render())
    if findings:
        print(
            f"\n{len(findings)} finding(s); fix them, or suppress with "
            "`# repro-lint: ignore[rule] <why>`",
            file=sys.stderr,
        )
        return 1
    print("lint clean")
    return 0


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _theta(text: str) -> float:
    """``tune --theta``: the share of max_trial_steps, in (0, 1]."""
    value = _number(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1]: {text}")
    return value


def _days(text: str) -> float:
    """``trace --days``: a finite number of days covering at least one
    minute, the generator's shortest trace."""
    value = _number(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a positive number of days: {text}")
    if value < MIN_DAYS:
        raise argparse.ArgumentTypeError(
            f"must cover at least one minute ({MIN_DAYS:.6g} days): {text}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="SpotTune reproduction command-line interface"
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument(
        "--scale", choices=("small", "paper"), default="small",
        help="model/training scale for trained predictors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("--only", nargs="*", metavar="FIG", help=f"subset of: {', '.join(FIGURES)}")
    figures.set_defaults(func=_run_figures)

    tune = sub.add_parser("tune", help="run one SpotTune HPT simulation")
    tune.add_argument("--workload", choices=tuple(BENCHMARK_WORKLOADS), default="LoR")
    tune.add_argument("--theta", type=_theta, default=0.7)
    tune.add_argument("--predictor", choices=("oracle", "revpred"), default="oracle")
    tune.set_defaults(func=_run_tune)

    trace = sub.add_parser(
        "trace",
        help="generate a synthetic price dataset, or export a span log "
        "to Chrome trace format",
    )
    trace.add_argument("--days", type=_days, default=12.0)
    trace.add_argument("--out", help="CSV output path")
    trace.add_argument(
        "--chrome", metavar="FILE",
        help="convert a span NDJSON log to a Chrome/Perfetto trace file "
        "instead of generating a dataset (needs --spans)",
    )
    trace.add_argument(
        "--spans", metavar="FILE",
        help="span NDJSON log written by `repro sweep --trace FILE`",
    )
    trace.set_defaults(func=_run_trace)

    sweep = sub.add_parser("sweep", help="run a declarative scenario grid")
    sweep.add_argument("--spec", help="JSON grid spec file (default: built-in demo grid)")
    sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (>= 1; with --distributed, local workers to "
        "launch, 0 = coordinate external workers only)",
    )
    sweep.add_argument(
        "--cache-dir", default=".repro-sweep-cache",
        help="result cache directory (default: %(default)s)",
    )
    sweep.add_argument(
        "--no-cache", action="store_true", help="do not read or write the result cache"
    )
    sweep.add_argument(
        "--bank-cache", metavar="DIR",
        help="predictor-bank cache directory (default: <cache-dir>/banks)",
    )
    sweep.add_argument(
        "--no-bank-cache", action="store_true",
        help="retrain predictor banks instead of caching them on disk",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="reuse cached cell results instead of re-simulating",
    )
    sweep.add_argument(
        "--distributed", action="store_true",
        help="run through the filesystem task broker: enqueue the grid and "
        "let sweep-worker processes (local and/or remote) drain it",
    )
    sweep.add_argument(
        "--queue", metavar="DIR",
        help="task-broker directory (default: <cache-dir>/queue)",
    )
    sweep.add_argument(
        "--lease-ttl", type=float, default=None, metavar="SECONDS",
        help="re-lease a worker's cell after this long without a heartbeat "
        "(default: the broker's DEFAULT_LEASE_TTL, 60s)",
    )
    sweep.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="retry budget per cell before quarantine into queue/failures/ "
        "(default: 3; needs --distributed)",
    )
    sweep.add_argument(
        "--retry-backoff", type=float, default=None, metavar="SECONDS",
        help="base delay before a failed cell's first retry, doubling per "
        "attempt with deterministic jitter (default: 1s; needs --distributed)",
    )
    sweep.add_argument(
        "--fail-fast", action="store_true",
        help="abort on the first failed cell instead of draining the "
        "surviving grid into a partial result (needs --distributed)",
    )
    sweep.add_argument(
        "--fault-plan", metavar="FILE",
        help="JSON fault-injection plan to rehearse outages against the "
        "fleet (needs --distributed; see README 'Failure semantics')",
    )
    sweep.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsync on queue/cache publishes (faster, but a host "
        "crash may surface published-but-empty records)",
    )
    sweep.add_argument(
        "--out", metavar="FILE",
        help="write the grid-ordered canonical-JSON summaries here "
        "(byte-comparable across serial/pool/distributed runs); on a "
        "partially-failed sweep, the surviving cells are written instead",
    )
    sweep.add_argument(
        "--profile", type=int, nargs="?", const=10, default=None, metavar="N",
        help="after the sweep, print the N slowest executed cells "
        "(wall seconds and attempt count; default N: %(const)s)",
    )
    sweep.add_argument(
        "--trace", metavar="FILE",
        help="append operational spans (cell executions) to this NDJSON "
        "log; export with `repro trace --chrome out.json --spans FILE`",
    )
    sweep.set_defaults(func=_run_sweep)

    worker = sub.add_parser(
        "sweep-worker", help="join a distributed sweep as one worker process"
    )
    worker.add_argument(
        "--queue", required=True, metavar="DIR", help="task-broker directory"
    )
    worker.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="idle sleep between claim attempts (default: %(default)s)",
    )
    worker.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="stop after executing N cells (default: run until the sweep completes)",
    )
    worker.add_argument(
        "--wait-manifest", type=float, default=30.0, metavar="SECONDS",
        help="how long to wait for the coordinator's manifest to appear "
        "(default: %(default)s)",
    )
    worker.add_argument(
        "--worker-id", default=None,
        help="lease/done-record stamp (default: host-pid-random)",
    )
    worker.add_argument(
        "--fault-plan", metavar="FILE",
        help="JSON fault-injection plan; hit counters are shared through "
        "the queue's fault-state/ dir so one plan governs the whole fleet",
    )
    worker.add_argument(
        "--trace", metavar="FILE",
        help="append operational spans (cell executions) to this NDJSON log",
    )
    worker.set_defaults(func=_run_sweep_worker)

    top = sub.add_parser(
        "top", help="fleet view of a distributed sweep's queue directory"
    )
    top.add_argument(
        "queue_dir", metavar="QUEUE_DIR",
        help="task-broker directory (e.g. <cache-dir>/queue) of a running "
        "or finished-but-unretired sweep",
    )
    top.set_defaults(func=_run_top)

    serve = sub.add_parser(
        "serve", help="run the sweep-as-a-service HTTP API"
    )
    serve.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="shared result-cache root (job registry lives under "
        "<cache>/serve/; all tenants share cell and bank caches)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: %(default)s)"
    )
    serve.add_argument(
        "--port", type=int, default=8521,
        help="bind port, 0 for ephemeral (default: %(default)s)",
    )
    serve.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="local worker processes per job; 0 = coordinate only, "
        "external sweep-workers attach to the job's queue dir "
        "(default: %(default)s)",
    )
    serve.add_argument(
        "--lease-ttl", type=float, default=60.0, metavar="SECONDS",
        help="per-job queue lease TTL (default: %(default)s)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="per-cell retry budget before quarantine (default: %(default)s)",
    )
    serve.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsyncs on registry/queue/cache publishes (throwaway runs)",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logs"
    )
    serve.set_defaults(func=_run_serve)

    lint = sub.add_parser(
        "lint", help="run the AST-based invariant checker over the repo"
    )
    lint.add_argument(
        "--root", default=".", metavar="DIR",
        help="repository checkout to lint (default: current directory)",
    )
    lint.add_argument(
        "--rule", action="append", metavar="NAME",
        help="run only this rule (repeatable; default: all rules)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: %(default)s)",
    )
    lint.add_argument(
        "--pin-frozen", action="store_true",
        help="re-record the frozen references' content hashes (only after "
        "a deliberate golden regeneration)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    lint.set_defaults(func=_run_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # Flushed here, where a reader that closed early is caught,
        # not at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # `repro sweep` catches its own, to add the --resume hint.
        return _output_closed(
            f"the reader stopped before `repro {args.command}` finished"
        )


if __name__ == "__main__":
    sys.exit(main())
