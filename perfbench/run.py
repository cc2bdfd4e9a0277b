"""SpotTune reproduction benchmark: one command, every metric, checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-grid-serial --seed 0 --seconds 25 --trace 0

Workloads: ``paper-grid-serial``, ``regimes-pool``, ``serve-fleet``
(see ``harness.py``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` repeats the workload with the program's layer functions
wrapped into spans and reports the per-layer metrics.  The report is
printed first, one metric per line with its unit and sample count; the
last line is a single JSON object::

    {"correct": true, "attempted": 48, "failed": 0, "metrics": {...}}

State lives under ``.perfbench/`` in the checkout: the revpred banks
``paper-grid-serial`` needs (trained once, on the first run, in a
directory keyed by a digest of ``src/`` so no two commits share them),
per-run caches (deleted at exit) and the span files of traced
runs.  The exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: name -> unit; printed by ``--trace 0`` in this order.
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_p50_s": "s",
    "cell_tail_s": "s",
    "submit_to_result_p50_s": "s",
    "cpu_s_per_cell": "s",
    "peak_rss_mb": "MB",
}

#: name -> unit; printed by ``--trace 1``.  Times and counts are totals
#: over the traced run (its set-ups and timed phase) unless the name
#: says per cell; means are per operation.
PER_LAYER = {
    "core.orchestrator.self_s": "s",
    "earlycurve.fits": "count",
    "earlycurve.fit_s": "s",
    "earlycurve.observe_s": "s",
    "core.provisioner.decisions": "count",
    "core.provisioner.self_s": "s",
    "revpred.queries": "count",
    "revpred.infer_s": "s",
    "workloads.metrics_s": "s",
    "workloads.make_trials_s": "s",
    "core.baselines.self_s": "s",
    "analysis.context.builds": "count",
    "analysis.context.build_s": "s",
    "analysis.context.cell_s": "s",
    "sweep.runner.self_s": "s",
    "market.generate_s": "s",
    "market.snapshot_save_s": "s",
    "market.snapshot_load_s": "s",
    "sweep.banks.loads": "count",
    "sweep.banks.load_s": "s",
    "sweep.banks.trainings": "count",
    "sweep.banks.prepare_s": "s",
    "sweep.cache.stores": "count",
    "sweep.cache.store_s": "s",
    "sweep.cache.hits": "count",
    "sweep.cache.misses": "count",
    "sweep.cache.load_s": "s",
    "io.fsyncs_per_cell": "count/cell",
    "sweep.runner.overhead_ms_per_cell": "ms",
    "sweep.runner.cell_p50_s": "s",
    "sweep.distrib.queue.claims": "count",
    "sweep.distrib.queue.claim_races": "count",
    "sweep.distrib.lease.renewals": "count",
    "sweep.distrib.lease.renew_s": "s",
    "sweep.distrib.coordinator.tail_latency_s": "s",
    "sweep.distrib.overhead_ms_per_cell": "ms",
    "sweep.distrib.worker_cpu_ms_per_cell": "ms",
    "serve.request_s.submit": "s",
    "serve.request_s.events": "s",
    "serve.request_s.result": "s",
    "serve.first_event_s": "s",
    "serve.server_cpu_ms_per_cell": "ms",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


#: Spans that enclose a whole cell.  They are traced so that their
#: children nest, but their self time is whatever the named layers
#: leave unexplained, so ``trace.coverage_frac`` leaves them out.
CATCH_ALL_LAYERS = ("sweep.runner", "analysis.context.cell")


def source_digest() -> str:
    """Digest of every file under ``src/`` — the bank directory key."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def reap(children) -> None:
    """Stop every child still running and wait until each has ended."""
    for child in children:
        if child.poll() is None:
            child.terminate()
    for child in children:
        try:
            child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()


def prepare_banks(bank_root: Path, seeds) -> dict:
    """Train the banks of ``seeds``, one ``train_bank.py`` process per
    seed, all at once; record the wall time.  Plain subprocesses, not a
    ``multiprocessing`` pool: a spawn pool starts a resource tracker
    that outlives the benchmark for a moment after it exits."""
    bank_root.mkdir(parents=True, exist_ok=True)
    print(f"perfbench: preparing revpred banks for market seeds {list(seeds)}", flush=True)
    started = time.monotonic()
    children = []
    try:
        for seed in seeds:
            children.append(
                subprocess.Popen(
                    [sys.executable, str(HERE / "train_bank.py"), str(bank_root), str(seed)],
                    stdout=subprocess.PIPE,
                    text=True,
                )
            )
        results = []
        for seed, child in zip(seeds, children):
            out, _ = child.communicate()
            if child.returncode != 0:
                raise RuntimeError(f"bank training for market seed {seed} exited {child.returncode}")
            results.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        reap(children)
    record = {
        "seeds": list(seeds),
        "prepare_s": time.monotonic() - started,
        "per_seed_s": {str(r["seed"]): r["seconds"] for r in results},
        "trainings": sum(r["trainings"] for r in results),
    }
    tmp = bank_root / "prepared.json.tmp"
    tmp.write_text(json.dumps(record, indent=1))
    os.replace(tmp, bank_root / "prepared.json")
    print(f"perfbench: banks ready in {record['prepare_s']:.1f} s", flush=True)
    return record


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end(m) -> dict:
    """``name -> (value, sample count, note)`` for one measurement."""
    import numpy as np

    cells = len(m.cells)
    count = len(m.cell_s)

    def quantile(q):
        return float(np.percentile(m.cell_s, q))

    q = harness.tail_percentile(count)
    return {
        "setup_s": (harness.median(m.setup_s), len(m.setup_s), "median of set-ups"),
        "cells_per_s": (cells / m.wall_s, cells, f"cells in {m.wall_s:.2f} s"),
        "cell_p50_s": (quantile(50.0), count, m.cell_source),
        "cell_tail_s": (quantile(q), count, f"p{q:g}, {m.cell_source}"),
        "submit_to_result_p50_s": (
            harness.median(m.submits),
            len(m.submits),
            "median of " + " ".join(f"{s:.2f}" for s in m.submits),
        ),
        "cpu_s_per_cell": (
            (m.own_cpu_s + m.child_cpu_s) / max(cells, 1),
            cells,
            f"own {m.own_cpu_s:.2f} s + children {m.child_cpu_s:.2f} s",
        ),
        "peak_rss_mb": (m.peak_rss_mb, 1, "max of process and largest child"),
    }


def per_layer(untraced, traced, baseline, tracer, prepared, fleet) -> dict:
    """``name -> value`` for every per-layer metric (0 where the
    workload never enters the layer).  ``fleet`` is the measurement
    whose ``/metrics`` scrape gives the fleet and serve layers, or
    ``None``."""
    totals = tracer.totals()
    calls, self_s, total_s = totals["calls"], totals["self_s"], totals["total_s"]
    tallies = totals["tallies"]
    timed = tracer.delta(traced.trace_after, traced.trace_before)
    # Cells the benchmark process executed itself; the fleet's run in
    # worker processes, outside the tracer's reach.
    in_process = untraced is not fleet
    cell_wall = sum(traced.cell_s) if in_process else 0.0
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(
        {
            "core.orchestrator.self_s": self_s.get("core.orchestrator", 0.0),
            "earlycurve.fits": calls.get("earlycurve.fit", 0),
            "earlycurve.fit_s": total_s.get("earlycurve.fit", 0.0),
            "earlycurve.observe_s": total_s.get("earlycurve.observe", 0.0),
            "core.provisioner.decisions": calls.get("core.provisioner", 0),
            "core.provisioner.self_s": self_s.get("core.provisioner", 0.0),
            "revpred.queries": tallies.get("revpred.queries", 0),
            "revpred.infer_s": total_s.get("revpred", 0.0),
            "workloads.metrics_s": total_s.get("workloads", 0.0),
            "workloads.make_trials_s": total_s.get("workloads.make_trials", 0.0),
            "core.baselines.self_s": self_s.get("core.baselines", 0.0),
            "analysis.context.builds": calls.get("analysis.context.build", 0),
            "analysis.context.build_s": total_s.get("analysis.context.build", 0.0),
            "analysis.context.cell_s": self_s.get("analysis.context.cell", 0.0),
            "sweep.runner.self_s": self_s.get("sweep.runner", 0.0),
            "market.generate_s": total_s.get("market.generate", 0.0),
            "market.snapshot_save_s": total_s.get("market.snapshot_save", 0.0),
            "market.snapshot_load_s": total_s.get("market.snapshot_load", 0.0),
            "sweep.banks.loads": calls.get("sweep.banks.load", 0),
            "sweep.banks.load_s": total_s.get("sweep.banks.load", 0.0),
            "sweep.banks.trainings": untraced.trainings + traced.trainings,
            "sweep.banks.prepare_s": prepared["prepare_s"],
            "sweep.cache.stores": calls.get("sweep.cache.store", 0),
            "sweep.cache.store_s": total_s.get("sweep.cache.store", 0.0),
            "sweep.cache.hits": tallies.get("sweep.cache.hits", 0),
            "sweep.cache.misses": tallies.get("sweep.cache.misses", 0),
            "sweep.cache.load_s": total_s.get("sweep.cache.load", 0.0),
            "io.fsyncs_per_cell": timed["calls"].get("io.fsync", 0) / max(len(traced.cells), 1),
        }
    )
    out["trace.overhead_frac"] = 1.0 - (len(traced.cells) / traced.wall_s) / (
        len(baseline.cells) / baseline.wall_s
    )
    if cell_wall > 0:
        named = {k: v for k, v in timed["self_s"].items() if k not in CATCH_ALL_LAYERS}
        out["trace.coverage_frac"] = sum(named.values()) / cell_wall
    if in_process:
        cells = len(untraced.worker_cell_s)
        out["sweep.runner.overhead_ms_per_cell"] = (
            1000.0
            * (untraced.wall_s * untraced.extra["workers"] - sum(untraced.worker_cell_s))
            / cells
        )
        out["sweep.runner.cell_p50_s"] = harness.median(untraced.worker_cell_s)
    else:
        scrape = fleet.extra["scrape"]
        out["sweep.cache.stores"] = scrape.total("repro_cache_store_seconds_count")
        out["sweep.cache.store_s"] = scrape.total("repro_cache_store_seconds_sum")
    if fleet is not None:
        loads = fleet.extra.get("loads")
        if loads is not None:
            out["sweep.cache.hits"] = loads["tallies"].get("sweep.cache.hits", 0)
            out["sweep.cache.misses"] = loads["tallies"].get("sweep.cache.misses", 0)
            out["sweep.cache.load_s"] = loads["total_s"].get("sweep.cache.load", 0.0)
        scrape = fleet.extra["scrape"]
        executed = len(fleet.worker_cell_s)
        job_wall = sum(fleet.submits)
        out.update(
            {
                "sweep.distrib.queue.claims": scrape.total("repro_queue_claims_total"),
                "sweep.distrib.queue.claim_races": scrape.total("repro_queue_claim_races_total"),
                "sweep.distrib.lease.renewals": scrape.total("repro_lease_renewals_total"),
                "sweep.distrib.lease.renew_s": scrape.mean("repro_lease_renew_seconds"),
                "sweep.distrib.coordinator.tail_latency_s": scrape.mean(
                    "repro_coordinator_tail_latency_seconds"
                ),
                "sweep.distrib.overhead_ms_per_cell": 1000.0
                * (job_wall * fleet.extra["workers"] - sum(fleet.worker_cell_s))
                / max(executed, 1),
                "sweep.distrib.worker_cpu_ms_per_cell": 1000.0
                * fleet.child_cpu_s
                / max(executed, 1),
                "serve.request_s.submit": scrape.mean(
                    "repro_http_request_seconds", route="/v1/sweeps"
                ),
                "serve.request_s.events": scrape.mean(
                    "repro_http_request_seconds", route="/v1/sweeps/{id}/events"
                ),
                "serve.request_s.result": scrape.mean(
                    "repro_http_request_seconds", route="/v1/sweeps/{id}/result"
                ),
                "serve.first_event_s": harness.median(
                    [t["first_event_s"] for t in fleet.extra["trips"]]
                ),
                "serve.server_cpu_ms_per_cell": 1000.0
                * fleet.own_cpu_s
                / max(len(fleet.cells), 1),
            }
        )
    return out


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    bank_root = STATE / f"banks-{source_digest()}"
    prepared_path = bank_root / "prepared.json"
    if (
        not prepared_path.is_file()
        or json.loads(prepared_path.read_text())["seeds"] != list(harness.BANK_SEEDS)
    ):
        prepare_banks(bank_root, harness.BANK_SEEDS)
        # Measure in a fresh process: the training processes' CPU and
        # peak RSS must not count against the run.
        child = subprocess.Popen([sys.executable, str(HERE / "run.py"), *args.argv])
        try:
            return child.wait()
        finally:
            reap([child])
    prepared = json.loads(prepared_path.read_text())

    from repro.sweep import banks as banks_mod

    run_dir = STATE / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    ctx = harness.RunContext(
        seed=args.seed, seconds=args.seconds, run_dir=run_dir, bank_root=bank_root
    )
    workload = harness.WORKLOADS[args.workload](ctx)
    print(f"perfbench {args.workload} seed={args.seed}: {workload.describe()}", flush=True)
    try:
        untraced = workload.measure(ctx)
        problems = workload.check(ctx, untraced)
        layers = None
        fleet = untraced if isinstance(workload, harness.ServeFleet) else None
        if args.trace:
            from spans import Tracer, install_program_layers, tally_hits

            pool = isinstance(workload, harness.RegimesPool)
            if pool:
                # The same kind of regime cells through repro serve: the
                # fleet and serve layers, measured here because the
                # serve-fleet workload is too unsteady to gate on.
                # Only the cache loads of its coordinator are traced:
                # the other layers' totals must stay the replay's.
                from repro.sweep.cache import SweepCache

                serve = harness.ServeFleet(ctx)
                loads = Tracer()
                loads.wrap_method(SweepCache, "load", "sweep.cache.load", tally_hits)
                try:
                    fleet = serve.measure(ctx)
                finally:
                    loads.uninstall()
                fleet.extra["loads"] = loads.totals()
                problems += [f"fleet pass: {p}" for p in serve.check(ctx, fleet)]
                problems += [f"fleet pass: {p}" for p in _run_problems(fleet)]
            tracer = Tracer()
            install_program_layers(tracer)
            rerun = workload.replay if pool else workload.measure
            try:
                traced = rerun(ctx, tracer=tracer)
            finally:
                tracer.uninstall()
            # The untraced baseline of trace.overhead_frac runs after the
            # traced pass: four replays of the same cells in one process
            # took 5.9, 5.6, 4.9 (traced) and 4.6 s in turn, so a
            # baseline taken first would hide the tracing overhead.
            baseline = rerun(ctx)
            traces = STATE / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            span_path = traces / f"{args.workload}.npy"
            spans = tracer.write(span_path)
            print(f"  spans: {spans} written to {span_path.relative_to(ROOT)}")
            layers = per_layer(untraced, traced, baseline, tracer, prepared, fleet)
            problems += [f"traced run: {p}" for p in _run_problems(traced)]
            problems += [f"baseline run: {p}" for p in _run_problems(baseline)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems += _run_problems(untraced)
    if banks_mod.train_count():
        problems.append(f"{banks_mod.train_count()} bank training(s) in the run; banks were not prepared")

    metrics = end_to_end(untraced)
    print("  end-to-end (untraced):")
    for name, (value, count, note) in metrics.items():
        print(f"    {name:26s} {_fmt(value):>12s} {END_TO_END[name]:4s} n={count:<6d} {note}")
    if fleet is not None:
        title = "" if fleet is untraced else "fleet pass (for the per-layer metrics): "
        print(f"    {title}jobs: {fleet.jobs} attempted, {fleet.failed_jobs} failed")
        for line in fleet_notes(fleet):
            print(f"    {line}")
    print(
        "    host: fixed loop "
        + " / ".join(f"{ms:.1f}" for ms in untraced.host_loop_ms)
        + " ms before / after the timed phase"
    )
    if layers is not None:
        print("  per-layer (traced run):")
        for name, value in layers.items():
            print(f"    {name:42s} {_fmt(value):>12s} {PER_LAYER[name]}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  checks: {'ok' if not problems else f'{len(problems)} failed'}", flush=True)

    if layers is None:
        reported = {n: {"value": v, "unit": END_TO_END[n]} for n, (v, _, _) in metrics.items()}
    else:
        reported = {n: {"value": v, "unit": PER_LAYER[n]} for n, v in layers.items()}
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": untraced.attempted,
                "failed": untraced.failed,
                "metrics": reported,
            }
        ),
        flush=True,
    )
    return 0 if not problems else 1


def fleet_notes(m) -> list:
    """Per-job timeline, and how many executed cells the ``/metrics``
    worker histogram saw against the done records."""
    lines = [
        f"job {k}: first event {t['first_event_s']:.2f} s, last {t['last_event_s']:.2f} s, "
        f"final line {t['final_s']:.2f} s, result read {t['seconds']:.2f} s"
        for k, t in enumerate(m.extra["trips"], 1)
    ]
    counted = int(m.extra["scrape"].total("repro_worker_cell_seconds_count"))
    lines.append(
        f"executed cells: {len(m.worker_cell_s)} in done records, "
        f"{counted} in the /metrics worker histogram"
    )
    return lines


def _run_problems(m) -> list:
    problems = []
    if m.failed:
        problems.append(f"{m.failed} of {m.attempted} cell(s) failed")
    if m.failed_jobs:
        problems.append(f"{m.failed_jobs} of {m.jobs} job(s) failed")
    if m.trainings:
        problems.append(f"{m.trainings} bank training(s) during the timed phase")
    return problems


def _stop(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=sorted(harness.WORKLOADS),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    args.argv = argv
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {SRC / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    # A SIGTERM unwinds through the finally blocks, which stop every
    # child process and wait for it.  Forked pool workers keep the
    # default action: their pool stops them with SIGTERM.
    signal.signal(signal.SIGTERM, _stop)
    os.register_at_fork(after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
