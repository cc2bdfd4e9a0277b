"""Batched-core speedup: the live hot path vs the frozen scalar core.

The per-cell hot path is vectorised and memoised — curve observation
and accounting, incremental plateau detection, memoised feature rows
and history embeddings, cache-free inference, one stacked
``probability_many`` pass per provisioning decision — under a strict
byte-identity contract with the pre-batching code, which is kept
verbatim in :mod:`repro.core.reference`.  This benchmark drives the
most predictor-heavy golden cell (LoR at theta 0.7 over an untrained
RevPred bank) through both cores, asserts the summaries are
byte-identical, and enforces the acceptance floor: the batched core is
at least 5x faster.  Every round, the warm-up included, gets a fresh
bank, so each timed round computes every history embedding and
feature row it queries; the context's EarlyCurve memo is warm after the
warm-up round, as it is for every cell after a context's first.

Run with ``pytest benchmarks/bench_cell_batched.py -s``.
"""

import time

from repro.analysis.cells import run_cell
from repro.core.reference import (
    ReferenceBankPredictor,
    ReferenceCachingPredictor,
    ReferenceOrchestrator,
)
from repro.revpred.predictor import CachingPredictor
from repro.revpred.trainer import untrained_predictor_bank
from repro.sweep.cache import canonical_json

WORKLOAD = "LoR"
THETA = 0.7


def _run_live(context, bank):
    return run_cell(context, WORKLOAD, THETA, CachingPredictor(bank))


def _run_reference(context, bank):
    return run_cell(
        context,
        WORKLOAD,
        THETA,
        ReferenceCachingPredictor(ReferenceBankPredictor(bank)),
        orchestrator_cls=ReferenceOrchestrator,
    )


def test_batched_cell_is_5x_faster(benchmark, context):
    bank = untrained_predictor_bank(context.dataset)

    reference_started = time.perf_counter()
    reference_summary = _run_reference(context, bank)
    reference_elapsed = time.perf_counter() - reference_started

    # A fresh bank and memoising wrapper per round: a warm embedding
    # memo would flatter the measurement, and the scalar core has none.
    live_summary = benchmark.pedantic(
        _run_live,
        setup=lambda: ((context, untrained_predictor_bank(context.dataset)), {}),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    live_elapsed = benchmark.stats.stats.min

    assert canonical_json(live_summary) == canonical_json(reference_summary), (
        "batched core diverged from the frozen scalar core — the "
        "byte-identity contract is broken, speed is irrelevant"
    )

    speedup = reference_elapsed / live_elapsed
    print(
        f"\n{WORKLOAD} theta={THETA} untrained-bank cell: "
        f"scalar {reference_elapsed:.2f}s, batched {live_elapsed:.3f}s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"batched cell is only {speedup:.1f}x faster than the frozen "
        "scalar core; the acceptance floor is 5x"
    )
