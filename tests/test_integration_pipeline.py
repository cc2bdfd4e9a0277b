"""End-to-end pipeline integration tests (trained predictor path).

These run the complete production path — synthetic market, trained
(compact) RevPred bank, Algorithm 1 orchestration — and assert the
paper's qualitative relationships survive the full stack, not just the
oracle shortcut used elsewhere in the suite.

Training the two banks dominates this module, so they persist in
pytest's cache directory, keyed by a digest of ``src/``: a rerun of the
same tree loads them (bit-identical to training) instead of training
again.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.context import build_context
from repro.core.baselines import run_single_spot
from repro.sweep.banks import BankCache
from repro.workloads.catalog import get_workload
from repro.workloads.trial import make_trials

SRC = Path(__file__).resolve().parents[1] / "src"


def source_digest() -> str:
    """Digest of every file under ``src/``: no bank trained by one
    tree loads into another."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@pytest.fixture(scope="module")
def context(request, tmp_path_factory):
    cache = getattr(request.config, "cache", None)
    if cache is not None:
        root = cache.mkdir(f"banks-{source_digest()}")
    else:  # the cache plugin is off (-p no:cacheprovider)
        root = tmp_path_factory.mktemp("banks")
    return build_context(seed=0, scale="small", bank_cache=BankCache(root))


@pytest.fixture(scope="module")
def lir_run(context):
    # LiR is the fastest workload to simulate; one trained-bank run.
    return context.spottune_run("LiR", 0.7, "revpred")


class TestTrainedPipeline:
    def test_run_completes_all_jobs(self, lir_run):
        assert len(lir_run.jobs) == 16
        for record in lir_run.jobs.values():
            assert record.finished_at is not None

    def test_cheaper_than_cheapest_baseline(self, context, lir_run):
        cheapest = context.baseline_run("LiR", "r4.large")
        assert lir_run.total_paid < cheapest.total_paid

    def test_faster_than_cheapest_baseline(self, context, lir_run):
        cheapest = context.baseline_run("LiR", "r4.large")
        assert lir_run.jct < cheapest.jct

    def test_collects_refunds(self, lir_run):
        assert lir_run.total_refunded > 0.0
        assert lir_run.free_step_fraction > 0.0

    def test_selection_quality(self, lir_run):
        truth = {tid: rec.true_final for tid, rec in lir_run.jobs.items()}
        assert lir_run.top_k_hit(truth, 3)

    def test_uses_multiple_markets(self, lir_run):
        instances = {
            segment.instance_name
            for record in lir_run.jobs.values()
            for segment in record.segments
        }
        assert len(instances) >= 2

    def test_overhead_below_paper_bound(self, lir_run):
        assert lir_run.overhead_fraction < 0.10

    def test_tributary_predictor_is_not_better(self, context, lir_run):
        # Fig. 10c's direction: the RevPred-driven run should not be
        # meaningfully worse than the Tributary-driven one.
        tributary = context.spottune_run("LiR", 0.7, "tributary")
        assert lir_run.total_paid <= 1.25 * tributary.total_paid
