"""Tests for the sweep engine: execution, caching, determinism.

The determinism regression is the load-bearing test: the same grid
cell run serially, through the worker pool, and replayed from the
on-disk cache must yield byte-identical canonical-JSON summaries.
"""

import os
import time

import pytest

from repro.analysis.context import build_context
from repro.sweep import cache as cache_mod
from repro.sweep import runner as runner_mod
from repro.sweep.cache import SweepCache, canonical_json
from repro.sweep.runner import (
    CellResult,
    SweepCellError,
    SweepResult,
    SweepRunner,
    run_scenario,
    shard_cells,
    summarize_run,
    task_order,
)
from repro.sweep.scenario import Scenario, ScenarioGrid


@pytest.fixture(scope="module")
def context():
    return build_context(seed=0, scale="small")


def tiny_grid() -> ScenarioGrid:
    return ScenarioGrid.from_axes(
        workload="LiR", theta=[0.7, 1.0], predictor="oracle", seed=0
    )


def summary_bytes(result) -> list[str]:
    return [canonical_json(cell.summary) for cell in result]


class TestSerialRunner:
    def test_runs_every_cell_in_grid_order(self, context):
        grid = tiny_grid()
        result = SweepRunner(context=context).run(grid)
        assert [cell.scenario for cell in result] == list(grid)
        assert result.executed_count == len(grid)
        assert result.cached_count == 0

    def test_shares_the_context_run_cache(self, context):
        runner = SweepRunner(context=context)
        runner.run(tiny_grid())
        # The figure runners' memoised entry for the same cell exists,
        # so a later figure reuses the sweep's simulation.
        key = ("spottune", "LiR", 0.7, "oracle", "notice", 3600.0, True, 3)
        assert key in context._run_cache

    def test_summary_matches_direct_run(self, context):
        scenario = Scenario(workload="LiR", theta=0.7, predictor="oracle")
        summary = run_scenario(scenario, context)
        direct = summarize_run(context.spottune_run("LiR", 0.7, "oracle"))
        assert canonical_json(summary) == canonical_json(direct)

    def test_run_one_replays_a_single_cell(self, context):
        scenario = Scenario(workload="LiR", theta=0.7, predictor="oracle")
        cell = SweepRunner(context=context).run_one(scenario)
        assert cell.scenario == scenario
        assert cell.summary["workload"] == "LiR"
        assert cell.summary["cost"] > 0

    def test_baseline_cells(self, context):
        grid = ScenarioGrid.from_axes(
            approach="single_spot", workload="LiR", instance="r4.large"
        )
        result = SweepRunner(context=context).run(grid)
        summary = result.one(workload="LiR").summary
        assert summary["refunded"] == 0.0
        assert summary["free_step_fraction"] == 0.0

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


class TestSweepResult:
    def test_select_and_one(self, context):
        result = SweepRunner(context=context).run(tiny_grid())
        assert len(result.select(workload="LiR")) == 2
        assert result.one(theta=0.7).scenario.theta == 0.7
        with pytest.raises(KeyError):
            result.one(workload="LiR")  # two matches
        with pytest.raises(KeyError):
            result.one(workload="nope")  # zero matches

    @staticmethod
    def canned_result() -> SweepResult:
        return SweepResult(
            CellResult(
                Scenario(workload="LiR", theta=theta, predictor="oracle"),
                {"cost": theta},
            )
            for theta in (0.7, 1.0)
        )

    def test_select_no_match_returns_empty_list(self):
        assert self.canned_result().select(workload="SVM") == []

    def test_one_reports_match_count_in_error(self):
        result = self.canned_result()
        with pytest.raises(KeyError, match="found 0"):
            result.one(workload="SVM")
        with pytest.raises(KeyError, match="found 2"):
            result.one(workload="LiR")

    def test_non_axis_matcher_rejected_with_field_names(self):
        result = self.canned_result()
        with pytest.raises(ValueError, match="gpu_count") as excinfo:
            result.select(gpu_count=2)
        assert "theta" in str(excinfo.value)  # names the valid fields
        with pytest.raises(ValueError, match="unknown scenario fields"):
            result.one(workload="LiR", thteta=0.7)

    def test_select_combines_matchers_conjunctively(self):
        result = self.canned_result()
        assert len(result.select(workload="LiR", theta=0.7)) == 1
        assert result.select(workload="LiR", theta=0.3) == []


class TestCache:
    def test_store_and_load_round_trip(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        scenario = Scenario(workload="LoR")
        summary = {"cost": 1.25, "selected": ["a", "b"]}
        path = cache.store(scenario, summary)
        assert path.exists()
        assert cache.load(scenario) == summary

    def test_load_missing_returns_none(self, tmp_path):
        assert SweepCache(tmp_path).load(Scenario(workload="LoR")) is None

    def test_corrupt_entry_ignored(self, tmp_path):
        cache = SweepCache(tmp_path)
        scenario = Scenario(workload="LoR")
        cache.path_for(scenario).write_text("{not json")
        assert cache.load(scenario) is None

    def test_mismatched_scenario_ignored(self, tmp_path):
        cache = SweepCache(tmp_path)
        a = Scenario(workload="LoR")
        b = Scenario(workload="LiR")
        cache.store(a, {"cost": 1.0})
        # Forge b's slot with a's payload: the recorded scenario no
        # longer matches, so the entry must not be trusted.
        cache.path_for(a).rename(cache.path_for(b))
        assert cache.load(b) is None

    def test_stored_bytes_are_canonical(self, tmp_path):
        cache = SweepCache(tmp_path)
        scenario = Scenario(workload="LoR")
        first = cache.store(scenario, {"b": 2, "a": 1}).read_bytes()
        second = cache.store(scenario, {"a": 1, "b": 2}).read_bytes()
        assert first == second


class TestDeterminismRegression:
    """ISSUE 2 acceptance: serial == pool == resume, byte for byte."""

    def test_serial_pool_and_resume_are_byte_identical(self, context, tmp_path):
        grid = tiny_grid()
        cache_dir = tmp_path / "cells"

        serial = SweepRunner(jobs=1, cache=cache_dir, context=context).run(grid)
        pooled = SweepRunner(jobs=2).run(grid)
        resumed = SweepRunner(jobs=1, cache=cache_dir, resume=True).run(grid)

        assert serial.executed_count == len(grid)
        assert resumed.executed_count == 0
        assert resumed.cached_count == len(grid)
        assert summary_bytes(serial) == summary_bytes(pooled) == summary_bytes(resumed)

    def test_cost_jct_identical_across_paths(self, context, tmp_path):
        grid = tiny_grid()
        serial = SweepRunner(context=context).run(grid)
        pooled = SweepRunner(jobs=2).run(grid)
        for left, right in zip(serial, pooled):
            assert left.summary["cost"] == right.summary["cost"]
            assert left.summary["jct_hours"] == right.summary["jct_hours"]
            assert left.summary["selected"] == right.summary["selected"]

    def test_resume_only_runs_missing_cells(self, context, tmp_path):
        cache_dir = tmp_path / "cells"
        half = ScenarioGrid.from_axes(workload="LiR", theta=0.7, predictor="oracle")
        SweepRunner(cache=cache_dir, context=context).run(half)
        result = SweepRunner(cache=cache_dir, resume=True, context=context).run(
            tiny_grid()
        )
        assert result.cached_count == 1
        assert result.executed_count == 1


class TestIncrementalPersistence:
    """ISSUE 3 tentpole: a killed sweep loses zero completed cells."""

    def test_interrupt_mid_sweep_preserves_completed_cells(self, context, tmp_path):
        cache_dir = tmp_path / "cells"

        def interrupt_after_first(index, total, cell):
            if index == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SweepRunner(cache=cache_dir, context=context).run(
                tiny_grid(), on_cell=interrupt_after_first
            )
        # The completed cell was persisted *before* the interrupt hit.
        assert len(list(cache_dir.glob("*.json"))) == 1
        resumed = SweepRunner(cache=cache_dir, resume=True, context=context).run(
            tiny_grid()
        )
        assert resumed.cached_count == 1
        assert resumed.executed_count == 1

    def test_pool_workers_persist_cells_themselves(self, tmp_path):
        cache_dir = tmp_path / "cells"
        grid = tiny_grid()
        SweepRunner(jobs=2, cache=cache_dir).run(grid)
        cache = SweepCache(cache_dir)
        for scenario in grid:
            assert cache.load(scenario) is not None

    def test_on_cell_reports_every_cell(self, context, tmp_path):
        seen = []
        result = SweepRunner(cache=tmp_path / "c", context=context).run(
            tiny_grid(), on_cell=lambda i, n, cell: seen.append((i, n, cell.cached))
        )
        assert seen == [(1, 2, False), (2, 2, False)]
        assert len(result) == 2

    def test_on_cell_reports_cache_hits(self, context, tmp_path):
        cache_dir = tmp_path / "c"
        SweepRunner(cache=cache_dir, context=context).run(tiny_grid())
        seen = []
        SweepRunner(cache=cache_dir, resume=True, context=context).run(
            tiny_grid(), on_cell=lambda i, n, cell: seen.append(cell.cached)
        )
        assert seen == [True, True]


class TestFsyncPolicy:
    """One ``fsync`` setting on the result cache governs every process
    of a pool sweep, as ``repro sweep --no-fsync --jobs N`` promises."""

    def test_no_fsync_cache_makes_no_fsync_in_any_process(
        self, tmp_path, monkeypatch
    ):
        log = tmp_path / "fsyncs.log"
        real = os.fsync

        def logged(fd):
            # A file, not a list: forked pool workers append to it too.
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            real(fd)

        def fsyncs() -> list[str]:
            return log.read_text(encoding="utf-8").split() if log.exists() else []

        # Installed before the pool forks, so every worker inherits it.
        monkeypatch.setattr(os, "fsync", logged)
        grid = ScenarioGrid.from_axes(
            approach="single_spot", workload="LiR", instance=["r4.large", "r4.xlarge"]
        )
        # Control: a durable cache's stores are fsynced by the workers,
        # so the log does see other processes' calls.
        SweepRunner(jobs=2, cache=SweepCache(tmp_path / "durable")).run(grid)
        assert set(fsyncs()) - {str(os.getpid())}
        log.unlink()

        result = SweepRunner(
            jobs=2, cache=SweepCache(tmp_path / "throwaway", fsync=False)
        ).run(grid)
        assert result.executed_count == 2
        assert fsyncs() == []

    def test_an_explicit_bank_cache_takes_the_result_caches_policy(self, tmp_path):
        cache = SweepCache(tmp_path / "cells", fsync=False)
        _, explicit = runner_mod.resolve_caches(cache, str(tmp_path / "banks"))
        _, co_located = runner_mod.resolve_caches(cache, None)
        assert explicit.fsync is False
        assert co_located.fsync is False


class TestFailureIsolation:
    """A failing cell reports its error without aborting siblings."""

    @pytest.fixture()
    def failing_run_scenario(self, monkeypatch):
        real = runner_mod.run_scenario

        def boom(scenario, context=None, bank_cache=None, dataset_path=None):
            if scenario.theta == 1.0:
                raise RuntimeError("injected cell failure")
            return real(scenario, context, bank_cache)

        monkeypatch.setattr(runner_mod, "run_scenario", boom)

    def test_serial_siblings_survive_a_failing_cell(
        self, context, tmp_path, failing_run_scenario
    ):
        cache_dir = tmp_path / "cells"
        with pytest.raises(SweepCellError) as excinfo:
            SweepRunner(cache=cache_dir, context=context).run(tiny_grid())
        assert len(excinfo.value.failures) == 1
        scenario, message = excinfo.value.failures[0]
        assert scenario.theta == 1.0
        assert "injected cell failure" in message
        # The sibling completed and was persisted despite the failure.
        assert len(list(cache_dir.glob("*.json"))) == 1

    def test_resume_retries_only_the_failed_cell(
        self, context, tmp_path, failing_run_scenario, monkeypatch
    ):
        cache_dir = tmp_path / "cells"
        with pytest.raises(SweepCellError):
            SweepRunner(cache=cache_dir, context=context).run(tiny_grid())
        monkeypatch.undo()
        result = SweepRunner(cache=cache_dir, resume=True, context=context).run(
            tiny_grid()
        )
        assert result.cached_count == 1
        assert result.executed_count == 1

    def test_without_a_cache_completed_cells_ride_the_exception(
        self, context, failing_run_scenario
    ):
        with pytest.raises(SweepCellError) as excinfo:
            SweepRunner(context=context).run(tiny_grid())
        error = excinfo.value
        assert not error.persisted
        assert "no cache configured" in str(error)
        assert [cell.scenario.theta for cell in error.completed] == [0.7]

    def test_pool_partial_results_come_in_grid_order(self, monkeypatch):
        # Seed is the grid's fastest axis, while the pool runs each
        # seed's cells together: completion order is not grid order.
        grid = list(
            ScenarioGrid.from_axes(
                approach="single_spot",
                workload=["LiR", "LoR"],
                instance=["r4.large", "r4.xlarge"],
                seed=[0, 1],
            )
        )

        def fake(scenario, context=None, bank_cache=None, dataset_path=None):
            if scenario == grid[-1]:
                raise RuntimeError("injected cell failure")
            return {"label": scenario.label()}

        monkeypatch.setattr(runner_mod, "run_scenario", fake)
        with pytest.raises(SweepCellError) as excinfo:
            SweepRunner(jobs=2).run(grid)
        assert [cell.scenario for cell in excinfo.value.completed] == grid[:-1]

    def test_pool_siblings_survive_a_failing_cell(
        self, tmp_path, failing_run_scenario
    ):
        # Pool workers fork after the monkeypatch, so they inherit the
        # failure injection; the healthy shard still lands on disk.
        cache_dir = tmp_path / "cells"
        with pytest.raises(SweepCellError) as excinfo:
            SweepRunner(jobs=2, cache=cache_dir).run(tiny_grid())
        assert len(excinfo.value.failures) == 1
        assert len(list(cache_dir.glob("*.json"))) == 1


class TestContextMemoBookkeeping:
    """The per-process context memo stays bounded and recency-ordered
    on the caller-supplied-context path too."""

    class FakeContext:
        def __init__(self, seed):
            self.seed = seed
            self.scale = "small"

    def test_caller_supplied_contexts_respect_the_lru_bound(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_CONTEXT_CACHE", {})
        for seed in range(runner_mod._MAX_CACHED_CONTEXTS + 4):
            ctx = self.FakeContext(seed)
            assert runner_mod._context_for(seed, "small", ctx) is ctx
        assert len(runner_mod._CONTEXT_CACHE) == runner_mod._MAX_CACHED_CONTEXTS

    def test_caller_supplied_hit_refreshes_recency(self, monkeypatch):
        monkeypatch.setattr(runner_mod, "_CONTEXT_CACHE", {})
        contexts = {
            seed: self.FakeContext(seed)
            for seed in range(runner_mod._MAX_CACHED_CONTEXTS)
        }
        for seed, ctx in contexts.items():
            runner_mod._context_for(seed, "small", ctx)
        # Touch the oldest entry, then overflow by one: the evictee
        # must be the stalest entry (seed 1), not the just-touched one.
        runner_mod._context_for(0, "small", contexts[0])
        runner_mod._context_for(99, "small", self.FakeContext(99))
        assert (0, "small") in runner_mod._CONTEXT_CACHE
        assert (1, "small") not in runner_mod._CONTEXT_CACHE


class TestStreamingOrderIndependence:
    """ISSUE 4 acceptance: byte-identical serial/streaming/resume
    replay, strengthened to hold under arbitrary cell completion
    order — the streaming queue is shuffled so cells of interleaved
    seeds finish in an order unrelated to the grid's."""

    @staticmethod
    def interleaved_grid() -> ScenarioGrid:
        return ScenarioGrid.from_axes(
            workload="LiR", theta=[0.7, 1.0], predictor="oracle", seed=[0, 1]
        )

    @pytest.fixture()
    def shuffled_queue(self, monkeypatch):
        import random

        real = runner_mod.task_order
        calls = []

        def shuffled(pending, jobs):
            calls.append(jobs)
            ordered = real(pending, jobs)
            random.Random(0xC0FFEE).shuffle(ordered)
            return ordered

        monkeypatch.setattr(runner_mod, "task_order", shuffled)
        yield
        # A pool that stopped dispatching through task_order would run
        # these tests in grid order, and they would prove nothing.
        assert calls, "the pool never called task_order"

    def test_serial_streaming_and_partial_resume_byte_identical(
        self, context, tmp_path, shuffled_queue
    ):
        grid = self.interleaved_grid()
        serial = SweepRunner(jobs=1, context=context).run(grid)

        cache_dir = tmp_path / "cells"
        streamed = SweepRunner(jobs=4, cache=cache_dir).run(grid)
        # Result order is grid order no matter what completed first.
        assert [cell.scenario for cell in streamed] == list(grid)

        # Resume from a *partial* cache: half the persisted cells are
        # deleted, so the resumed sweep mixes cache hits with shuffled
        # streaming re-executions.
        for stale in sorted(cache_dir.glob("*.json"))[::2]:
            stale.unlink()
        resumed = SweepRunner(jobs=4, cache=cache_dir, resume=True).run(grid)
        assert resumed.cached_count == 2
        assert resumed.executed_count == 2

        assert (
            summary_bytes(serial)
            == summary_bytes(streamed)
            == summary_bytes(resumed)
        )

    def test_on_cell_streams_in_completion_order(self, tmp_path, shuffled_queue):
        seen = []
        SweepRunner(jobs=2, cache=tmp_path / "c").run(
            self.interleaved_grid(),
            on_cell=lambda i, n, cell: seen.append((i, n)),
        )
        # One callback per cell, indexes counting up as cells complete.
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


class TestTaskOrder:
    def test_round_robins_across_seed_groups(self):
        grid = ScenarioGrid.from_axes(
            workload="LiR", theta=[0.7, 1.0], predictor="oracle", seed=[0, 1]
        )
        ordered = task_order(list(grid), 2)
        # The first `jobs` tasks touch distinct contexts, so workers
        # build different (seed, scale) datasets concurrently.
        assert {s.seed for s in ordered[:2]} == {0, 1}
        assert sorted(s.fingerprint() for s in ordered) == sorted(
            s.fingerprint() for s in grid
        )

    def test_preserves_relative_order_within_a_shard(self):
        grid = ScenarioGrid.from_axes(
            workload="LiR",
            theta=[0.1, 0.2, 0.3, 0.4],
            predictor="oracle",
            seed=[0, 1],
        )
        pending = list(grid)
        ordered = task_order(pending, 2)
        for shard in shard_cells(pending):
            positions = [ordered.index(s) for s in shard]
            assert positions == sorted(positions)


class TestShards:
    def test_shards_group_by_seed(self):
        grid = ScenarioGrid.from_axes(
            workload=["LiR", "LoR"], theta=[0.7, 1.0], predictor="oracle", seed=[0, 1]
        )
        shards = shard_cells(list(grid))
        for shard in shards:
            assert len({(s.seed, s.scale) for s in shard}) == 1
        assert sum(len(shard) for shard in shards) == len(grid)


class TestWarmPoolWorkers:
    """Pool workers build each context once per sweep, and a cache's
    market snapshots are generated once, then reused."""

    SEEDS = 3 * runner_mod._MAX_CACHED_CONTEXTS

    @staticmethod
    def regimes_grid(seeds: int) -> ScenarioGrid:
        # The same four Single-Spot cells on every seed.
        return ScenarioGrid.from_axes(
            approach="single_spot",
            workload=["LiR", "LoR"],
            instance=["r4.large", "r4.xlarge"],
            seed=list(range(seeds)),
        )

    @pytest.fixture()
    def generated(self, monkeypatch):
        """Seeds ``generate_default_dataset`` is called for, in this
        process only."""
        import repro.market.dataset as dataset_mod

        seeds = []
        real = dataset_mod.generate_default_dataset

        def counted(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return real(*args, **kwargs)

        monkeypatch.setattr(dataset_mod, "generate_default_dataset", counted)
        return seeds

    def test_each_worker_builds_a_context_once_per_seed(self, tmp_path, monkeypatch):
        import repro.analysis.context as context_mod

        log = tmp_path / "builds.log"
        real = context_mod.build_context

        def counted(*args, **kwargs):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{kwargs['seed']}\n")
            return real(*args, **kwargs)

        # Installed before the pool forks, so every worker inherits the
        # wrapper; an empty memo, so no worker inherits a context.
        monkeypatch.setattr(context_mod, "build_context", counted)
        monkeypatch.setattr(runner_mod, "_CONTEXT_CACHE", {})
        grid = self.regimes_grid(self.SEEDS)
        pooled = SweepRunner(jobs=2, cache=tmp_path / "cells").run(grid)

        builds = log.read_text(encoding="utf-8").splitlines()
        # Each chunk holds one seed's four cells, so exactly one worker
        # builds each seed's context; one-cell tasks from a shared
        # queue had every worker build every seed.
        assert len(builds) == self.SEEDS
        assert summary_bytes(pooled) == summary_bytes(SweepRunner(jobs=1).run(grid))

    def test_chunks_that_straddle_contexts_match_serial(self, tmp_path):
        grid = self.regimes_grid(8)
        cache_dir = tmp_path / "cells"
        serial = SweepRunner(jobs=1, cache=cache_dir).run(grid)
        stored = {path.name: path.read_bytes() for path in cache_dir.glob("*.json")}
        # Seed s keeps s % 3 of its four cells cached, so 25 cells are
        # pending in groups of 4, 3, 2, 4, 3, 2, 4, 3: chunks of three
        # cells straddle contexts.
        cache = SweepCache(cache_dir)
        for seed in range(8):
            for scenario in [s for s in grid if s.seed == seed][seed % 3 :]:
                cache.path_for(scenario).unlink()
        seen = []
        resumed = SweepRunner(jobs=2, cache=cache_dir, resume=True).run(
            grid, on_cell=lambda i, n, cell: seen.append((i, n))
        )
        assert (resumed.cached_count, resumed.executed_count) == (7, 25)
        assert seen == [(i, len(grid)) for i in range(1, len(grid) + 1)]
        assert summary_bytes(resumed) == summary_bytes(serial)
        assert {p.name: p.read_bytes() for p in cache_dir.glob("*.json")} == stored

    def test_a_one_seed_grid_runs_on_both_workers(self, monkeypatch):
        def stand_in(scenario, context=None, bank_cache=None, dataset_path=None):
            time.sleep(0.02)
            return {"pid": os.getpid()}

        # Patched before the pool forks, so both workers run it.
        monkeypatch.setattr(runner_mod, "run_scenario", stand_in)
        grid = ScenarioGrid.from_axes(
            workload="LiR",
            theta=[round(0.03 * k, 2) for k in range(1, 33)],
            predictor="oracle",
            seed=0,
        )
        result = SweepRunner(jobs=2).run(grid)
        # One context, 32 cells: chunks of four, so both workers draw.
        assert len({cell.summary["pid"] for cell in result}) == 2

    def test_a_second_pool_run_reuses_the_snapshots(self, tmp_path, generated):
        grid = self.regimes_grid(2)
        SweepRunner(jobs=2, cache=tmp_path / "cells").run(grid)
        assert sorted(generated) == [0, 1]
        generated.clear()
        SweepRunner(jobs=2, cache=tmp_path / "cells").run(grid)
        assert generated == []

    def test_a_corrupt_snapshot_is_regenerated(self, tmp_path, generated):
        import numpy as np

        from repro.market.snapshot import load_market_snapshot

        runner = SweepRunner(jobs=2, cache=tmp_path / "cells")
        pending = list(self.regimes_grid(2))
        runner.write_market_snapshots(pending)
        broken = runner_mod.market_snapshot_dir(runner.cache.root, 1)
        (broken / "meta.json").write_text("{not json", encoding="utf-8")
        generated.clear()

        runner.write_market_snapshots(pending)
        assert generated == [1]
        repaired = load_market_snapshot(broken, mmap=False)
        fresh = build_context(seed=1).dataset
        assert repaired.instance_types == fresh.instance_types
        for name in fresh.instance_types:
            assert np.array_equal(repaired[name].times, fresh[name].times)
            assert np.array_equal(repaired[name].prices, fresh[name].prices)


class TestMemoKeyGranularity:
    def test_distinct_thetas_never_share_a_memoised_run(self, context):
        # Scenario normalises theta to 6 decimals; the context memo
        # must be at least as fine-grained or two sweep cells would
        # silently share one simulation.
        context.spottune_run("LiR", 0.1234, "oracle")
        context.spottune_run("LiR", 0.1226, "oracle")
        thetas = {
            key[2] for key in context._run_cache if key[0] == "spottune" and key[1] == "LiR"
        }
        assert {0.1234, 0.1226} <= thetas


class TestMcntThreading:
    """ISSUE 5 satellite: the mcnt grid axis reaches model selection
    in both the SpotTune and the Single-Spot execution paths."""

    def test_mcnt_bounds_spottune_selection(self, context):
        narrow = run_scenario(
            Scenario(workload="LiR", theta=0.7, predictor="oracle", mcnt=1), context
        )
        default = run_scenario(
            Scenario(workload="LiR", theta=0.7, predictor="oracle"), context
        )
        assert len(narrow["selected"]) == 1
        assert len(default["selected"]) == 3
        assert narrow["selected"][0] in default["selected"]

    def test_mcnt_bounds_baseline_selection(self, context):
        narrow = run_scenario(
            Scenario(
                approach="single_spot", workload="LiR", instance="r4.large", mcnt=1
            ),
            context,
        )
        assert len(narrow["selected"]) == 1

    def test_distinct_mcnt_cells_never_share_a_memoised_run(self, context):
        a = run_scenario(
            Scenario(workload="LiR", theta=0.7, predictor="oracle", mcnt=1), context
        )
        b = run_scenario(
            Scenario(workload="LiR", theta=0.7, predictor="oracle", mcnt=2), context
        )
        assert len(a["selected"]) == 1
        assert len(b["selected"]) == 2


class TestStaleTmpSweep:
    """ISSUE 5 satellite: orphaned write-temps of killed writers are
    garbage-collected when a cache opens, instead of piling up."""

    def test_old_orphans_removed_fresh_ones_kept(self, tmp_path):
        root = tmp_path / "cells"
        root.mkdir()
        orphan = root / "deadbeef.json.tmp12345"
        orphan.write_text("{}")
        old = time.time() - 2 * cache_mod._STALE_TMP_SECONDS
        os.utime(orphan, (old, old))
        live = root / "cafef00d.json.tmp99999"  # a concurrent writer's
        live.write_text("{}")
        SweepCache(root)
        assert not orphan.exists()
        assert live.exists()

    def test_sweep_can_be_disabled_for_read_side_handles(self, tmp_path):
        root = tmp_path / "cells"
        root.mkdir()
        orphan = root / "deadbeef.json.tmp12345"
        orphan.write_text("{}")
        old = time.time() - 2 * cache_mod._STALE_TMP_SECONDS
        os.utime(orphan, (old, old))
        SweepCache(root, sweep_stale=False)
        assert orphan.exists()

    def test_completed_entries_survive_the_sweep(self, tmp_path):
        cache = SweepCache(tmp_path / "cells")
        scenario = Scenario(workload="LoR")
        cache.store(scenario, {"cost": 1.0})
        SweepCache(tmp_path / "cells")
        assert cache.load(scenario) == {"cost": 1.0}
