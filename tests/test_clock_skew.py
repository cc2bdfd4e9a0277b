"""Cross-host clock-skew regressions (ISSUE 7 satellites).

A fleet shares exactly one clock its members can all observe: the
mtimes the shared mount stamps on their writes.  Anything that compares
a *local* ``time.time()`` against a stamp another host produced — an
absolute retry ``not_before``, a stale-tmp age gate — silently imports
the full cross-host skew.  These tests pin the two fixes:

* retry backoff is a *relative* ``defer_for`` anchored to the task
  file's own mtime, so the re-queueing host's wall clock never decides
  when another host may claim;
* stale-tmp GC in ``SweepCache``/``BankCache``/``TaskQueue`` measures
  tmp ages against the mount's clock (a probe write), so a fast local
  clock can never reap a live writer's in-flight temp file.
"""

import json
import os
import time

import pytest

from repro.sweep.banks import BankCache
from repro.sweep.cache import SweepCache, mount_now
from repro.sweep.distrib import TaskQueue, task_name
from repro.sweep.runner import task_order
from repro.sweep.scenario import ScenarioGrid


def one_cell():
    grid = ScenarioGrid.from_axes(
        workload="LiR", theta=[0.7], predictor="oracle", seed=0
    )
    return task_order(list(grid), jobs=1)


def make_queue(tmp_path):
    cache = SweepCache(tmp_path / "cells")
    return TaskQueue.create(
        cache.queue_root,
        one_cell(),
        cache_path="..",
        backoff_base=0.01,
        backoff_cap=0.05,
        fsync=False,
    )


def skew_clock(monkeypatch, module_path: str, offset: float):
    """Make ``module_path``'s ``time.time`` run ``offset`` seconds off."""
    real = time.time

    class _SkewedTime:
        @staticmethod
        def time():
            return real() + offset

    monkeypatch.setattr(f"{module_path}.time", _SkewedTime)


class TestRetryBackoffSkew:
    def test_fast_writer_clock_does_not_park_the_retry(self, tmp_path, monkeypatch):
        # The failing worker's wall clock is 10 minutes ahead.  An
        # absolute not_before stamp would defer the retry for 10
        # minutes on every honest host; the mtime-anchored defer_for
        # must release it after the actual 0.05s backoff.
        queue = make_queue(tmp_path)
        lease = queue.claim("w-fast")
        with pytest.MonkeyPatch.context() as mp:
            skew_clock(mp, "repro.sweep.distrib.lease", 600.0)
            lease.retry("transient", None, delay=0.05)
        payload = json.loads((queue.tasks_dir / lease.name).read_text())
        assert payload["defer_for"] == 0.05
        assert "not_before" not in payload  # no absolute stamp to poison
        assert queue.claim("w2") is None  # still inside the real backoff
        time.sleep(0.1)
        again = queue.claim("w2")
        assert again is not None and again.attempt == 2

    def test_slow_writer_clock_does_not_release_instantly(self, tmp_path, monkeypatch):
        # The failing worker's clock is 10 minutes behind: an absolute
        # stamp lands in every honest host's past and the backoff
        # collapses to zero.  The relative stamp must still defer.
        queue = make_queue(tmp_path)
        lease = queue.claim("w-slow")
        with pytest.MonkeyPatch.context() as mp:
            skew_clock(mp, "repro.sweep.distrib.lease", -600.0)
            lease.retry("transient", None, delay=30.0)
        payload = json.loads((queue.tasks_dir / lease.name).read_text())
        assert "not_before" not in payload  # no absolute stamp to collapse
        assert queue.claim("w2") is None  # the relative stamp still backs off

    def test_future_task_mtime_cannot_extend_the_backoff(self, tmp_path):
        # A skewed *mount* clock stamping the re-queued task in the
        # future: the deferral anchor clamps to now, so the wait is
        # bounded by the delay itself — here zero, claimable at once.
        queue = make_queue(tmp_path)
        lease = queue.claim("w1")
        lease.retry("transient", None, delay=0.0)
        task = queue.tasks_dir / lease.name
        os.utime(task, (time.time() + 3600, time.time() + 3600))
        again = queue.claim("w2")
        assert again is not None and again.attempt == 2


class TestStaleTmpMountClock:
    def test_mount_now_samples_the_filesystem_clock(self, tmp_path):
        stamp = mount_now(tmp_path)
        assert abs(stamp - time.time()) < 60.0
        assert list(tmp_path.iterdir()) == []  # probe cleaned up

    def test_fast_local_clock_cannot_reap_live_sweep_tmp(self, tmp_path, monkeypatch):
        # Another host is mid-publish (its tmp file is seconds old by
        # the mount's clock) while this host's wall clock runs two
        # hours ahead.  Judged locally the tmp looks ancient; judged
        # by the mount it is fresh and must survive.
        root = tmp_path / "cells"
        root.mkdir()
        tmp = root / "abcd.json.tmp999"
        tmp.write_text("{}")
        skew_clock(monkeypatch, "repro.sweep.cache", 7200.0)
        SweepCache(root, fsync=False)
        assert tmp.exists()

    def test_genuinely_stale_sweep_tmp_is_reaped(self, tmp_path):
        root = tmp_path / "cells"
        root.mkdir()
        tmp = root / "abcd.json.tmp999"
        tmp.write_text("{}")
        old = time.time() - 7200.0
        os.utime(tmp, (old, old))
        SweepCache(root, fsync=False)
        assert not tmp.exists()

    def test_fast_local_clock_cannot_reap_live_bank_tmp(self, tmp_path, monkeypatch):
        root = tmp_path / "banks"
        root.mkdir()
        tmp_dir = root / "feedbeef.tmp999"
        tmp_dir.mkdir()
        (tmp_dir / "meta.json").write_text("{}")
        skew_clock(monkeypatch, "repro.sweep.cache", 7200.0)
        BankCache(root)
        assert tmp_dir.exists()

    def test_genuinely_stale_bank_tmp_is_reaped(self, tmp_path):
        root = tmp_path / "banks"
        root.mkdir()
        tmp_dir = root / "feedbeef.tmp999"
        tmp_dir.mkdir()
        old = time.time() - 7200.0
        os.utime(tmp_dir, (old, old))
        BankCache(root)
        assert not tmp_dir.exists()

    @pytest.mark.parametrize("subdir", ["done", "failures", "metrics"])
    def test_fast_local_clock_cannot_reap_live_queue_tmp(
        self, tmp_path, monkeypatch, subdir
    ):
        # A coordinator restart re-creates the queue, which sweeps its
        # stale temps, while a worker on another host is mid-publish
        # of a done record, a failure record or a metric snapshot.  A
        # failed sweep keeps its queue for --resume, so an orphan must
        # go even from the directories no re-run rewrites.
        queue = make_queue(tmp_path)
        directory = queue.root / subdir
        directory.mkdir(exist_ok=True)
        name = queue.pending_names()[0]
        live = directory / f"{name}.tmp999"
        live.write_text("{}")
        orphan = directory / f"{name}.tmp998"
        orphan.write_text("{}")
        old = time.time() - 7200.0
        os.utime(orphan, (old, old))
        skew_clock(monkeypatch, "repro.sweep.distrib.queue", 7200.0)
        skew_clock(monkeypatch, "repro.sweep.cache", 7200.0)
        TaskQueue.create(
            queue.root,
            one_cell(),
            cache_path="..",
            backoff_base=0.01,
            backoff_cap=0.05,
            fsync=False,
        )
        assert live.exists()
        assert not orphan.exists()
