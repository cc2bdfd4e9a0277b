"""On-disk result cache keyed by scenario fingerprint.

One JSON file per completed cell, written atomically and serialised
canonically (sorted keys, no whitespace), so the same cell always
produces byte-identical files — the determinism regression tests
compare these bytes directly, and ``--resume`` loads them instead of
re-simulating.

This module also holds the one atomic-publish path for everything
under the cache root: :func:`atomic_publish` for a file,
:func:`atomic_publish_dir` for a directory artifact, and
:func:`sweep_stale_temps` for the temps a killed writer leaves behind.
Cell summaries, queue files, serve job records, worker metric
snapshots, predictor banks and market snapshots all publish through
them.  :func:`read_record` is the one read path beside it: every
reader of those records takes a file that is absent, torn, not UTF-8,
not JSON, or not a JSON object as absent, and keeps only its own
schema checks.

The cache root also co-locates the predictor-bank cache (schema v3):
the :data:`BANKS_SUBDIR` subdirectory holds one
:class:`repro.sweep.banks.BankCache` artifact per trained bank, so a
single ``--cache-dir`` carries both the cell summaries and the models
they were computed with.  Cell entries live flat in the root
(``<fingerprint>.json``), so the non-recursive globs here never
confuse bank metadata for cell summaries.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from pathlib import Path
from typing import Any, Callable, Optional

from repro import obs
from repro.sweep.scenario import SCHEMA_VERSION, Scenario

#: Temp files older than this are orphans of a killed writer (a live
#: write holds its temp for milliseconds) and are swept on open.
_STALE_TMP_SECONDS = 3600.0

#: Subdirectory of a result-cache root where the predictor-bank cache
#: co-locates by default (``SweepRunner`` uses it unless given an
#: explicit bank-cache location).
BANKS_SUBDIR = "banks"

#: Subdirectory of a result-cache root where the distributed task
#: queue co-locates by default — a shared mount (or rsync'd directory)
#: of the cache root is then the only "network" a worker fleet needs.
QUEUE_SUBDIR = "queue"

#: Subdirectory of a result-cache root holding one mmap-able market
#: snapshot per seed (see :mod:`repro.market.snapshot`): the sweep
#: parent writes each seed's price traces once, every worker — pool or
#: distributed — memory-maps them instead of regenerating.
MARKETS_SUBDIR = "markets"

#: Subdirectory of a result-cache root where ``repro serve`` keeps its
#: job registry (one directory per submitted sweep: job record, event
#: log, per-job queue, assembled result) — multiple concurrent tenants
#: share the one cache root, and the registry rides along with it.
SERVE_SUBDIR = "serve"


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def sweep_out_text(summaries: Any) -> str:
    """The byte-exact ``repro sweep --out`` payload for ``summaries``.

    Grid-ordered canonical JSON plus one trailing newline — the single
    definition every producer shares (CLI ``--out``, the serve API's
    ``/result`` body), so "byte-identical to a serial run" is checked
    against one serialisation, not two copies of it.
    """
    return canonical_json(list(summaries)) + "\n"


def mount_now(directory: Path) -> float:
    """The filesystem's idea of "now" in ``directory``: the mtime it
    stamps on a fresh write.

    Stale-tmp GC compares ages against mtimes that *other hosts'*
    writes produced on a shared mount; judging them by the local wall
    clock imports the full cross-host skew — a local clock running an
    hour fast reaps a live writer's temp file mid-publish.  A probe
    write samples the same clock domain the candidate mtimes came
    from, so the comparison is skew-free.  Falls back to the local
    clock when the probe cannot be written (read-only mount) — the
    age gate then degrades to its old behaviour rather than failing.
    """
    probe = directory / f".clock-probe.{os.getpid()}"
    try:
        # The probe is an empty scratch file sampled for its mtime and
        # unlinked immediately; nothing reads its (zero) bytes, so
        # durability is meaningless here.
        # repro-lint: ignore[durable-publish] mtime probe, content-free
        with open(probe, "w"):
            pass
        return probe.stat().st_mtime
    except OSError:
        return time.time()
    finally:
        try:
            os.unlink(probe)
        except OSError:
            pass


def fsync_write_text(path: Path, text: str, *, fsync: bool = True) -> None:
    """Write ``text`` to ``path`` and (optionally) fsync the file.

    The write-then-rename idiom is atomic for *visibility* but not
    *durability*: without an fsync before the rename, a host crash can
    leave the renamed name pointing at bytes that never reached disk.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())


def fsync_file(path: Path) -> None:
    """Fsync an already-written file by path.

    For payloads a library wrote for us (e.g. ``np.savez`` weight
    archives) where the write cannot go through
    :func:`fsync_write_text`: re-open read-only and flush the pages to
    the platter before the artifact is renamed into public view.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(directory: Path) -> None:
    """Fsync a directory so a completed rename survives a host crash.

    Best-effort: some filesystems refuse directory fsync (EINVAL on
    certain network mounts) — refusing is their durability statement,
    not a reason to fail the write.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _temp_for(path: Path) -> Path:
    # Pid-unique, so concurrent writers (pool workers, fleet hosts on
    # a shared mount) each assemble privately until the rename.
    return path.with_name(f"{path.name}.tmp{os.getpid()}")


def atomic_publish(path: Path, text: str, *, fsync: bool) -> None:
    """Publish ``text`` at ``path`` so a reader sees all of it or none.

    Writes a pid-unique temp beside ``path``, renames it over ``path``
    and, with ``fsync``, syncs the file before the rename and the
    parent directory after it.  A failed publish removes its temp.
    """
    tmp = _temp_for(path)
    try:
        fsync_write_text(tmp, text, fsync=fsync)
        os.replace(tmp, path)
        if fsync:
            fsync_dir(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_record(path: Path) -> Optional[dict]:
    """The JSON object stored at ``path``, or ``None``.

    The read side of :func:`atomic_publish`.  The root is a shared
    mount that other hosts, other versions and hand edits write to, so
    a file that is absent, unreadable, not UTF-8 (the encoding
    :func:`fsync_write_text` writes), not JSON, or JSON that is not an
    object reads as absent, as a torn file does.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


def atomic_publish_dir(
    path: Path,
    fill: Callable[[Path], None],
    *,
    intact: Callable[[Path], bool],
    fsync: bool,
) -> Path:
    """Publish a directory artifact at ``path`` in one rename.

    ``fill(tmp)`` writes the artifact's files into a pid-unique temp
    directory; with ``fsync`` those files and the directory are synced
    before the rename and the parent after it.  Artifacts are pure
    functions of their key, so when the slot is already taken an
    occupant that ``intact`` accepts is kept and ours discarded; a
    broken one is replaced, or it would defeat its key forever.  A
    failed publish removes its temp.
    """
    tmp = _temp_for(path)
    try:
        tmp.mkdir(parents=True, exist_ok=True)
        fill(tmp)
        if fsync:
            for child in sorted(tmp.iterdir()):
                fsync_file(child)
            fsync_dir(tmp)
        try:
            os.rename(tmp, path)
        except OSError:
            # Renaming onto a non-empty directory fails: the slot is
            # occupied.
            if intact(path):
                shutil.rmtree(tmp, ignore_errors=True)
                return path
            shutil.rmtree(path, ignore_errors=True)
            os.rename(tmp, path)
        if fsync:
            fsync_dir(path.parent)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return path


def sweep_stale_temps(directory: Path, pattern: str, max_age: float) -> None:
    """Remove the temps matching ``pattern`` (a glob relative to
    ``directory``) that are older than ``max_age`` seconds.

    A live writer holds its temp briefly, so an old one is an orphan of
    a writer killed before its rename.  Ages are measured against the
    mount's clock (:func:`mount_now`, probed in ``directory``), so a
    concurrent writer's temp is never pulled out from under it, even
    when this host's wall clock runs ahead of the filesystem's.
    """
    cutoff = mount_now(directory) - max_age
    for tmp in directory.glob(pattern):
        try:
            if tmp.stat().st_mtime >= cutoff:
                continue
            if tmp.is_dir():
                shutil.rmtree(tmp, ignore_errors=True)
            else:
                tmp.unlink()
        except OSError:
            continue  # already gone, or not ours to remove


class SweepCache:
    """Fingerprint-keyed store of cell summaries under one directory."""

    def __init__(
        self,
        root: str | Path,
        sweep_stale: bool = True,
        fsync: bool = True,
        faults=None,
    ) -> None:
        self.root = Path(root)
        #: Durability for :meth:`store`: fsync file + parent directory
        #: before a summary counts as published (opt out with
        #: ``fsync=False`` for throwaway caches).
        self.fsync = fsync
        #: Optional :class:`~repro.sweep.distrib.faults.FaultPlan`;
        #: :meth:`store` fires the ``cache.store`` site through it.
        self.faults = faults
        self.root.mkdir(parents=True, exist_ok=True)
        if sweep_stale:
            sweep_stale_temps(self.root, "*.json.tmp*", _STALE_TMP_SECONDS)

    @property
    def banks_root(self) -> Path:
        """Where the co-located predictor-bank cache lives."""
        return self.root / BANKS_SUBDIR

    @property
    def queue_root(self) -> Path:
        """Where the co-located distributed task queue lives."""
        return self.root / QUEUE_SUBDIR

    @property
    def serve_root(self) -> Path:
        """Where the co-located ``repro serve`` job registry lives."""
        return self.root / SERVE_SUBDIR

    def path_for(self, scenario: Scenario) -> Path:
        return self.root / f"{scenario.fingerprint()}.json"

    def load(self, scenario: Scenario) -> Optional[dict]:
        """The cached summary for ``scenario``, or ``None``.

        Entries from a different schema version, or whose recorded
        scenario does not match (a fingerprint collision or a stale
        hand-edited file), are ignored rather than trusted.
        """
        summary = self._load(scenario)
        obs.inc(
            "repro_cache_hits_total"
            if summary is not None
            else "repro_cache_misses_total"
        )
        return summary

    def _load(self, scenario: Scenario) -> Optional[dict]:
        payload = read_record(self.path_for(scenario))
        if payload is None or payload.get("schema") != SCHEMA_VERSION:
            return None
        if payload.get("scenario") != scenario.to_dict():
            return None
        return payload.get("summary")

    def store(self, scenario: Scenario, summary: dict) -> Path:
        """Atomically persist one cell's summary."""
        path = self.path_for(scenario)
        payload = {
            "schema": SCHEMA_VERSION,
            "fingerprint": scenario.fingerprint(),
            "scenario": scenario.to_dict(),
            "summary": summary,
        }
        if self.faults is not None:
            from repro.sweep.distrib import faults as faults_mod

            # An injected ENOSPC/EIO here rehearses a full disk at the
            # worst moment: the cell simulated fine, the summary can't
            # land.  The worker's retry budget must absorb it.
            faults_mod.perform(self.faults, "cache.store", scenario.fingerprint())
        with obs.timer("repro_cache_store_seconds"):
            atomic_publish(path, canonical_json(payload), fsync=self.fsync)
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
