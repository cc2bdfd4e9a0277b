"""Mmap'd on-disk market snapshots shared across sweep workers.

An :class:`~repro.analysis.context.ExperimentContext` used to carry its
market dataset only in memory: every pool worker (and every distributed
fleet host) regenerated the full multi-market price history per
``(seed, scale)`` group, and spawn-style multiprocessing would have had
to pickle the whole context per task.  A snapshot makes the dataset a
shared artifact instead: the sweep parent (or the distributed
coordinator) writes each seed's traces once as raw float64 ``.npy``
files, and every worker memory-maps them read-only — one page-cache
copy per host, no per-task serialisation, no per-worker regeneration.

Byte-identity is preserved by construction: ``.npy`` round-trips
float64 arrays exactly, so a dataset loaded from a snapshot is
indistinguishable from the generated one and every downstream result
stays bitwise the same.

Layout (one directory per dataset)::

    <dir>/meta.json            # schema, markets: [{name, region}]
    <dir>/<market>.times.npy   # record timestamps, float64
    <dir>/<market>.prices.npy  # record prices, float64

Snapshots are published through
:func:`repro.sweep.cache.atomic_publish_dir` (assemble under a
process-unique temp name, then rename), so concurrent writers on a
shared mount are safe: whoever wins the rename provides the
(identical) artifact.  They are not fsynced: a snapshot lost to a host
crash reads as absent and is regenerated.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.market.dataset import SpotPriceDataset
from repro.market.trace import PriceTrace

#: Bump when the snapshot layout changes; other schemas read as absent.
SNAPSHOT_SCHEMA_VERSION = 1


def save_market_snapshot(dataset: SpotPriceDataset, directory: str | Path) -> Path:
    """Persist every trace of ``dataset`` under ``directory``.

    Idempotent and race-safe: if a complete snapshot already occupies
    the directory it is kept (a snapshot is a pure function of the
    dataset, so the occupant is identical); a partial or foreign
    occupant is replaced.
    """
    # Deferred: the sweep package sits above the market package.
    from repro.sweep.cache import atomic_publish_dir, canonical_json, fsync_write_text

    directory = Path(directory)
    if load_market_snapshot(directory, mmap=False) is not None:
        return directory
    meta = {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "markets": [
            {"name": name, "region": dataset.traces[name].region}
            for name in dataset.instance_types
        ],
    }

    def fill(tmp: Path) -> None:
        for name in dataset.instance_types:
            trace = dataset.traces[name]
            np.save(tmp / f"{name}.times.npy", np.asarray(trace.times, dtype=float))
            np.save(tmp / f"{name}.prices.npy", np.asarray(trace.prices, dtype=float))
        fsync_write_text(tmp / "meta.json", canonical_json(meta), fsync=False)

    return atomic_publish_dir(
        directory,
        fill,
        intact=lambda occupant: load_market_snapshot(occupant, mmap=False) is not None,
        fsync=False,
    )


def load_market_snapshot(
    directory: str | Path, mmap: bool = True
) -> SpotPriceDataset | None:
    """Reconstruct the dataset stored under ``directory``, or ``None``.

    With ``mmap=True`` (the default) the arrays are memory-mapped
    read-only: workers on one host share the page cache instead of each
    materialising every market's history.  Any structural problem —
    missing directory, wrong schema, absent or unreadable arrays —
    reads as a miss so the caller falls back to regenerating.
    """
    from repro.sweep.cache import read_record

    directory = Path(directory)
    meta = read_record(directory / "meta.json")
    if meta is None or meta.get("schema") != SNAPSHOT_SCHEMA_VERSION:
        return None
    dataset = SpotPriceDataset()
    mmap_mode = "r" if mmap else None
    try:
        for market in meta["markets"]:
            name = market["name"]
            times = np.load(directory / f"{name}.times.npy", mmap_mode=mmap_mode)
            prices = np.load(directory / f"{name}.prices.npy", mmap_mode=mmap_mode)
            dataset.add(
                PriceTrace(name, times, prices, region=market.get("region", "us-east-1"))
            )
    except (OSError, KeyError, ValueError, TypeError):
        return None
    return dataset if len(dataset) else None
