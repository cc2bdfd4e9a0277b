"""On-disk predictor-bank cache shared across workers and sweeps.

Training the revpred/tributary banks is the expensive part of an
experiment context (one LSTM per market), and a sweep over many seeds
used to retrain every bank once per worker process *and* once per
``--resume`` run.  This cache makes a trained bank a durable artifact:
whichever worker trains the bank for one ``(seed, scale, kind,
hyper-parameters)`` fingerprint first stores it here, and every other
worker — in this sweep, a concurrent one, or a later run — loads it
instead of retraining.

Layout (co-located under the result cache root by default, see
:attr:`repro.sweep.cache.SweepCache.banks_root`)::

    banks/<fingerprint>/meta.json      # schema + bank spec + per-market info
    banks/<fingerprint>/<market>.npz   # model weights (repro.nn.serialize)

Weights round-trip exactly (float64 ``.npz``), the odds correction is
rebuilt from the recorded training class fraction, and the feature
extractor from the context's deterministic dataset — so a loaded bank
produces bit-identical predictions to the bank that was trained.

Exactly-once training is enforced with an advisory file lock per
fingerprint: a worker that finds the bank missing trains it while
holding the lock, and any sibling racing for the same bank blocks,
then loads the stored artifact instead of duplicating the work.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from repro import obs
from repro.cloud.instance import get_instance_type
from repro.market.features import FeatureExtractor
from repro.nn.serialize import load_weights, save_weights
from repro.revpred.calibration import OddsCorrection
from repro.revpred.predictor import MarketPredictor, PredictorBank
from repro.sweep.cache import (
    atomic_publish_dir,
    canonical_json,
    fsync_write_text,
    read_record,
    sweep_stale_temps,
)

#: Bump when the bank artifact layout or reconstruction logic changes;
#: artifacts from other schemas are ignored, never trusted.
BANK_SCHEMA_VERSION = 1

#: Temp directories older than this are orphans of a killed writer (a
#: live store holds its temp for seconds at most) and are swept on
#: open — pids recycle, so a leftover name could otherwise collide.
_STALE_TMP_SECONDS = 3600.0

#: Callables ``hook(context, kind)`` fired every time a bank is
#: actually *trained* (never on a cache load) — the test suite counts
#: trainings through this to assert the exactly-once guarantee.
TRAINING_HOOKS: list = []

_TRAIN_COUNT = 0


def train_count() -> int:
    """Process-wide number of bank trainings since interpreter start.

    Deltas around a unit of work (one sweep cell, one run) measure how
    many trainings that work caused; pool workers report their deltas
    back to the parent alongside each cell result.
    """
    return _TRAIN_COUNT


def notify_trained(context, kind: str) -> None:
    """Record one bank training and fire the registered hooks."""
    global _TRAIN_COUNT
    _TRAIN_COUNT += 1
    for hook in list(TRAINING_HOOKS):
        hook(context, kind)


def bank_fingerprint(spec: Mapping[str, Any]) -> str:
    """Stable hex id of a bank spec; keys the on-disk artifact.

    The spec (see :meth:`ExperimentContext._bank_spec`) pins everything
    the trained weights depend on — seed, scale, kind, model
    dimensions, trainer hyper-parameters, sampling — so two banks
    share a fingerprint only when retraining would reproduce the same
    artifact bit for bit.
    """
    payload = canonical_json({"schema": BANK_SCHEMA_VERSION, "bank": dict(spec)})
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class BankCache:
    """Fingerprint-keyed store of trained predictor banks."""

    def __init__(
        self, root: str | Path, sweep_stale: bool = True, fsync: bool = True
    ) -> None:
        self.root = Path(root)
        #: Durability for :meth:`store`: fsync every artifact file and
        #: the directories on the rename path before the bank counts as
        #: published — a host crash must never surface a bank whose
        #: ``meta.json`` names weights that never reached the platter.
        #: Callers co-locating under a ``SweepCache`` thread its flag
        #: through, so one ``--no-fsync`` governs the whole cache tree.
        self.fsync = fsync
        self.root.mkdir(parents=True, exist_ok=True)
        if sweep_stale:
            sweep_stale_temps(self.root, "*.tmp*", _STALE_TMP_SECONDS)

    def path_for(self, spec: Mapping[str, Any]) -> Path:
        return self.root / bank_fingerprint(spec)

    @contextmanager
    def lock(self, spec: Mapping[str, Any]):
        """Advisory per-fingerprint exclusive lock.

        Serialises the check-train-store sequence across processes so
        concurrent workers never train the same bank twice; where
        ``fcntl`` is unavailable the lock degrades to a no-op (training
        becomes at-least-once, which is still correct, just wasteful).
        """
        try:
            import fcntl
        except ImportError:  # non-POSIX fallback
            yield
            return
        path = self.root / f"{bank_fingerprint(spec)}.lock"
        # repro-lint: ignore[durable-publish] flock handle, content-free
        with open(path, "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # ------------------------------------------------------------------
    def load(
        self,
        spec: Mapping[str, Any],
        model_factory: Callable[[int], object],
        inference_dataset,
    ) -> Optional[PredictorBank]:
        """Reconstruct the bank stored for ``spec``, or ``None``.

        ``model_factory`` builds a structurally identical fresh model
        per recorded model seed; weights load over it exactly.  Any
        mismatch — schema, spec, missing market, mis-shaped weights —
        makes the artifact untrusted and reads as a miss (the caller
        retrains and overwrites).
        """
        bank = self._load(spec, model_factory, inference_dataset)
        obs.inc(
            "repro_bank_cache_hits_total"
            if bank is not None
            else "repro_bank_cache_misses_total"
        )
        return bank

    def _load(
        self,
        spec: Mapping[str, Any],
        model_factory: Callable[[int], object],
        inference_dataset,
    ) -> Optional[PredictorBank]:
        meta_path = self.path_for(spec) / "meta.json"
        meta = read_record(meta_path)
        if meta is None or meta.get("schema") != BANK_SCHEMA_VERSION:
            return None
        if meta.get("bank") != dict(spec):
            return None
        predictors: dict[str, MarketPredictor] = {}
        try:
            for name in sorted(meta["markets"]):
                info = meta["markets"][name]
                instance = get_instance_type(name)
                model = model_factory(int(info["model_seed"]))
                load_weights(model, meta_path.parent / f"{name}.npz")
                predictors[name] = MarketPredictor(
                    model=model,
                    correction=OddsCorrection(
                        float(info["positive_fraction"]),
                        direction=info.get("direction", "standard"),
                    ),
                    extractor=FeatureExtractor(
                        inference_dataset[name], instance.on_demand_price
                    ),
                )
        except (OSError, KeyError, ValueError, TypeError):
            return None
        return PredictorBank(predictors)

    def store(
        self,
        spec: Mapping[str, Any],
        bank: PredictorBank,
        model_seeds: Mapping[str, int],
    ) -> Path:
        """Atomically persist ``bank`` under ``spec``'s fingerprint.

        ``model_seeds`` records, per market, the seed the model factory
        must be called with at load time to rebuild the architecture
        the weights belong to.  The artifact directory is published
        through :func:`repro.sweep.cache.atomic_publish_dir`: when a
        concurrent writer wins the rename race its (identical) artifact
        is kept and ours discarded, but a *broken* occupant of the slot
        (corrupt meta, missing weights — anything ``load`` would read
        as a miss) is replaced, never preserved: otherwise a corrupted
        artifact would defeat the cache for its fingerprint forever,
        retraining on every run yet never storing.
        """
        path = self.path_for(spec)
        meta = {
            "schema": BANK_SCHEMA_VERSION,
            "bank": dict(spec),
            "markets": {
                name: {
                    "model_seed": int(model_seeds[name]),
                    "positive_fraction": float(
                        predictor.correction.positive_fraction
                    ),
                    "direction": predictor.correction.direction,
                }
                for name, predictor in bank.predictors.items()
            },
        }

        def fill(tmp: Path) -> None:
            for name, predictor in bank.predictors.items():
                save_weights(predictor.model, tmp / f"{name}.npz")
            # The helper syncs every file before the rename.
            fsync_write_text(tmp / "meta.json", canonical_json(meta), fsync=False)

        with obs.timer("repro_bank_store_seconds"):
            return atomic_publish_dir(
                path, fill, intact=self._artifact_intact, fsync=self.fsync
            )

    @staticmethod
    def _artifact_intact(path: Path) -> bool:
        """Whether the artifact at ``path`` is structurally complete:
        parseable current-schema meta plus one weight file per recorded
        market.  (Spec match is the caller's concern — two specs can
        only share ``path`` by sharing a fingerprint.)"""
        meta = read_record(path / "meta.json")
        if meta is None or meta.get("schema") != BANK_SCHEMA_VERSION:
            return False
        try:
            return all((path / f"{name}.npz").is_file() for name in meta["markets"])
        except (KeyError, TypeError):
            return False

    def __len__(self) -> int:
        """Number of complete bank artifacts in the cache (in-flight
        and orphaned ``.tmp`` directories excluded)."""
        return sum(
            1
            for meta in self.root.glob("*/meta.json")
            if ".tmp" not in meta.parent.name
        )
