"""Shared experiment context: dataset, trained predictors, split.

Building the context is the expensive part of the evaluation (training
one RevPred and one Tributary model per market), so every figure
runner takes a prebuilt :class:`ExperimentContext` and the benchmark
suite builds it once per session.  The market dataset itself is cheap
since the generator went closed-form (tens of milliseconds for the
twelve-day pool — see ``benchmarks/bench_market_generation.py``);
predictor-bank training dominates whatever remains, and only the
figures that consult a trained bank pay for it, lazily.

Mirrors the paper's protocol: twelve days of market data, models
trained on the first nine (04/26-05/04) and everything evaluated —
prediction accuracy and HPT replay alike — on the final three days
(05/05-05/07).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.market.dataset import SpotPriceDataset, generate_default_dataset
from repro.market.trace import MINUTE
from repro.revpred.model import RevPredNetwork
from repro.revpred.predictor import CachingPredictor, OraclePredictor, PredictorBank
from repro.revpred.trainer import RevPredTrainer, train_predictor_bank
from repro.revpred.tributary import TributaryNetwork
from repro.sim.clock import DAY
from repro.workloads.speed import SpeedModel

#: Days of market data and the train/test split point (paper §IV-D).
TOTAL_DAYS = 12.0
TRAIN_DAYS = 9.0


@dataclass
class ExperimentContext:
    """Everything the figure runners share."""

    seed: int = 0
    #: Model scale: compact dimensions keep the CPU-only benchmark
    #: suite fast; "paper" uses larger dimensions and longer training.
    scale: str = "small"
    #: Optional :class:`repro.sweep.banks.BankCache`: trained predictor
    #: banks load from here when a matching artifact exists and are
    #: stored here after training, so one training (by any process, in
    #: any sweep) serves every later consumer of the same fingerprint.
    bank_cache: "object | None" = None
    #: Optional directory of a market snapshot (see
    #: :mod:`repro.market.snapshot`).  When set and loadable, the
    #: dataset is memory-mapped from disk instead of regenerated —
    #: worker processes on one host then share a single page-cache copy
    #: of every trace.  Snapshots round-trip float64 exactly, so the
    #: loaded dataset (and everything computed from it) is bitwise
    #: identical to the generated one; an unreadable snapshot silently
    #: falls back to generation.
    dataset_path: "str | None" = None
    speed_model: SpeedModel = field(init=False)
    #: How many banks this context actually trained / loaded from the
    #: bank cache — the observable the exactly-once tests assert on.
    bank_trainings: int = field(init=False, default=0)
    bank_loads: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.scale not in ("small", "paper"):
            raise ValueError(f"scale must be 'small' or 'paper': {self.scale}")
        self.speed_model = SpeedModel(seed=self.seed)

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    @cached_property
    def dataset(self) -> SpotPriceDataset:
        if self.dataset_path is not None:
            from repro.market.snapshot import load_market_snapshot

            snapshot = load_market_snapshot(self.dataset_path)
            if snapshot is not None:
                return snapshot
        return generate_default_dataset(seed=self.seed, days=TOTAL_DAYS)

    @cached_property
    def split(self) -> tuple[SpotPriceDataset, SpotPriceDataset]:
        return self.dataset.split(self.split_time)

    @property
    def train_dataset(self) -> SpotPriceDataset:
        return self.split[0]

    @property
    def test_dataset(self) -> SpotPriceDataset:
        return self.split[1]

    @property
    def split_time(self) -> float:
        return TRAIN_DAYS * DAY

    @property
    def replay_start(self) -> float:
        """Where HPT replays begin: inside the test window, with enough
        context behind it for feature extraction."""
        return self.split_time + 2 * 3600.0

    # ------------------------------------------------------------------
    # Trained predictors
    # ------------------------------------------------------------------
    def _trainer(self) -> RevPredTrainer:
        if self.scale == "paper":
            return RevPredTrainer(lr=0.003, epochs=25, batch_size=64, seed=self.seed)
        return RevPredTrainer(lr=0.005, epochs=12, batch_size=64, seed=self.seed)

    def _dims(self) -> dict:
        if self.scale == "paper":
            return {"lstm_hidden": 64, "lstm_layers": 3, "fc_hidden": 64}
        return {"lstm_hidden": 24, "lstm_layers": 3, "fc_hidden": 24}

    def _sample_interval(self) -> float:
        return 5 * MINUTE if self.scale == "paper" else 10 * MINUTE

    _BANK_DELTA_MODES = {"revpred": "fluctuation", "tributary": "uniform"}

    def _bank_model_factory(self, kind: str):
        dims = self._dims()
        if kind == "revpred":
            return lambda seed: RevPredNetwork(rng=np.random.default_rng(seed), **dims)
        if kind == "tributary":
            return lambda seed: TributaryNetwork(
                rng=np.random.default_rng(seed),
                lstm_hidden=dims["lstm_hidden"],
                lstm_layers=dims["lstm_layers"],
            )
        raise ValueError(f"unknown bank kind: {kind!r}")

    def _bank_spec(self, kind: str) -> dict:
        """Everything the trained weights of one bank depend on.

        This dict is the bank-cache fingerprint payload: two contexts
        share a cached bank exactly when retraining would reproduce the
        identical artifact — same seed/scale, same data window, same
        model dimensions, same trainer hyper-parameters and sampling.
        """
        from repro.sweep.scenario import SCHEMA_VERSION

        trainer = self._trainer()
        return {
            "kind": kind,
            "seed": self.seed,
            "scale": self.scale,
            # The sweep schema version is bumped whenever generated
            # market data changes (it was, for the vectorised
            # generator), and a bank is only as valid as the data it
            # trained on — so data-invalidating bumps retire cached
            # banks together with cached cells.
            "cell_schema": SCHEMA_VERSION,
            "days": TOTAL_DAYS,
            "train_days": TRAIN_DAYS,
            "dims": self._dims(),
            "delta_mode": self._BANK_DELTA_MODES[kind],
            "sample_interval": self._sample_interval(),
            "trainer": {
                "lr": trainer.lr,
                "epochs": trainer.epochs,
                "batch_size": trainer.batch_size,
                "clip_norm": trainer.clip_norm,
                "seed": trainer.seed,
            },
        }

    def _train_bank(self, kind: str) -> PredictorBank:
        from repro.sweep.banks import notify_trained

        bank = train_predictor_bank(
            self.train_dataset,
            inference_dataset=self.dataset,
            model_factory=self._bank_model_factory(kind),
            delta_mode=self._BANK_DELTA_MODES[kind],
            sample_interval=self._sample_interval(),
            trainer=self._trainer(),
            seed=self.seed,
        )
        self.bank_trainings += 1
        notify_trained(self, kind)
        return bank

    def _bank(self, kind: str) -> PredictorBank:
        """Load the bank from the cache, or train (and store) it.

        The per-fingerprint lock makes training exactly-once across
        concurrent workers: a sibling racing for the same bank blocks
        until the winner stores it, then loads the artifact instead of
        retraining.
        """
        if self.bank_cache is None:
            return self._train_bank(kind)
        spec = self._bank_spec(kind)
        factory = self._bank_model_factory(kind)
        with self.bank_cache.lock(spec):
            bank = self.bank_cache.load(spec, factory, self.dataset)
            if bank is not None:
                self.bank_loads += 1
                return bank
            bank = self._train_bank(kind)
            self.bank_cache.store(
                spec,
                bank,
                model_seeds={
                    name: self.seed + index
                    for index, name in enumerate(self.train_dataset.instance_types)
                },
            )
        return bank

    @cached_property
    def revpred_bank(self) -> PredictorBank:
        """RevPred models (Algorithm 2 labels, two-branch network)."""
        return self._bank("revpred")

    @cached_property
    def tributary_bank(self) -> PredictorBank:
        """Tributary Predict baseline (uniform deltas, single stream)."""
        return self._bank("tributary")

    def cached_revpred(self) -> CachingPredictor:
        """Fresh memoising view of the RevPred bank for one run."""
        return CachingPredictor(self.revpred_bank)

    def cached_tributary(self) -> CachingPredictor:
        return CachingPredictor(self.tributary_bank)

    @cached_property
    def oracle(self) -> OraclePredictor:
        """One oracle for every cell of this context: its peak-price
        memo is a pure function of the dataset, as a bank's embedding
        memo is."""
        return OraclePredictor(self.dataset)

    # ------------------------------------------------------------------
    # Trials
    # ------------------------------------------------------------------
    @cached_property
    def _trials(self) -> dict:
        return {}

    def trials(self, workload_name: str) -> tuple:
        """The workload's simulated trials on this context's seed.

        Built once per context: ``make_trials`` is deterministic in
        (workload, seed), and no run writes to a trial or its curve,
        so every run of the workload shares them.
        """
        if workload_name not in self._trials:
            from repro.workloads.catalog import get_workload
            from repro.workloads.trial import make_trials

            self._trials[workload_name] = tuple(
                make_trials(get_workload(workload_name), seed=self.seed)
            )
        return self._trials[workload_name]

    # ------------------------------------------------------------------
    # Shared run cache — several figures consume the same runs
    # (Fig. 7's theta=0.7 rows are Fig. 9's and Fig. 12's inputs), so
    # runs are memoised by (workload, theta, predictor kind).
    # ------------------------------------------------------------------
    @cached_property
    def _run_cache(self) -> dict:
        return {}

    def spottune_run(
        self,
        workload_name: str,
        theta: float,
        predictor_kind: str = "revpred",
        checkpoint_policy: str = "notice",
        reschedule_after: float = 3600.0,
        refund_enabled: bool = True,
        mcnt: int = 3,
    ):
        """Memoised SpotTune run for one (workload, theta, predictor,
        checkpoint policy, ablation knobs, mcnt) cell."""
        from repro.analysis.cells import make_orchestrator
        from repro.revpred.predictor import ConstantPredictor

        # 6 decimals matches Scenario's theta normalisation — distinct
        # sweep cells must never silently share one memoised run.
        key = (
            "spottune",
            workload_name,
            round(theta, 6),
            predictor_kind,
            checkpoint_policy,
            reschedule_after,
            refund_enabled,
            mcnt,
        )
        if key not in self._run_cache:
            if predictor_kind == "revpred":
                predictor = self.cached_revpred()
            elif predictor_kind == "tributary":
                predictor = self.cached_tributary()
            elif predictor_kind == "oracle":
                predictor = self.oracle
            elif predictor_kind == "constant":
                predictor = ConstantPredictor(0.0)
            else:
                raise ValueError(f"unknown predictor kind: {predictor_kind!r}")
            orchestrator = make_orchestrator(
                self,
                workload_name,
                theta,
                predictor,
                checkpoint_policy=checkpoint_policy,
                reschedule_after=reschedule_after,
                refund_enabled=refund_enabled,
                mcnt=mcnt,
            )
            self._run_cache[key] = orchestrator.run()
        return self._run_cache[key]

    def baseline_run(self, workload_name: str, instance_name: str, mcnt: int = 3):
        """Memoised Single-Spot baseline run."""
        from repro.core.baselines import run_single_spot
        from repro.workloads.catalog import get_workload

        key = ("baseline", workload_name, instance_name, mcnt)
        if key not in self._run_cache:
            workload = get_workload(workload_name)
            self._run_cache[key] = run_single_spot(
                workload,
                self.trials(workload_name),
                self.dataset,
                instance_name,
                speed_model=self.speed_model,
                start_time=self.replay_start,
                mcnt=mcnt,
            )
        return self._run_cache[key]


def build_context(
    seed: int = 0, scale: str = "small", bank_cache=None, dataset_path=None
) -> ExperimentContext:
    """Convenience constructor used by benchmarks and examples."""
    return ExperimentContext(
        seed=seed,
        scale=scale,
        bank_cache=bank_cache,
        dataset_path=str(dataset_path) if dataset_path is not None else None,
    )
