"""Byte-identity pins for the batched simulation core (ISSUE 7).

The live hot path — vectorised curve observation, incremental plateau
detection, memoised feature rows / history embeddings, cache-free
batched inference, provisioner-level ``probability_many`` — must stay
bitwise-identical to the frozen scalar core in
:mod:`repro.core.reference`.  Three layers of pins:

* golden summaries in ``tests/data/golden_batched_core.json`` — runs
  recorded from the frozen scalar core; the live core must reproduce
  every byte;
* live-vs-reference runs of the same cell through both orchestrators,
  including a hypothesis sweep over random theta x checkpoint-policy x
  mcnt x continuation x recycle-age combinations (with the
  revocation-heavy constant-0 predictor) that compares the whole run
  result and the final performance matrix, not just the summary;
* the EarlyCurve memo and observation tables: one fit per (trial,
  observed count) in a context, and tables that reproduce
  ``observe`` point by point;
* unit bitwise pins for each building block (LSTM inference, the
  RevPred split forward, Tributary inference, plateau counter, bulk
  curve lookup, the memoising predictor's batch entry point, feature
  row memo, market snapshots).
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.cells import make_orchestrator, run_cell
from repro.analysis.context import build_context
from repro.core.reference import (
    ReferenceBankPredictor,
    ReferenceCachingPredictor,
    ReferenceEarlyCurvePredictor,
    ReferenceOrchestrator,
)
from repro.earlycurve.predictor import EarlyCurvePredictor
from repro.market.features import FeatureExtractor
from repro.nn.lstm import LSTM
from repro.revpred.model import RevPredNetwork
from repro.revpred.predictor import (
    CachingPredictor,
    ConstantPredictor,
    OraclePredictor,
)
from repro.revpred.trainer import default_tributary_factory, untrained_predictor_bank
from repro.revpred.tributary import TributaryNetwork
from repro.sweep.cache import canonical_json
from repro.workloads.catalog import get_workload
from repro.workloads.curves import make_curve

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_batched_core.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def context():
    return build_context(seed=0)


# ----------------------------------------------------------------------
# Golden summaries (recorded from the frozen scalar core)
# ----------------------------------------------------------------------
class TestGoldenSummaries:
    def test_sweep_cells(self, golden):
        from repro.sweep.runner import run_scenario
        from repro.sweep.scenario import ScenarioGrid

        grid = ScenarioGrid.from_axes(
            workload="LiR", theta=[0.5, 0.7], predictor=["constant", "oracle"], seed=0
        )
        seen = set()
        for scenario in grid:
            key = scenario.fingerprint()
            assert key in golden["sweep_cells"], f"golden missing {key}"
            summary = run_scenario(scenario)
            assert canonical_json(summary) == canonical_json(
                golden["sweep_cells"][key]
            ), f"sweep cell {key} diverged from the frozen scalar core"
            seen.add(key)
        assert seen == set(golden["sweep_cells"])

    def test_revpred_cell(self, golden, context):
        predictor = CachingPredictor(untrained_predictor_bank(context.dataset))
        summary = run_cell(context, "LoR", 0.7, predictor)
        assert canonical_json(summary) == canonical_json(golden["revpred_cell"])

    def test_tributary_cell(self, golden, context):
        predictor = CachingPredictor(
            untrained_predictor_bank(
                context.dataset, model_factory=default_tributary_factory
            )
        )
        summary = run_cell(context, "LiR", 0.6, predictor)
        assert canonical_json(summary) == canonical_json(golden["tributary_cell"])

    def test_periodic_mcnt_cell(self, golden, context):
        summary = run_cell(
            context,
            "SVM",
            0.8,
            ConstantPredictor(0.0),
            checkpoint_policy="periodic:900",
            mcnt=5,
        )
        assert canonical_json(summary) == canonical_json(golden["periodic_mcnt_cell"])


# ----------------------------------------------------------------------
# Live orchestrator vs the frozen scalar reference
# ----------------------------------------------------------------------
class TestLiveVsReference:
    def test_revpred_bank_cell(self, context):
        """The full split-inference path against the scalar forward."""
        bank = untrained_predictor_bank(context.dataset)
        live = run_cell(context, "LoR", 0.7, CachingPredictor(bank))
        reference = run_cell(
            context,
            "LoR",
            0.7,
            ReferenceCachingPredictor(ReferenceBankPredictor(bank)),
            orchestrator_cls=ReferenceOrchestrator,
        )
        assert canonical_json(live) == canonical_json(reference)

    @given(
        workload=st.sampled_from(["LiR", "SVM", "GBTR"]),
        theta=st.sampled_from([0.4, 0.55, 0.7, 0.85, 1.0]),
        policy=st.sampled_from(
            ["notice", "periodic:600", "periodic:1800", "prediction:0.5:300"]
        ),
        mcnt=st.integers(min_value=1, max_value=5),
        revocation_heavy=st.booleans(),
        continue_top=st.booleans(),
        reschedule_after=st.sampled_from([1800.0, 3600.0]),
    )
    # GBTR at theta 1.0 with the oracle and mcnt 1: no golden pins it.
    @example(
        workload="GBTR",
        theta=1.0,
        policy="notice",
        mcnt=1,
        revocation_heavy=False,
        continue_top=False,
        reschedule_after=3600.0,
    )
    @settings(max_examples=8, deadline=None)
    def test_random_cells(
        self,
        workload,
        theta,
        policy,
        mcnt,
        revocation_heavy,
        continue_top,
        reschedule_after,
    ):
        """Random cells leave bitwise-identical runs through both cores:
        every field of the run result (predictions, selection, each job
        and segment record) and the final performance matrix.

        The summary alone would hide what skipping quiet poll ticks
        could get wrong: predictions reach it only through the ranking,
        and the matrix only through later decisions.

        ``revocation_heavy=True`` runs the constant-0 predictor: the
        provisioner then bids barely above the current price and VMs
        are revoked constantly, exercising rollback, failed-deadline
        checkpoints and segment accounting; ``False`` runs the oracle,
        the revocation-free extreme.
        """
        context = _PROPERTY_CONTEXT
        predictor = (
            ConstantPredictor(0.0)
            if revocation_heavy
            else OraclePredictor(context.dataset)
        )
        kwargs = dict(
            checkpoint_policy=policy, mcnt=mcnt, reschedule_after=reschedule_after
        )
        live = _full_run(context, workload, theta, predictor, continue_top, **kwargs)
        reference = _full_run(
            context,
            workload,
            theta,
            predictor,
            continue_top,
            orchestrator_cls=ReferenceOrchestrator,
            **kwargs,
        )
        assert live == reference

    @pytest.mark.parametrize("theta", [0.7, 1.0])
    def test_live_trainer_trials(self, theta):
        """Live-trainer trials have no observation table and no memo:
        they observe point by point and are polled every tick while
        early shutdown may fire, and still match the reference."""
        from repro.core.config import SpotTuneConfig
        from repro.core.orchestrator import SpotTuneOrchestrator
        from repro.mlalgos.datasets import make_binary_classification
        from repro.mlalgos.logistic_regression import LogisticRegressionTrainer
        from repro.workloads.trial import LiveTrainerSource, Trial

        context = _PROPERTY_CONTEXT
        workload = get_workload("LoR")
        data = make_binary_classification(n_samples=200, n_features=5, seed=0)
        trials = [
            Trial(
                workload=workload,
                config=config,
                source=LiveTrainerSource(
                    LogisticRegressionTrainer(data, lr=config["lr"], seed=0)
                ),
            )
            for config in workload.configurations()[:2]
        ]
        results = []
        for orchestrator_cls in (SpotTuneOrchestrator, ReferenceOrchestrator):
            orchestrator = orchestrator_cls(
                workload,
                trials,
                context.dataset,
                OraclePredictor(context.dataset),
                SpotTuneConfig(theta=theta, seed=0),
                speed_model=context.speed_model,
                start_time=context.replay_start,
            )
            result = orchestrator.run()
            results.append(json.dumps(dataclasses.asdict(result), sort_keys=True))
        assert results[0] == results[1]
        assert all(not trial._tables for trial in trials)


def _full_run(context, workload, theta, predictor, continue_top, **kwargs):
    """Everything a run leaves, as exact text: the whole ``RunResult``
    and the performance matrix's means and counts."""
    orchestrator = make_orchestrator(context, workload, theta, predictor, **kwargs)
    result = orchestrator.run(continue_top=continue_top)
    matrix = orchestrator.matrix
    return (
        json.dumps(dataclasses.asdict(result), sort_keys=True),
        repr(sorted(matrix._means.items())),
        repr(sorted(matrix._counts.items())),
    )


#: Hypothesis examples share one context (module fixtures would trip
#: the function-scoped-fixture health check inside @given).
_PROPERTY_CONTEXT = build_context(seed=0)


# ----------------------------------------------------------------------
# Building-block bitwise pins
# ----------------------------------------------------------------------
class TestInferenceBitwise:
    def test_lstm_infer_matches_forward(self):
        rng = np.random.default_rng(7)
        lstm = LSTM(6, 24, num_layers=3, rng=rng)
        x = rng.normal(size=(4, 59, 6))
        np.testing.assert_array_equal(lstm.infer(x), lstm.forward(x))

    def test_revpred_split_matches_forward(self):
        rng = np.random.default_rng(11)
        model = RevPredNetwork(rng=np.random.default_rng(3))
        history = rng.normal(size=(5, 59, 6))
        present = rng.normal(size=(5, 7))
        full = model.predict_proba(history, present)
        embedding = model.history_embedding(history)
        np.testing.assert_array_equal(
            model.predict_proba_split(embedding, present), full
        )
        np.testing.assert_array_equal(model.infer_proba(history, present), full)

    def test_revpred_embedding_reusable_across_prices(self):
        """One embedding serves every max-price variant bitwise."""
        rng = np.random.default_rng(13)
        model = RevPredNetwork(rng=np.random.default_rng(5))
        history = rng.normal(size=(1, 59, 6))
        embedding = model.history_embedding(history)
        for max_price in (0.1, 0.5, 2.0):
            present = np.concatenate([rng.normal(size=6), [max_price]])[None]
            np.testing.assert_array_equal(
                model.predict_proba_split(embedding, present),
                model.predict_proba(history, present),
            )

    def test_tributary_infer_matches_forward(self):
        rng = np.random.default_rng(17)
        model = TributaryNetwork(rng=np.random.default_rng(9))
        history = rng.normal(size=(3, 59, 6))
        present = rng.normal(size=(3, 7))
        np.testing.assert_array_equal(
            model.infer_proba(history, present),
            model.predict_proba(history, present),
        )


class TestPlateauIncremental:
    @staticmethod
    def _series(deltas, base=1.0):
        values = [base]
        for delta in deltas:
            values.append(max(values[-1] + delta, 1e-4))
        return values

    @given(
        st.lists(
            st.sampled_from([0.0, 1e-6, 5e-4, -5e-4, 0.05, -0.05]),
            min_size=0,
            max_size=60,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_windowed_scan(self, deltas):
        live = EarlyCurvePredictor(max_trial_steps=1000, theta=1.0)
        reference = ReferenceEarlyCurvePredictor(max_trial_steps=1000, theta=1.0)
        for step, value in enumerate(self._series(deltas), start=1):
            live.observe(step, value)
            reference.observe(step, value)
            assert live.has_converged() == reference.has_converged()

    def test_external_mutation_falls_back_to_scan(self):
        predictor = EarlyCurvePredictor(max_trial_steps=1000, theta=1.0)
        for step in range(1, 30):
            predictor.observe(step, 1.0)  # perfectly flat: converged
        assert predictor.has_converged()
        # Inject a violent jump behind observe's back: the stale run
        # counter says "converged", the actual window does not.
        predictor.values.append(50.0)
        predictor.steps.append(30)
        assert not predictor.has_converged()


class TestObservationTable:
    @given(
        workload=st.sampled_from(["LoR", "GBTR", "AlexNet", "ResNet"]),
        stride=st.integers(min_value=1, max_value=3),
        chunks=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=30),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_observe_per_point(self, workload, stride, chunks):
        """Slices of the table leave the state that ``observe`` leaves
        point by point, for every trial of the workload."""
        for trial in _PROPERTY_CONTEXT.trials(workload):
            table = trial.observation_table(stride)
            steps = range(1, trial.max_trial_steps + 1, stride)
            sliced, pointwise = (
                EarlyCurvePredictor(max_trial_steps=trial.max_trial_steps, theta=1.0)
                for _ in range(2)
            )
            count = 0
            for chunk in chunks:
                count = min(count + chunk, len(steps))
                sliced.observe_table(table, count)
                while len(pointwise.values) < count:
                    step = steps[len(pointwise.values)]
                    pointwise.observe(step, float(trial.metric_at(step)))
                assert sliced.steps == pointwise.steps
                assert sliced.values == pointwise.values
                assert sliced._plateau_run == pointwise._plateau_run
                assert sliced.has_converged() == pointwise.has_converged()
                first_plateau = next(
                    (
                        later
                        for later in range(count, len(steps) + 1)
                        if table.plateau_runs[later - 1] >= sliced.plateau_window
                    ),
                    len(steps) + 1,
                )
                assert table.plateau_next[count - 1] + 1 == first_plateau

    def test_compact_and_shared(self):
        trial = build_context(seed=0).trials("LiR")[0]
        table = trial.observation_table(1)
        assert trial.observation_table(1) is table
        assert np.shares_memory(table.values, trial.source.curve.values)
        assert not table.values.flags.writeable
        assert table.plateau_runs.dtype == np.int16
        assert table.plateau_next.dtype == np.int16

    def test_single_spot_cells_build_no_table(self):
        """Only a SpotTune run builds the tables; the Single-Spot
        baselines never observe metric points."""
        context = build_context(seed=0)
        context.baseline_run("LiR", "r4.large")
        assert all(not trial._tables for trial in context.trials("LiR"))
        context.spottune_run("LiR", 0.7, "constant")
        assert all(trial._tables for trial in context.trials("LiR"))


class TestEarlyCurveMemo:
    def test_second_config_reuses_every_fit(self, monkeypatch):
        """Two configs of one (workload, theta, seed) observe the same
        points per trial, so the second fits nothing, and its
        predictions match a fresh context's."""
        from repro.earlycurve.model import StagedCurveModel

        fits = []
        fit = StagedCurveModel.fit

        def counting_fit(self, values):
            fits.append(len(values))
            return fit(self, values)

        monkeypatch.setattr(StagedCurveModel, "fit", counting_fit)
        context = build_context(seed=0)
        context.spottune_run("SVM", 0.7, "oracle", "notice")
        first_fits = len(fits)
        assert first_fits > 0
        second = context.spottune_run("SVM", 0.7, "constant", "periodic:600")
        assert len(fits) == first_fits
        fresh = build_context(seed=0).spottune_run(
            "SVM", 0.7, "constant", "periodic:600"
        )
        assert len(fits) > first_fits
        assert second.predictions == fresh.predictions


class TestBulkCurveLookup:
    @given(
        st.integers(min_value=1, max_value=200),
        st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_values_at_matches_value_at(self, seed, steps):
        curve = make_curve(get_workload("LiR"), {"lr": 0.01, "bs": 64}, seed=seed)
        steps = sorted(steps)
        bulk = curve.values_at(steps)
        scalar = [curve.value_at(step) for step in steps]
        np.testing.assert_array_equal(bulk, scalar)

    def test_values_at_rejects_non_positive(self):
        curve = make_curve(get_workload("LiR"), {"lr": 0.01, "bs": 64}, seed=0)
        with pytest.raises(ValueError):
            curve.values_at([0, 1])


class TestProbabilityMany:
    def test_matches_scalar_sequence(self, context):
        from repro.core.config import SpotTuneConfig

        bank = untrained_predictor_bank(context.dataset)
        pool = SpotTuneConfig().instance_pool
        t = context.replay_start + 3600.0
        queries = [
            (instance, t + 300.0 * k, 0.9 * instance.on_demand_price)
            for k in range(3)
            for instance in pool
        ]
        batched = CachingPredictor(bank).probability_many(queries)
        scalar_predictor = CachingPredictor(bank)
        scalar = [
            scalar_predictor.probability(instance, when, price)
            for instance, when, price in queries
        ]
        assert batched == scalar  # exact float equality, not approx

    def test_memo_shared_with_scalar_path(self, context):
        from repro.core.config import SpotTuneConfig

        bank = untrained_predictor_bank(context.dataset)
        predictor = CachingPredictor(bank)
        instance = SpotTuneConfig().instance_pool[0]
        t = context.replay_start + 3600.0
        first = predictor.probability_many([(instance, t, 0.5)])[0]
        assert predictor.probability(instance, t, 0.5) == first


class TestFeatureRowMemo:
    def test_rows_bitwise_and_read_only(self, context):
        name = context.dataset.instance_types[0]
        trace = context.dataset.traces[name]
        cached = FeatureExtractor(trace, on_demand_price=1.0)
        fresh = FeatureExtractor(trace, on_demand_price=1.0)
        t = context.replay_start + 1800.0
        row = cached.base_features_at(t)
        np.testing.assert_array_equal(row, fresh.base_features_at(t))
        assert cached.base_features_at(t) is row  # memo hit, same object
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0] = 99.0


class TestMarketSnapshots:
    def test_round_trip_bitwise(self, tmp_path, context):
        from repro.market.snapshot import load_market_snapshot, save_market_snapshot

        directory = save_market_snapshot(context.dataset, tmp_path / "seed0")
        loaded = load_market_snapshot(directory)
        assert loaded is not None
        assert sorted(loaded.instance_types) == sorted(context.dataset.instance_types)
        for name in context.dataset.instance_types:
            original = context.dataset.traces[name]
            trace = loaded.traces[name]
            assert trace.region == original.region
            np.testing.assert_array_equal(trace.times, original.times)
            np.testing.assert_array_equal(trace.prices, original.prices)

    def test_save_is_idempotent(self, tmp_path, context):
        from repro.market.snapshot import save_market_snapshot

        directory = save_market_snapshot(context.dataset, tmp_path / "seed0")
        meta_before = (directory / "meta.json").read_bytes()
        save_market_snapshot(context.dataset, directory)
        assert (directory / "meta.json").read_bytes() == meta_before

    def test_missing_snapshot_reads_as_none(self, tmp_path):
        from repro.market.snapshot import load_market_snapshot

        assert load_market_snapshot(tmp_path / "absent") is None

    def test_context_via_snapshot_is_identical(self, tmp_path, context):
        from repro.market.snapshot import save_market_snapshot

        directory = save_market_snapshot(context.dataset, tmp_path / "seed0")
        via_snapshot = build_context(seed=0, dataset_path=directory)
        live = run_cell(via_snapshot, "LiR", 0.5, ConstantPredictor(0.0))
        generated = run_cell(context, "LiR", 0.5, ConstantPredictor(0.0))
        assert canonical_json(live) == canonical_json(generated)
