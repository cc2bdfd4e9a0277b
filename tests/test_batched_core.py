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
* unit bitwise pins for each building block (the stacked LSTM pass,
  the RevPred split forward, Tributary inference,
  the bank's stacked pass against the frozen per-query predictor,
  plateau counter, the memoising predictor's batch
  entry point, the per-tick provisioning pass against one-job calls and
  the old per-instance loop, the oracle's peak-price memo, feature row
  memo, market snapshots).
"""

import dataclasses
import functools
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
from repro.cloud.instance import DEFAULT_INSTANCE_POOL, get_instance_type
from repro.cloud.provider import SimCloudProvider
from repro.core.config import SpotTuneConfig
from repro.core.perf_matrix import PerformanceMatrix
from repro.core.provisioner import ProvisionDecision, Provisioner
from repro.earlycurve.predictor import PLATEAU_WINDOW, EarlyCurvePredictor
from repro.market.dataset import SpotPriceDataset
from repro.market.features import FeatureExtractor
from repro.market.labeling import will_be_revoked
from repro.market.trace import HOUR, PriceTrace
from repro.nn.lstm import LSTM, infer_stacked
from repro.revpred.model import RevPredNetwork
from repro.revpred.predictor import (
    CachingPredictor,
    ConstantPredictor,
    OraclePredictor,
)
from repro.revpred.trainer import (
    default_revpred_factory,
    default_tributary_factory,
    untrained_predictor_bank,
)
from repro.revpred.tributary import TributaryNetwork
from repro.sim.events import Simulation
from repro.sim.rng import RngStream
from repro.sweep.cache import canonical_json
from repro.workloads.catalog import get_workload

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
#: (theta, revocation_heavy, continue_top) of each live-trainer case;
#: its id names theta and only the knobs flipped off the oracle,
#: no-continuation default.
_LIVE_TRAINER_CASES = [
    (
        (theta, revocation_heavy, continue_top),
        f"{theta}"
        + ("-constant" if revocation_heavy else "")
        + ("-continue" if continue_top else ""),
    )
    for theta in (0.55, 0.7, 1.0)
    for revocation_heavy in (False, True)
    for continue_top in (False, True)
]


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
        poll_interval=st.sampled_from([10.0, 150.0]),
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
        poll_interval=10.0,
    )
    # A poll wider than the 120 s notice window finds VMs already
    # revoked, here three: two with unsaved progress and one without.
    # The 10 s default never finds one with unsaved progress.
    @example(
        workload="SVM",
        theta=1.0,
        policy="notice",
        mcnt=3,
        revocation_heavy=True,
        continue_top=False,
        reschedule_after=1800.0,
        poll_interval=150.0,
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
        poll_interval,
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
        the revocation-free extreme.  At the default 10 s poll a VM is
        found lost only at the first poll after its launch, before it
        has made progress; a 150 s poll also finds VMs lost with
        unsaved progress, the lost-VM rollback's other case.
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
        live = _full_run(
            context, workload, theta, predictor, continue_top, poll_interval, **kwargs
        )
        reference = _full_run(
            context,
            workload,
            theta,
            predictor,
            continue_top,
            poll_interval,
            orchestrator_cls=ReferenceOrchestrator,
            **kwargs,
        )
        assert live == reference

    @pytest.mark.parametrize(
        "theta, revocation_heavy, continue_top",
        [case for case, _ in _LIVE_TRAINER_CASES],
        ids=[case_id for _, case_id in _LIVE_TRAINER_CASES],
    )
    def test_live_trainer_trials(self, theta, revocation_heavy, continue_top):
        """Live-trainer trials take the simulated trials' path: each
        reads its trainer once into an observation table, replays quiet
        ticks and memoises its predictions, and still matches the
        reference, which observes point by point and polls every tick.
        ``revocation_heavy`` runs the constant-0 predictor, as in
        :meth:`test_random_cells`."""
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
        predictor = (
            ConstantPredictor(0.0)
            if revocation_heavy
            else OraclePredictor(context.dataset)
        )
        results = []
        for orchestrator_cls in (SpotTuneOrchestrator, ReferenceOrchestrator):
            orchestrator = orchestrator_cls(
                workload,
                trials,
                context.dataset,
                predictor,
                SpotTuneConfig(theta=theta, seed=0),
                speed_model=context.speed_model,
                start_time=context.replay_start,
            )
            result = orchestrator.run(continue_top=continue_top)
            results.append(json.dumps(dataclasses.asdict(result), sort_keys=True))
        assert results[0] == results[1]
        assert all(trial._tables for trial in trials)


def _full_run(
    context, workload, theta, predictor, continue_top, poll_interval, **kwargs
):
    """Everything a run leaves, as exact text: the whole ``RunResult``
    and the performance matrix's means and counts."""
    orchestrator = make_orchestrator(context, workload, theta, predictor, **kwargs)
    orchestrator.config = dataclasses.replace(
        orchestrator.config, poll_interval=poll_interval
    )
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
    @pytest.mark.parametrize("models", [1, 6])
    def test_stacked_lstm_matches_one_row_infer(self, models):
        """Each row of one stacked pass over M differently-weighted
        LSTMs is that model's one-row ``forward``, bit for bit."""
        rng = np.random.default_rng(23)
        lstms = [
            LSTM(7, 24, num_layers=3, rng=np.random.default_rng(40 + m))
            for m in range(models)
        ]
        x = rng.normal(size=(models, 60, 7))
        stacked = infer_stacked(lstms, x)
        assert stacked.shape == (models, 60, 24)
        for m, lstm in enumerate(lstms):
            assert stacked[m].tobytes() == lstm.forward(x[m : m + 1])[0].tobytes()

    def test_stacked_lstm_rejects_mixed_shapes(self):
        lstms = [LSTM(6, 24, num_layers=3), LSTM(6, 16, num_layers=3)]
        with pytest.raises(ValueError):
            infer_stacked(lstms, np.zeros((2, 59, 6)))

    def test_revpred_split_matches_forward(self):
        """The stacked split pass (history embeddings, then the present
        MLP and head) over five differently-weighted models equals each
        model's one-row forward."""
        rng = np.random.default_rng(11)
        models = [RevPredNetwork(rng=np.random.default_rng(3 + m)) for m in range(5)]
        history = rng.normal(size=(5, 59, 6))
        present = rng.normal(size=(5, 7))
        embedding = RevPredNetwork.history_embedding_stacked(models, history)
        stacked = RevPredNetwork.proba_split_stacked(models, embedding, present)
        for m, model in enumerate(models):
            full = model.predict_proba(history[m : m + 1], present[m : m + 1])
            assert stacked[m : m + 1].tobytes() == full.tobytes()

    def test_revpred_embedding_reusable_across_prices(self):
        """One embedding serves every max-price variant bitwise."""
        rng = np.random.default_rng(13)
        model = RevPredNetwork(rng=np.random.default_rng(5))
        history = rng.normal(size=(1, 59, 6))
        embedding = RevPredNetwork.history_embedding_stacked([model], history)
        for max_price in (0.1, 0.5, 2.0):
            present = np.concatenate([rng.normal(size=6), [max_price]])[None]
            np.testing.assert_array_equal(
                RevPredNetwork.proba_split_stacked([model], embedding, present),
                model.predict_proba(history, present),
            )

    def test_tributary_infer_matches_forward(self):
        """Each row of one stacked Tributary pass equals that model's
        one-row forward."""
        rng = np.random.default_rng(17)
        models = [TributaryNetwork(rng=np.random.default_rng(9 + m)) for m in range(3)]
        history = rng.normal(size=(3, 59, 6))
        present = rng.normal(size=(3, 7))
        stacked = TributaryNetwork.infer_proba_stacked(models, history, present)
        for m, model in enumerate(models):
            full = model.predict_proba(history[m : m + 1], present[m : m + 1])
            assert stacked[m : m + 1].tobytes() == full.tobytes()


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
                        if table.plateau_runs[later - 1] >= PLATEAU_WINDOW
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
        fit_predict = StagedCurveModel.fit_predict

        def counting_fit_predict(self, values, target_step):
            fits.append(len(values))
            return fit_predict(self, values, target_step)

        monkeypatch.setattr(StagedCurveModel, "fit_predict", counting_fit_predict)
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

    @pytest.mark.parametrize(
        "factory",
        [default_revpred_factory, default_tributary_factory],
        ids=["revpred", "tributary"],
    )
    def test_bank_pass_matches_reference_per_query(self, context, factory):
        """One stacked pass over the whole pool, two prices a market,
        equals the frozen one-query full forward bit for bit — on fresh
        instants and on one whose embeddings are memoised."""
        bank = untrained_predictor_bank(context.dataset, model_factory=factory)
        reference = ReferenceBankPredictor(bank)
        pool = SpotTuneConfig().instance_pool
        start = context.replay_start + 3600.0
        for t in (start, start + 1234.0, start + 7210.0, start):
            queries = [
                (instance, t, share * instance.on_demand_price)
                for instance in pool
                for share in (0.35, 0.9)
            ]
            assert bank.probability_many(queries) == [
                reference.probability(*query) for query in queries
            ]

    def test_repeated_key_in_one_batch_keeps_the_first_price(self, context):
        """Two prices rounding to one key in one batch: both get the
        value of the first price, as two separate calls would."""
        bank = untrained_predictor_bank(context.dataset)
        r4l, r4x = get_instance_type("r4.large"), get_instance_type("r4.xlarge")
        t = context.replay_start + 100.0
        midpoint = (t // 300.0 + 0.5) * 300.0
        cheap, dear = 0.1231, 0.1234
        values = CachingPredictor(bank).probability_many(
            [(r4l, t, cheap), (r4x, t, 0.2), (r4l, t + 50.0, dear)]
        )
        assert values[2] == values[0] == bank.probability(r4l, midpoint, cheap)
        assert values[0] != bank.probability(r4l, midpoint, dear)
        assert values[1] == bank.probability(r4x, midpoint, 0.2)


# ----------------------------------------------------------------------
# One provisioning pass per poll tick
# ----------------------------------------------------------------------
_HP_IDS = tuple(f"hp{index}" for index in range(6))
#: Markets the probability-only stub revokes for certain; their step
#: costs all tie at zero.
_CERTAIN_REVOCATION = ("r4.large", "r3.xlarge", "m4.2xlarge")


class _ProbabilityOnly:
    """A predictor without ``probability_many``."""

    def probability(self, instance, t, max_price):
        if instance.name in _CERTAIN_REVOCATION:
            return 1.0
        return min(max_price, 1.0)


def _flat_dataset():
    """Constant markets priced at 0.05 / CPUs: with the default
    performance matrix (C0 x CPUs) and equal revocation probabilities,
    every market's step cost is the same float (CPU counts are powers
    of two, so the products are exact)."""
    dataset = SpotPriceDataset()
    for instance in DEFAULT_INSTANCE_POOL:
        dataset.add(
            PriceTrace(instance.name, np.array([0.0]), np.array([0.05 / instance.cpus]))
        )
    return dataset


_FLAT_DATASET = _flat_dataset()


@functools.lru_cache(maxsize=None)
def _bank(flat):
    """One untrained bank per dataset; its embedding memo is pure, so
    twin predictors may share it."""
    return untrained_predictor_bank(_FLAT_DATASET if flat else _PROPERTY_CONTEXT.dataset)


def _scalar_decisions(provisioner, hp_ids, t):
    """The per-job, per-instance scoring loop the batched pass
    replaced, kept as the oracle: in pool order, draw a delta, score
    the max price, and keep the first strict minimum step cost."""
    decisions = []
    for hp_id in hp_ids:
        best = None
        candidates = {}
        for instance, current_price, average_price in provisioner._market_quotes():
            delta = float(
                provisioner.rng.uniform(provisioner.delta_low, provisioner.delta_high)
            )
            max_price = current_price + delta
            probability = provisioner.predictor.probability(instance, t, max_price)
            expected_hour_cost = (1.0 - probability) * average_price
            step_cost = provisioner.matrix.get(instance, hp_id) / 3600.0 * expected_hour_cost
            candidates[instance.name] = step_cost
            if best is None or step_cost < best[-1]:
                best = (instance, max_price, probability, expected_hour_cost, step_cost)
        decisions.append(ProvisionDecision(*best, candidates=candidates))
    return decisions


class TestBatchedProvisioning:
    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_batch_equals_one_job_calls(self, data):
        """``get_best_instances`` equals one ``get_best_instance`` call
        per job, in order, and the per-instance scalar loop: every field
        of every decision, and the next draw of the stream after it.
        Drawn: the market (the context's, or flat markets whose step
        costs tie), a permuted pool, 1-16 jobs, observed matrix entries
        and a predictor with and without ``probability_many``."""
        flat = data.draw(st.booleans(), label="flat")
        dataset = _FLAT_DATASET if flat else _PROPERTY_CONTEXT.dataset
        kind = data.draw(st.sampled_from(["bank", "oracle", "probability-only"]))
        pool = tuple(data.draw(st.permutations(DEFAULT_INSTANCE_POOL)))
        pool = pool[: data.draw(st.sampled_from(range(1, len(pool) + 1)))]
        hp_ids = data.draw(st.lists(st.sampled_from(_HP_IDS), min_size=1, max_size=16))
        updates = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(pool),
                    st.sampled_from(_HP_IDS),
                    st.sampled_from([2.5, 10.0, 40.0]),
                ),
                max_size=12,
            )
        )
        start = 2 * 86400.0 if flat else _PROPERTY_CONTEXT.replay_start
        t = start + 10.0 * data.draw(st.integers(min_value=0, max_value=30_000))
        seed = data.draw(st.integers(min_value=0, max_value=2**16))

        def twin():
            if kind == "bank":
                predictor = CachingPredictor(_bank(flat))
            elif kind == "oracle":
                predictor = OraclePredictor(dataset)
            else:
                predictor = _ProbabilityOnly()
            matrix = PerformanceMatrix(c0=5.0)
            for instance, hp_id, seconds_per_step in updates:
                matrix.update(instance, hp_id, seconds_per_step)
            provider = SimCloudProvider(Simulation(start=t), dataset)
            return Provisioner(pool, predictor, matrix, provider, RngStream(seed, "twin"))

        batched, one_job, scalar = twin(), twin(), twin()
        decisions = batched.get_best_instances(hp_ids, t)
        assert decisions == [one_job.get_best_instance(hp_id, t) for hp_id in hp_ids]
        assert decisions == _scalar_decisions(scalar, hp_ids, t)
        for decision in decisions:
            fields = (
                decision.max_price,
                decision.revocation_probability,
                decision.expected_hour_cost,
                decision.step_cost,
                *decision.candidates.values(),
            )
            assert all(type(value) is float for value in fields)
            assert list(decision.candidates) == [instance.name for instance in pool]
            lowest = min(decision.candidates.values())
            first = next(name for name, cost in decision.candidates.items() if cost == lowest)
            assert decision.instance.name == first
        assert batched.rng.uniform() == one_job.rng.uniform() == scalar.rng.uniform()

    def test_flat_markets_tie_and_the_first_in_pool_order_wins(self):
        pool = tuple(reversed(DEFAULT_INSTANCE_POOL))
        provider = SimCloudProvider(Simulation(start=86400.0), _FLAT_DATASET)
        provisioner = Provisioner(
            pool, ConstantPredictor(0.5), PerformanceMatrix(c0=5.0), provider, RngStream(0)
        )
        for decision in provisioner.get_best_instances(list(_HP_IDS), 86400.0):
            assert len(set(decision.candidates.values())) == 1
            assert decision.instance == pool[0]

    def test_one_pass_per_deploy_instant(self, context, monkeypatch):
        """A revocation-heavy run (the constant-0 predictor) scores all
        the jobs that deploy at one instant in one pass, and makes no
        pass at an instant where no job deploys."""
        calls = []
        batch = Provisioner.get_best_instances

        def counting(self, hp_ids, t):
            calls.append((t, len(hp_ids)))
            return batch(self, hp_ids, t)

        monkeypatch.setattr(Provisioner, "get_best_instances", counting)
        result = make_orchestrator(context, "LoR", 0.7, ConstantPredictor(0.0)).run()
        starts = [
            segment.start
            for record in result.jobs.values()
            for segment in record.segments
        ]
        assert [t for t, _ in calls] == sorted(set(starts))
        assert sum(count for _, count in calls) == len(starts)
        assert max(count for _, count in calls) > 1


class TestOracleMemo:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_memoised_probability_is_will_be_revoked(self, data):
        """The peak-price memo answers exactly as ``will_be_revoked``:
        near and past the trace end, at a max price equal to a price in
        the window (the strict ``>``), and for a repeated (market, t)
        at another price.  The context's one oracle serves every
        example, so its memo fills as a seed's cells would fill it."""
        dataset = _PROPERTY_CONTEXT.dataset
        name = data.draw(st.sampled_from(dataset.instance_types))
        trace = dataset[name]
        if data.draw(st.booleans()):
            t = data.draw(st.floats(trace.end - HOUR, trace.end + 600.0))
        else:
            t = float(data.draw(st.integers(int(trace.start), int(trace.end))))
        lo = int(np.searchsorted(trace.times, t, side="right")) - 1
        hi = int(np.searchsorted(trace.times, min(t + HOUR, trace.end), side="right"))
        window = trace.prices[lo : max(hi, lo + 1)]
        prices = [
            float(data.draw(st.sampled_from(list(window)))),
            data.draw(st.floats(0.5 * window.min(), 1.5 * window.max())),
        ]
        oracle = _PROPERTY_CONTEXT.oracle
        instance = get_instance_type(name)
        for max_price in prices + prices[:1]:
            expected = 1.0 if will_be_revoked(trace, t, max_price) else 0.0
            assert oracle.probability(instance, t, max_price) == expected


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
