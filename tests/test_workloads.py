"""Tests for workload specs, curves, speed model, and trials."""

import dataclasses

import numpy as np
import pytest

from repro.cloud.instance import DEFAULT_INSTANCE_POOL, get_instance_type
from repro.earlycurve.stages import detect_stages
from repro.mlalgos.datasets import make_binary_classification
from repro.mlalgos.logistic_regression import LogisticRegressionTrainer
from repro.workloads.catalog import BENCHMARK_WORKLOADS, get_workload
from repro.workloads.curves import make_curve
from repro.workloads.speed import SpeedModel, hp_time_multiplier, throughput
from repro.workloads.spec import HyperParameterGrid, WorkloadSpec, config_id
from repro.workloads.trial import LiveTrainerSource, Trial, make_trials


class TestGrid:
    def test_cartesian_product(self):
        grid = HyperParameterGrid({"a": (1, 2), "b": ("x", "y", "z")})
        configs = grid.configurations()
        assert len(configs) == 6 == len(grid)
        assert {"a": 1, "b": "x"} in configs

    def test_deterministic_order(self):
        grid = HyperParameterGrid({"b": (1, 2), "a": (3, 4)})
        assert grid.configurations() == [
            {"a": 3, "b": 1},
            {"a": 3, "b": 2},
            {"a": 4, "b": 1},
            {"a": 4, "b": 2},
        ]

    def test_config_id_sorted(self):
        assert config_id({"lr": 0.01, "bs": 64}) == "bs=64,lr=0.01"

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            HyperParameterGrid({})
        with pytest.raises(ValueError):
            HyperParameterGrid({"a": ()})


class TestCatalog:
    def test_six_workloads(self):
        assert set(BENCHMARK_WORKLOADS) == {"LoR", "SVM", "GBTR", "LiR", "AlexNet", "ResNet"}

    def test_all_grids_have_16_configs(self):
        for workload in BENCHMARK_WORKLOADS.values():
            assert workload.num_configurations == 16

    def test_cnn_workloads_are_staged(self):
        assert get_workload("AlexNet").curve_family == "staged"
        assert get_workload("ResNet").curve_family == "staged"
        assert get_workload("LoR").curve_family == "single"

    def test_table_ii_grids(self):
        svm = get_workload("SVM")
        assert svm.grid.values["kernel"] == ("rbf", "linear")
        resnet = get_workload("ResNet")
        assert resnet.grid.values["version"] == (1, 2)
        assert resnet.grid.values["depth"] == (20, 29)

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError, match="LoR"):
            get_workload("BERT")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(
                name="bad",
                algorithm="x",
                metric="mse",
                grid=HyperParameterGrid({"a": (1,)}),
                max_trial_steps=0,
                base_seconds_per_step=1.0,
                model_size_mb=1.0,
            )


class TestCurves:
    def test_deterministic(self):
        workload = get_workload("LoR")
        config = workload.configurations()[0]
        a = make_curve(workload, config, seed=0)
        b = make_curve(workload, config, seed=0)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_configs_differ(self):
        workload = get_workload("LoR")
        configs = workload.configurations()
        a = make_curve(workload, configs[0], seed=0)
        b = make_curve(workload, configs[1], seed=0)
        assert not np.array_equal(a.values, b.values)

    def test_curves_descend(self):
        workload = get_workload("LoR")
        for config in workload.configurations()[:4]:
            curve = make_curve(workload, config, seed=0)
            assert curve.final_value < curve.values[0]

    def test_staged_curves_have_detectable_stages(self):
        workload = get_workload("ResNet")
        staged_count = 0
        for config in workload.configurations():
            curve = make_curve(workload, config, seed=0)
            if len(detect_stages(curve.values)) >= 2:
                staged_count += 1
        assert staged_count >= 12  # most of the 16 configs

    def test_single_family_has_one_stage(self):
        workload = get_workload("LiR")
        config = workload.configurations()[0]
        curve = make_curve(workload, config, seed=0)
        assert len(detect_stages(curve.values)) == 1

    def test_quality_heterogeneity(self):
        # The grid must contain clearly good and clearly bad configs.
        workload = get_workload("SVM")
        finals = [
            make_curve(workload, config, seed=0).final_value
            for config in workload.configurations()
        ]
        assert max(finals) > 2.0 * min(finals)

    def test_value_at_bounds(self):
        curve = make_curve(get_workload("LoR"), get_workload("LoR").configurations()[0])
        with pytest.raises(ValueError):
            curve.value_at(0)
        assert curve.value_at(10_000) == curve.final_value  # clamps


class TestSpeedModel:
    def test_more_cores_faster(self):
        assert throughput(get_instance_type("m4.4xlarge")) > throughput(
            get_instance_type("r4.large")
        )

    def test_price_not_proportional_to_speed(self):
        # Fig. 6's observation: r3.xlarge costs more than r4.xlarge yet
        # trains slower (older generation).
        r3 = get_instance_type("r3.xlarge")
        r4 = get_instance_type("r4.xlarge")
        assert r3.on_demand_price > r4.on_demand_price
        assert throughput(r3) < throughput(r4)

    def test_speed_spread_matches_fig6(self):
        # Fastest/slowest ratio in the pool should be ~3-4x, not the
        # 6x price spread.
        speeds = [throughput(instance) for instance in DEFAULT_INSTANCE_POOL]
        assert 2.5 < max(speeds) / min(speeds) < 4.5

    def test_hp_multipliers(self):
        assert hp_time_multiplier({"bs": 128}) == pytest.approx(2.0)
        assert hp_time_multiplier({"kernel": "rbf"}) > hp_time_multiplier(
            {"kernel": "linear"}
        )

    def test_segment_speed_cov_below_0_1(self):
        # §IV-A5: step-time coefficient of variation below 0.1.
        model = SpeedModel(seed=0, cov=0.05)
        workload = get_workload("LoR")
        config = workload.configurations()[0]
        instance = get_instance_type("r4.large")
        samples = np.array(
            [
                model.sample_segment_speed(instance, workload, config, segment_index=i)
                for i in range(300)
            ]
        )
        cov = samples.std() / samples.mean()
        assert cov < 0.1
        assert samples.mean() == pytest.approx(
            model.seconds_per_step(instance, workload, config), rel=0.02
        )

    def test_memoised_draws_equal_fresh_draws(self):
        # A segment's factor is the first draw of a stream forked by the
        # segment's name, so one model answering repeated and
        # interleaved names gives the bits a fresh model gives per call,
        # and a same-named workload with another step time keeps its
        # own mean.
        lor = get_workload("LoR")
        slower = dataclasses.replace(lor, base_seconds_per_step=3 * lor.base_seconds_per_step)
        first, second = lor.configurations()[:2]
        small, large = get_instance_type("r4.large"), get_instance_type("m4.4xlarge")
        calls = [
            (small, lor, first, 0),
            (large, lor, second, 1),
            (small, lor, first, 0),
            (small, slower, first, 0),
            (large, lor, second, 1),
            (small, lor, first, 1),
            (large, slower, second, 1),
            (small, lor, first, 0),
        ]
        model = SpeedModel(seed=5)
        reused = [model.sample_segment_speed(*call).hex() for call in calls]
        fresh = [SpeedModel(seed=5).sample_segment_speed(*call).hex() for call in calls]
        assert reused == fresh
        assert reused[3] != reused[0]

    def test_profile_covers_pool(self):
        model = SpeedModel()
        workload = get_workload("ResNet")
        profile = model.profile(list(DEFAULT_INSTANCE_POOL), workload, workload.configurations()[0])
        assert set(profile) == {instance.name for instance in DEFAULT_INSTANCE_POOL}

    def test_invalid_cov_rejected(self):
        with pytest.raises(ValueError):
            SpeedModel(cov=0.9)


class TestTrials:
    def test_make_trials_covers_grid(self):
        workload = get_workload("GBTR")
        trials = make_trials(workload, seed=0)
        assert len(trials) == 16
        assert len({trial.trial_id for trial in trials}) == 16

    def test_trial_id_format(self):
        trial = make_trials(get_workload("LoR"), seed=0)[0]
        assert trial.trial_id.startswith("LoR[")

    def test_simulated_source_final(self):
        trial = make_trials(get_workload("LoR"), seed=0)[0]
        assert trial.true_final() == trial.metric_at(trial.max_trial_steps)

    def test_live_trainer_source(self):
        data = make_binary_classification(n_samples=300, n_features=10, seed=0)
        trainer = LogisticRegressionTrainer(data, lr=0.2, seed=0)
        source = LiveTrainerSource(trainer)
        metric_5 = source.metric_at(5)
        metric_10 = source.metric_at(10)
        assert trainer.step_count == 10
        # Queries for past steps come from the cache, no retraining.
        assert source.metric_at(5) == metric_5
        assert trainer.step_count == 10
        assert metric_10 != metric_5

    def test_live_trainer_rejects_bad_step(self):
        data = make_binary_classification(n_samples=100, n_features=5, seed=0)
        source = LiveTrainerSource(LogisticRegressionTrainer(data))
        with pytest.raises(ValueError):
            source.metric_at(0)

    def test_live_trainer_has_no_true_final(self):
        data = make_binary_classification(n_samples=100, n_features=5, seed=0)
        trial = Trial(
            workload=get_workload("LoR"),
            config={"bs": 64},
            source=LiveTrainerSource(LogisticRegressionTrainer(data)),
        )
        with pytest.raises(AttributeError):
            trial.true_final()
