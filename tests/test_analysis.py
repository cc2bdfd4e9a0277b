"""Tests for analysis metrics, reporting, context, and figure runners.

Figure runners that need a trained predictor run with the oracle
predictor kind here (fast); the benchmark suite exercises the trained
RevPred path.
"""

import numpy as np
import pytest

from repro.analysis.context import build_context
from repro.analysis.experiments import (
    fig1_price_trace,
    fig5_loss_curves,
    fig6_performance_profile,
    fig7_cost_jct_pcr,
    fig9_refund_contribution,
    fig11_earlycurve_vs_slaq,
)
from repro.analysis.metrics import coefficient_of_variation, normalized_pcr, relative_saving
from repro.analysis.reporting import format_table


@pytest.fixture(scope="module")
def context():
    return build_context(seed=0, scale="small")


class TestMetrics:
    def test_cov(self):
        assert coefficient_of_variation([1.0, 1.0, 1.0]) == 0.0
        assert coefficient_of_variation([1.0, 3.0]) == pytest.approx(0.5)

    def test_cov_empty_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([])

    def test_cov_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation([-1.0, 1.0])

    def test_normalized_pcr_reference_is_one(self):
        pcr = normalized_pcr({"a": (2.0, 3.0), "b": (1.0, 1.0)}, reference="a")
        assert pcr["a"] == pytest.approx(1.0)
        assert pcr["b"] == pytest.approx(6.0)

    def test_normalized_pcr_unknown_reference(self):
        with pytest.raises(KeyError):
            normalized_pcr({"a": (1.0, 1.0)}, reference="zzz")

    def test_normalized_pcr_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            normalized_pcr({"a": (0.0, 1.0)}, reference="a")

    def test_relative_saving(self):
        assert relative_saving(10.0, 4.0) == pytest.approx(0.6)
        assert relative_saving(10.0, 12.0) == pytest.approx(-0.2)

    def test_relative_saving_rejects_bad_baseline(self):
        with pytest.raises(ValueError):
            relative_saving(0.0, 1.0)


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", "1"], ["long-name", "22"]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)
        assert "long-name" in table

    def test_title_included(self):
        assert format_table(["x"], [["1"]], title="My Table").startswith("My Table")

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])


class TestContext:
    def test_split_is_nine_three(self, context):
        assert context.split_time == pytest.approx(9 * 86400.0)
        assert context.train_dataset.end <= context.split_time
        assert context.test_dataset.start >= context.split_time

    def test_replay_start_in_test_window(self, context):
        assert context.replay_start > context.split_time

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            build_context(scale="enormous")

    def test_run_cache_reuses_results(self, context):
        first = context.spottune_run("LiR", 0.7, "oracle")
        second = context.spottune_run("LiR", 0.7, "oracle")
        assert first is second

    def test_unknown_predictor_kind_rejected(self, context):
        with pytest.raises(ValueError, match="predictor kind"):
            context.spottune_run("LiR", 0.7, "psychic")

    def test_baseline_cache(self, context):
        first = context.baseline_run("LiR", "r4.large")
        second = context.baseline_run("LiR", "r4.large")
        assert first is second

    def test_trials_are_made_once_per_workload(self, monkeypatch):
        import repro.workloads.trial as trial_mod

        made = []
        real = trial_mod.make_trials

        def counted(workload, seed=0):
            made.append((workload.name, seed))
            return real(workload, seed=seed)

        monkeypatch.setattr(trial_mod, "make_trials", counted)
        fresh = build_context(seed=3)
        fresh.baseline_run("LiR", "r4.large")
        fresh.baseline_run("LiR", "m4.4xlarge")
        fresh.spottune_run("LiR", 0.7, "oracle")
        assert made == [("LiR", 3)]
        # After three runs the shared trials still equal freshly made
        # ones: no run wrote to them.
        rebuilt = real(fresh.trials("LiR")[0].workload, seed=3)
        assert [t.trial_id for t in fresh.trials("LiR")] == [t.trial_id for t in rebuilt]
        for shared, again in zip(fresh.trials("LiR"), rebuilt):
            assert np.array_equal(shared.source.curve.values, again.source.curve.values)


class TestFigureRunners:
    def test_fig1(self, context):
        result = fig1_price_trace(context)
        assert result.prices.max() > result.on_demand_price
        assert len(result.rows()) == 6

    def test_fig5(self, context):
        result = fig5_loss_curves(context)
        assert len(result.lor_curves) == 3
        assert result.resnet_num_stages >= 2

    def test_fig6(self, context):
        result = fig6_performance_profile(context)
        assert result.step_time_cov < 0.1
        assert len(result.seconds_per_step) == 6

    def test_fig7_oracle_single_workload(self, context):
        result = fig7_cost_jct_pcr(context, workloads=("LiR",), predictor_kind="oracle")
        costs = result.cost["LiR"]
        assert costs["SpotTune(theta=0.7)"] == min(costs.values())
        summary = result.summary()
        assert summary["saving_theta07_vs_fastest"] > 0.5

    def test_fig9_oracle(self, context):
        result = fig9_refund_contribution(
            context, workloads=("LiR",), predictor_kind="oracle"
        )
        assert 0.0 < result.free_step_fraction["LiR"] < 1.0

    def test_fig11(self, context):
        result = fig11_earlycurve_vs_slaq(context)
        assert len(result.earlycurve_errors) == 16
        assert np.mean(result.earlycurve_errors) < np.mean(result.slaq_errors)
