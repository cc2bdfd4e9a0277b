"""Tests for stage detection, curve fitting, and the online predictor."""

from unittest import mock

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

import repro.earlycurve.model as model_module
import repro.earlycurve.trf as trf_module
from repro.earlycurve.model import CurveFit, StagedCurveModel, fit_single_stage
from repro.earlycurve.predictor import (
    EarlyCurvePredictor,
    StopReason,
    rank_configurations,
)
from repro.earlycurve.slaq import SlaqCurveModel
from repro.earlycurve.stages import Stage, changing_rates, detect_stages
from repro.workloads.catalog import BENCHMARK_WORKLOADS, get_workload
from repro.workloads.trial import make_trials


def single_stage_curve(n=200, floor=0.3, scale=0.02, noise=0.0, seed=0):
    """A clean O(1/k) validation-loss curve."""
    k = np.arange(1, n + 1, dtype=float)
    values = 1.0 / (scale * k + 1.2) + floor
    if noise:
        values += np.random.default_rng(seed).normal(0, noise, n)
    return values


def staged_curve(n=300, drop_at=150, seed=0, noise=0.0):
    """Two-stage curve: plateau at a level, then a sharp LR-decay drop
    into a second descending stage (the Fig. 5b shape).  The drop is
    >50% so it clears Equation 7's xi threshold, as real periodic
    learning-rate decay does on validation loss."""
    k1 = np.arange(1, drop_at + 1, dtype=float)
    stage1 = 1.0 / (0.5 * k1 + 1.0) + 0.60
    k2 = np.arange(1, n - drop_at + 1, dtype=float)
    stage2 = 1.0 / (0.08 * k2 + 4.0) + 0.05
    values = np.concatenate([stage1, stage2])
    if noise:
        values += np.random.default_rng(seed).normal(0, noise, n)
    return values


class TestStageDetection:
    def test_flat_curve_is_one_stage(self):
        stages = detect_stages(np.full(50, 0.5))
        assert stages == [Stage(0, 50)]

    def test_smooth_decay_is_one_stage(self):
        stages = detect_stages(single_stage_curve())
        assert len(stages) == 1

    def test_staged_curve_splits(self):
        values = staged_curve(drop_at=150)
        stages = detect_stages(values)
        assert len(stages) == 2
        assert stages[0].right == 150
        assert stages[1].left == 150

    def test_stages_partition_the_series(self):
        values = staged_curve()
        stages = detect_stages(values)
        assert stages[0].left == 0
        assert stages[-1].right == len(values)
        for before, after in zip(stages[:-1], stages[1:]):
            assert before.right == after.left

    def test_drop_without_steady_prefix_not_split(self):
        # A big change right at the start (no 5 steady steps) is stage 1.
        values = np.concatenate([[1.0, 0.4], np.full(30, 0.4)])
        assert len(detect_stages(values)) == 1

    def test_changing_rates_first_is_zero(self):
        rates = changing_rates(np.array([1.0, 2.0]))
        assert rates[0] == 0.0
        assert rates[1] == pytest.approx(1.0)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            detect_stages(np.array([]))

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ValueError):
            detect_stages(np.ones(10), xi=0.0)

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            Stage(5, 5)
        assert Stage(0, 10).length == 10
        assert Stage(0, 10).contains(9)
        assert not Stage(0, 10).contains(10)


class TestSingleStageFit:
    def test_recovers_family_member(self):
        values = single_stage_curve(n=150)
        k = np.arange(1, 151, dtype=float)
        params = fit_single_stage(k, values)
        fitted = 1.0 / np.maximum(params[0] * k**2 + params[1] * k + params[2], 1e-12)
        fitted += params[3]
        assert np.sqrt(np.mean((fitted - values) ** 2)) < 1e-3

    def test_parameters_nonnegative(self):
        values = single_stage_curve(noise=0.005)
        params = fit_single_stage(np.arange(1, len(values) + 1.0), values)
        assert np.all(params >= 0)

    def test_short_stage_constant_fallback(self):
        params = fit_single_stage(np.array([1.0, 2.0]), np.array([0.4, 0.6]))
        assert params[3] == pytest.approx(0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_single_stage(np.arange(3.0), np.arange(4.0))


class _OracleSolver:
    """Stands in for ``fit_single_stage``'s solver: solves each stage
    problem with the in-tree TRF and with scipy's ``least_squares``, and
    records every problem on which their results differ in any bit."""

    def __init__(self) -> None:
        self.solves = 0
        self.mismatches: list[tuple[int, list[float], list[float]]] = []

    def __call__(self, residuals, x0, max_nfev):
        solved = trf_module.trf_nonnegative(residuals, x0, max_nfev=max_nfev)
        expected = least_squares(
            residuals,
            x0,
            bounds=(np.zeros(4), np.full(4, np.inf)),
            method="trf",
            max_nfev=max_nfev,
        ).x
        self.solves += 1
        if solved.tobytes() != expected.tobytes():
            length = len(residuals(x0))
            self.mismatches.append((length, solved.tolist(), expected.tolist()))
        return solved

    def failure(self) -> str:
        return (
            f"scipy {scipy.__version__}: {len(self.mismatches)} of {self.solves} stage "
            f"fits differ from least_squares; first (length, in-tree, scipy): "
            f"{self.mismatches[:1]}"
        )


@st.composite
def metric_series(draw):
    """A metric series of the shapes stage fits meet: clean and noisy
    inverse-quadratic decays, constants, rising series, and ones near
    zero, at a large scale or below zero."""
    kind = draw(
        st.sampled_from(
            ["inverse_quadratic", "noisy", "constant", "rising", "near_zero", "large", "negative"]
        )
    )
    length = draw(st.integers(min_value=4, max_value=700))
    k = np.arange(1, length + 1, dtype=float)
    a0 = draw(st.floats(min_value=0.0, max_value=1e-2))
    a1 = draw(st.floats(min_value=1e-4, max_value=1.0))
    a2 = draw(st.floats(min_value=0.5, max_value=20.0))
    floor = draw(st.floats(min_value=0.0, max_value=2.0))
    decay = 1.0 / (a0 * k**2 + a1 * k + a2) + floor
    noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        0.0, draw(st.floats(min_value=1e-4, max_value=0.05)), length
    )
    if kind == "noisy":
        return decay + noise
    if kind == "constant":
        return np.full(length, floor)
    if kind == "rising":
        return floor + a1 * np.log1p(k) + noise * 0.1
    if kind == "near_zero":
        return decay * 1e-9
    if kind == "large":
        return decay * 1e6
    if kind == "negative":
        return decay - 2.5 + noise
    return decay


class TestSolverMatchesScipy:
    """``fit_single_stage`` solves with an in-tree copy of scipy's TRF;
    every solve must equal ``least_squares(...).x`` bit for bit."""

    def test_seed0_trial_stage_fits(self):
        oracle = _OracleSolver()
        crossing = mock.patch.object(
            trf_module, "_step_size_to_bound", wraps=trf_module._step_size_to_bound
        )
        with mock.patch.object(model_module, "trf_nonnegative", oracle), crossing as steps:
            for name in BENCHMARK_WORKLOADS:
                workload = get_workload(name)
                for trial in make_trials(workload, seed=0):
                    table = trial.observation_table(workload.validate_every)
                    for theta in (0.55, 0.7):
                        cutoff = EarlyCurvePredictor(trial.max_trial_steps, theta).cutoff_step
                        count = (cutoff - 1) // table.stride + 1
                        StagedCurveModel().fit(table.values[:count])
        assert oracle.solves > 200
        assert steps.call_count > 0  # the reflective step was taken
        assert not oracle.mismatches, oracle.failure()

    @given(values=metric_series())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_generated_series(self, values):
        oracle = _OracleSolver()
        with mock.patch.object(model_module, "trf_nonnegative", oracle):
            fit_single_stage(np.arange(1, len(values) + 1, dtype=float), values)
        assert oracle.solves == 1
        assert not oracle.mismatches, oracle.failure()


@st.composite
def staged_series(draw):
    """A metric series of one to three stages, and that count.  Each
    stage decays within (0.5, 1] of its scale; every stage but the last
    ends on six equal points, and the next scale is at most a fifth of
    it, so the next stage opens with a drop past Equation 7's xi right
    after a steady window."""
    count = draw(st.integers(min_value=1, max_value=3))
    scale = draw(st.floats(min_value=0.1, max_value=50.0))
    stages = []
    for index in range(count):
        length = draw(st.integers(min_value=1 if index == count - 1 else 4, max_value=250))
        k = np.arange(1, length + 1, dtype=float)
        rate = draw(st.floats(min_value=1e-3, max_value=1.0))
        values = scale * (0.5 + 0.5 / (rate * k + 1.0))
        if index < count - 1:
            values = np.concatenate([values, np.full(6, values[-1])])
            scale *= draw(st.floats(min_value=0.01, max_value=0.2))
        elif draw(st.booleans()):
            noise = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            values = values + noise.normal(0.0, 0.002 * scale, length)
        stages.append(values)
    return np.concatenate(stages), count


class TestExtrapolate:
    """``StagedCurveModel.fit_predict`` fits only the last stage and
    must equal the full staged fit's prediction bit for bit."""

    @given(series=staged_series(), data=st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_generated_series(self, series, data):
        values, count = series
        model = StagedCurveModel()
        stages = detect_stages(values)
        assert len(stages) == count
        last = stages[-1].left
        targets = [
            float(last),
            len(values) - 1.0,
            len(values) - 1.0 + data.draw(st.floats(min_value=0.0, max_value=5.0 * len(values))),
        ]
        for target in targets:
            assert model.fit_predict(values, target) == model.fit(values).predict(target)
        if count > 1:
            with pytest.raises(ValueError):
                model.fit_predict(values, last - 0.5)

    def test_seed0_cutoff_prefixes(self):
        """Every prefix an EarlyCurve prediction of seed 0 fits at theta
        0.55 and 0.7, at the target index ``predict_final`` uses."""
        model = StagedCurveModel()
        multi_stage = 0
        for name in BENCHMARK_WORKLOADS:
            workload = get_workload(name)
            for trial in make_trials(workload, seed=0):
                table = trial.observation_table(workload.validate_every)
                for theta in (0.55, 0.7):
                    cutoff = EarlyCurvePredictor(trial.max_trial_steps, theta).cutoff_step
                    count = (cutoff - 1) // table.stride + 1
                    values = table.values[:count]
                    points_per_step = count / max(table.step(count), 1)
                    target = trial.max_trial_steps * points_per_step - 1.0
                    fit = model.fit(values)
                    multi_stage += fit.num_stages > 1
                    assert model.fit_predict(values, target) == fit.predict(target)
        assert multi_stage > 0


class TestStagedVsSlaq:
    def test_earlycurve_beats_slaq_on_staged_curve(self):
        # The Fig. 11 claim: one-stage fitting has significantly higher
        # error when the learning rate decays periodically.
        values = staged_curve(noise=0.002)
        steps = np.arange(len(values), dtype=float)
        staged_fit = StagedCurveModel().fit(values)
        slaq_fit = SlaqCurveModel().fit(values)
        assert staged_fit.rmse(steps, values) < 0.5 * slaq_fit.rmse(steps, values)

    def test_models_agree_on_single_stage_curve(self):
        # "if the learning rate is not changing periodically, EarlyCurve
        # and SLAQ would exhibit the same effect" (paper §IV-E).
        values = single_stage_curve(noise=0.001)
        steps = np.arange(len(values), dtype=float)
        staged_rmse = StagedCurveModel().fit(values).rmse(steps, values)
        slaq_rmse = SlaqCurveModel().fit(values).rmse(steps, values)
        assert staged_rmse == pytest.approx(slaq_rmse, rel=0.25, abs=5e-4)

    def test_extrapolation_tracks_final_value(self):
        full = staged_curve(n=300, drop_at=150)
        observed = full[:210]  # theta = 0.7
        prediction = StagedCurveModel().fit_predict(observed, target_step=299)
        assert prediction == pytest.approx(full[-1], abs=0.05)

    def test_slaq_extrapolation_misses_staged_final(self):
        full = staged_curve(n=300, drop_at=150)
        observed = full[:210]
        staged_error = abs(
            StagedCurveModel().fit_predict(observed, 299) - full[-1]
        )
        slaq_error = abs(SlaqCurveModel().fit_predict(observed, 299) - full[-1])
        assert staged_error < slaq_error


class TestCurveFit:
    def test_stage_routing(self):
        fit = StagedCurveModel().fit(staged_curve())
        values = staged_curve()
        # Early index uses stage-1 params, late index stage-2.
        assert fit.predict(10.0) == pytest.approx(values[10], abs=0.05)
        assert fit.predict(250.0) == pytest.approx(values[250], abs=0.05)

    def test_vectorised_predict(self):
        fit = StagedCurveModel().fit(single_stage_curve())
        out = fit.predict(np.array([0.0, 10.0, 500.0]))
        assert out.shape == (3,)

    def test_negative_step_rejected(self):
        fit = StagedCurveModel().fit(single_stage_curve())
        with pytest.raises(ValueError):
            fit.predict(-1.0)

    def test_mismatched_params_rejected(self):
        with pytest.raises(ValueError):
            CurveFit(stages=[Stage(0, 5)], params=[])

    def test_extrapolation_is_monotone_decreasing(self):
        fit = StagedCurveModel().fit(single_stage_curve())
        far = fit.predict(np.array([300.0, 600.0, 1200.0]))
        assert np.all(np.diff(far) <= 1e-9)


class TestEarlyCurvePredictor:
    def make_predictor(self, theta=0.7, max_steps=300):
        return EarlyCurvePredictor(max_trial_steps=max_steps, theta=theta)

    def test_cutoff_step(self):
        assert self.make_predictor(theta=0.7, max_steps=1000).cutoff_step == 700

    def test_invalid_theta_rejected(self):
        with pytest.raises(ValueError):
            EarlyCurvePredictor(max_trial_steps=100, theta=0.0)

    def test_out_of_order_steps_rejected(self):
        predictor = self.make_predictor()
        predictor.observe(5, 0.5)
        with pytest.raises(ValueError, match="increasing"):
            predictor.observe(5, 0.4)

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError):
            self.make_predictor().observe(1, float("nan"))

    def test_stop_when_theta_reached(self):
        predictor = self.make_predictor(theta=0.5, max_steps=10)
        values = single_stage_curve(10)
        for step, value in enumerate(values[:5], start=1):
            predictor.observe(step, value)
        assert predictor.should_stop() is StopReason.THETA_REACHED

    def test_stop_on_plateau(self):
        predictor = self.make_predictor(theta=1.0, max_steps=10_000)
        for step in range(1, 40):
            predictor.observe(step, 0.5)  # flat from the start
        assert predictor.should_stop() is StopReason.CONVERGED

    def test_no_stop_mid_descent(self):
        predictor = self.make_predictor(theta=1.0, max_steps=10_000)
        for step, value in enumerate(single_stage_curve(50), start=1):
            predictor.observe(step, value)
        assert predictor.should_stop() is None

    def test_predict_modes(self):
        # Observed to completion -> "observed".
        done = self.make_predictor(theta=1.0, max_steps=5)
        for step, value in enumerate([0.9, 0.7, 0.6, 0.55, 0.52], start=1):
            done.observe(step, value)
        assert done.predict_final().mode == "observed"

        # Plateau -> "converged".
        flat = self.make_predictor(theta=1.0, max_steps=10_000)
        for step in range(1, 40):
            flat.observe(step, 0.5)
        outcome = flat.predict_final()
        assert outcome.mode == "converged"
        assert outcome.predicted_final == pytest.approx(0.5)

        # Partial descent -> "extrapolated".
        partial = self.make_predictor(theta=0.7, max_steps=300)
        for step, value in enumerate(single_stage_curve(210), start=1):
            partial.observe(step, value)
        outcome = partial.predict_final()
        assert outcome.mode == "extrapolated"
        full = single_stage_curve(300)
        assert outcome.predicted_final == pytest.approx(full[-1], abs=0.05)

    def test_predict_without_observations_rejected(self):
        with pytest.raises(ValueError):
            self.make_predictor().predict_final()


class TestRanking:
    def test_top_mcnt_lower_is_better(self):
        predictions = {"a": 0.5, "b": 0.2, "c": 0.9, "d": 0.3}
        assert rank_configurations(predictions, 2) == ["b", "d"]

    def test_higher_is_better(self):
        predictions = {"a": 0.5, "b": 0.2, "c": 0.9}
        assert rank_configurations(predictions, 1, lower_is_better=False) == ["c"]

    def test_mcnt_larger_than_pool(self):
        assert rank_configurations({"a": 1.0}, 5) == ["a"]

    def test_invalid_mcnt_rejected(self):
        with pytest.raises(ValueError):
            rank_configurations({"a": 1.0}, 0)
