"""One runner per figure of the paper's evaluation (§IV).

Each function takes the shared :class:`ExperimentContext` and returns
a plain-data result object with a ``rows()`` method for tabular
printing, so the benchmark harness can both time the experiment and
regenerate the figure's series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.context import ExperimentContext
from repro.analysis.metrics import coefficient_of_variation, normalized_pcr, relative_saving
from repro.cloud.instance import DEFAULT_INSTANCE_POOL, get_instance_type
from repro.cloud.storage import CheckpointThroughputModel
from repro.core.baselines import CHEAPEST_INSTANCE, FASTEST_INSTANCE
from repro.earlycurve.model import StagedCurveModel
from repro.earlycurve.slaq import SlaqCurveModel
from repro.market.labeling import build_training_set
from repro.market.trace import HOUR, MINUTE
from repro.mlalgos.datasets import make_binary_classification
from repro.mlalgos.logistic_regression import LogisticRegressionTrainer
from repro.revpred.evaluate import PredictionMetrics, evaluate_probabilities
from repro.revpred.logistic import LogisticBaseline
from repro.revpred.trainer import RevPredTrainer
from repro.sim.clock import DAY
from repro.sim.rng import RngStream
from repro.sweep.runner import SweepResult, SweepRunner
from repro.sweep.scenario import ScenarioGrid
from repro.workloads.catalog import BENCHMARK_WORKLOADS, get_workload
from repro.workloads.curves import make_curve

APPROACHES = (
    "SpotTune(theta=0.7)",
    "SpotTune(theta=1.0)",
    "Single-Spot Tune (Cheapest)",
    "Single-Spot Tune (Fastest)",
)


def _sweep(context: ExperimentContext, spec: dict) -> SweepResult:
    """Execute a declarative grid for one figure.

    It runs in-process against the shared experiment context, so a
    figure's cells land in the context's memoised run cache exactly as
    the hand-rolled loops did (Fig. 7's theta=0.7 rows stay Fig. 9's
    and Fig. 12's inputs).
    """
    grid = ScenarioGrid.from_spec({"seed": context.seed, "scale": context.scale, **spec})
    return SweepRunner(context=context).run(grid)


# ----------------------------------------------------------------------
# Fig. 1 — spot price trace example
# ----------------------------------------------------------------------
@dataclass
class Fig1Result:
    instance_type: str
    times: np.ndarray
    prices: np.ndarray
    on_demand_price: float

    def rows(self) -> list[list[str]]:
        return [
            ["records", str(len(self.times))],
            ["span (days)", f"{(self.times[-1] - self.times[0]) / DAY:.1f}"],
            ["median spot ($/h)", f"{np.median(self.prices):.4f}"],
            ["max spot ($/h)", f"{self.prices.max():.4f}"],
            ["on-demand ($/h)", f"{self.on_demand_price:.4f}"],
            ["spikes above on-demand", str(int(np.sum(self.prices > self.on_demand_price)))],
        ]


def fig1_price_trace(context: ExperimentContext, instance_name: str = "r3.xlarge") -> Fig1Result:
    """The Fig. 1 series: 11 days of one volatile market vs on-demand."""
    trace = context.dataset[instance_name]
    end = min(trace.end, trace.start + 11 * DAY)
    window = trace.window(trace.start, end)
    return Fig1Result(
        instance_type=instance_name,
        times=window.times,
        prices=window.prices,
        on_demand_price=get_instance_type(instance_name).on_demand_price,
    )


# ----------------------------------------------------------------------
# Fig. 5 — validation loss curve examples
# ----------------------------------------------------------------------
@dataclass
class Fig5Result:
    lor_curves: dict[str, tuple[list[int], list[float]]]
    resnet_curve: np.ndarray
    resnet_num_stages: int

    def rows(self) -> list[list[str]]:
        rows = []
        for label, (steps, losses) in self.lor_curves.items():
            rows.append([f"LoR {label}", f"start={losses[0]:.3f}", f"end={losses[-1]:.3f}"])
        rows.append(
            [
                "ResNet staged curve",
                f"stages={self.resnet_num_stages}",
                f"end={self.resnet_curve[-1]:.3f}",
            ]
        )
        return rows


def fig5_loss_curves(context: ExperimentContext) -> Fig5Result:
    """Fig. 5a: real LoR training with three HP settings; Fig. 5b: a
    staged ResNet-style validation curve."""
    from repro.earlycurve.stages import detect_stages

    data = make_binary_classification(n_samples=1200, n_features=30, seed=context.seed)
    settings = {
        "bs:128 lr:1e-2 dr:1.0 ds:2000": dict(batch_size=128, lr=1e-2, decay_rate=1.0, decay_steps=2000),
        "bs:128 lr:1e-3 dr:0.95 ds:1000": dict(batch_size=128, lr=1e-3, decay_rate=0.95, decay_steps=1000),
        "bs:64 lr:1e-2 dr:0.95 ds:2000": dict(batch_size=64, lr=1e-2, decay_rate=0.95, decay_steps=2000),
    }
    lor_curves = {}
    for label, kwargs in settings.items():
        trainer = LogisticRegressionTrainer(data, seed=context.seed, **kwargs)
        steps, losses = trainer.run(400, validate_every=10)
        lor_curves[label] = (steps, losses)

    resnet = get_workload("ResNet")
    config = {"bs": 32, "version": 2, "depth": 29, "de": 40}
    curve = make_curve(resnet, config, seed=context.seed)
    stages = detect_stages(curve.values)
    return Fig5Result(
        lor_curves=lor_curves, resnet_curve=curve.values, resnet_num_stages=len(stages)
    )


# ----------------------------------------------------------------------
# Fig. 6 — performance profiling
# ----------------------------------------------------------------------
@dataclass
class Fig6Result:
    seconds_per_step: dict[str, float]
    step_time_cov: float

    def rows(self) -> list[list[str]]:
        ordered = sorted(DEFAULT_INSTANCE_POOL, key=lambda i: i.on_demand_price)
        rows = [
            [instance.name, f"{self.seconds_per_step[instance.name]:.2f} s/step"]
            for instance in ordered
        ]
        rows.append(["step-time COV", f"{self.step_time_cov:.4f}"])
        return rows


def fig6_performance_profile(context: ExperimentContext) -> Fig6Result:
    """ResNet speed across the pool, plus the COV<0.1 stability check."""
    workload = get_workload("ResNet")
    config = workload.configurations()[0]
    profile = context.speed_model.profile(list(DEFAULT_INSTANCE_POOL), workload, config)
    instance = get_instance_type("r3.xlarge")
    samples = [
        context.speed_model.sample_segment_speed(instance, workload, config, i)
        for i in range(200)
    ]
    return Fig6Result(
        seconds_per_step=profile, step_time_cov=coefficient_of_variation(samples)
    )


# ----------------------------------------------------------------------
# Fig. 7 — overall cost / JCT / PCR
# ----------------------------------------------------------------------
@dataclass
class Fig7Result:
    cost: dict[str, dict[str, float]]  # workload -> approach -> $
    jct_hours: dict[str, dict[str, float]]
    pcr: dict[str, dict[str, float]]  # normalised, SpotTune(0.7) = 1

    def rows(self) -> list[list[str]]:
        rows = []
        for workload in self.cost:
            for approach in APPROACHES:
                rows.append(
                    [
                        workload,
                        approach,
                        f"{self.cost[workload][approach]:.2f}",
                        f"{self.jct_hours[workload][approach]:.2f}",
                        f"{self.pcr[workload][approach]:.3f}",
                    ]
                )
        return rows

    def summary(self) -> dict[str, float]:
        """The paper's headline aggregates."""
        def mean_saving(reference: str, target: str) -> float:
            return float(
                np.mean(
                    [
                        relative_saving(self.cost[w][reference], self.cost[w][target])
                        for w in self.cost
                    ]
                )
            )

        pcr_10_vs_cheap = np.mean(
            [self.pcr[w]["SpotTune(theta=1.0)"] / self.pcr[w]["Single-Spot Tune (Cheapest)"] for w in self.pcr]
        )
        pcr_10_vs_fast = np.mean(
            [self.pcr[w]["SpotTune(theta=1.0)"] / self.pcr[w]["Single-Spot Tune (Fastest)"] for w in self.pcr]
        )
        pcr_07_vs_cheap = np.mean(
            [1.0 / self.pcr[w]["Single-Spot Tune (Cheapest)"] for w in self.pcr]
        )
        pcr_07_vs_fast = np.mean(
            [1.0 / self.pcr[w]["Single-Spot Tune (Fastest)"] for w in self.pcr]
        )
        return {
            "saving_theta10_vs_cheapest": mean_saving(
                "Single-Spot Tune (Cheapest)", "SpotTune(theta=1.0)"
            ),
            "saving_theta10_vs_fastest": mean_saving(
                "Single-Spot Tune (Fastest)", "SpotTune(theta=1.0)"
            ),
            "saving_theta07_vs_cheapest": mean_saving(
                "Single-Spot Tune (Cheapest)", "SpotTune(theta=0.7)"
            ),
            "saving_theta07_vs_fastest": mean_saving(
                "Single-Spot Tune (Fastest)", "SpotTune(theta=0.7)"
            ),
            "saving_theta07_vs_theta10": mean_saving(
                "SpotTune(theta=1.0)", "SpotTune(theta=0.7)"
            ),
            "pcr_theta10_vs_cheapest": float(pcr_10_vs_cheap),
            "pcr_theta10_vs_fastest": float(pcr_10_vs_fast),
            "pcr_theta07_vs_cheapest": float(pcr_07_vs_cheap),
            "pcr_theta07_vs_fastest": float(pcr_07_vs_fast),
        }


def fig7_cost_jct_pcr(
    context: ExperimentContext,
    workloads: tuple[str, ...] | None = None,
    predictor_kind: str = "revpred",
) -> Fig7Result:
    """Cost, JCT, and normalised PCR for the four approaches."""
    workloads = workloads if workloads is not None else tuple(BENCHMARK_WORKLOADS)
    sweep = _sweep(
        context,
        {
            "grids": [
                {
                    "approach": "spottune",
                    "workload": list(workloads),
                    "theta": [0.7, 1.0],
                    "predictor": predictor_kind,
                },
                {
                    "approach": "single_spot",
                    "workload": list(workloads),
                    "instance": [CHEAPEST_INSTANCE, FASTEST_INSTANCE],
                },
            ]
        },
    )
    cost: dict[str, dict[str, float]] = {}
    jct: dict[str, dict[str, float]] = {}
    pcr: dict[str, dict[str, float]] = {}
    for name in workloads:
        summaries = {
            "SpotTune(theta=0.7)": sweep.one(
                workload=name, approach="spottune", theta=0.7
            ).summary,
            "SpotTune(theta=1.0)": sweep.one(
                workload=name, approach="spottune", theta=1.0
            ).summary,
            "Single-Spot Tune (Cheapest)": sweep.one(
                workload=name, instance=CHEAPEST_INSTANCE
            ).summary,
            "Single-Spot Tune (Fastest)": sweep.one(
                workload=name, instance=FASTEST_INSTANCE
            ).summary,
        }
        cost[name] = {a: s["cost"] for a, s in summaries.items()}
        jct[name] = {a: s["jct_hours"] for a, s in summaries.items()}
        pcr[name] = normalized_pcr(
            {a: (s["jct_hours"], s["cost"]) for a, s in summaries.items()},
            reference="SpotTune(theta=0.7)",
        )
    return Fig7Result(cost=cost, jct_hours=jct, pcr=pcr)


# ----------------------------------------------------------------------
# Fig. 8 — sensitivity against theta
# ----------------------------------------------------------------------
@dataclass
class Fig8Result:
    thetas: tuple[float, ...]
    cost: dict[str, list[float]]  # workload -> cost per theta
    jct_hours: dict[str, list[float]]
    top1_accuracy: list[float]  # averaged over workloads, per theta
    top3_accuracy: list[float]

    def rows(self) -> list[list[str]]:
        rows = []
        for index, theta in enumerate(self.thetas):
            mean_cost = np.mean([self.cost[w][index] for w in self.cost])
            mean_jct = np.mean([self.jct_hours[w][index] for w in self.jct_hours])
            rows.append(
                [
                    f"{theta:.1f}",
                    f"{mean_cost:.2f}",
                    f"{mean_jct:.2f}",
                    f"{self.top1_accuracy[index]:.2f}",
                    f"{self.top3_accuracy[index]:.2f}",
                ]
            )
        return rows


def fig8_theta_sensitivity(
    context: ExperimentContext,
    thetas: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    workloads: tuple[str, ...] | None = None,
    predictor_kind: str = "revpred",
) -> Fig8Result:
    """Cost, JCT, and selection accuracy as theta sweeps 0.1..1.0."""
    workloads = workloads if workloads is not None else tuple(BENCHMARK_WORKLOADS)
    sweep = _sweep(
        context,
        {
            "approach": "spottune",
            "workload": list(workloads),
            "theta": list(thetas),
            "predictor": predictor_kind,
        },
    )
    cost = {name: [] for name in workloads}
    jct = {name: [] for name in workloads}
    top1, top3 = [], []
    for theta in thetas:
        hits1, hits3 = [], []
        for name in workloads:
            summary = sweep.one(workload=name, theta=round(float(theta), 6)).summary
            cost[name].append(summary["cost"])
            jct[name].append(summary["jct_hours"])
            hits1.append(summary["top1_hit"])
            hits3.append(summary["top3_hit"])
        top1.append(float(np.mean(hits1)))
        top3.append(float(np.mean(hits3)))
    return Fig8Result(
        thetas=thetas, cost=cost, jct_hours=jct, top1_accuracy=top1, top3_accuracy=top3
    )


# ----------------------------------------------------------------------
# Fig. 9 — refunded (free) resources contribution
# ----------------------------------------------------------------------
@dataclass
class Fig9Result:
    free_step_fraction: dict[str, float]
    refund_fraction: dict[str, float]

    def rows(self) -> list[list[str]]:
        return [
            [
                name,
                f"{self.free_step_fraction[name]:.1%}",
                f"{self.refund_fraction[name]:.1%}",
            ]
            for name in self.free_step_fraction
        ]

    @property
    def mean_free_fraction(self) -> float:
        return float(np.mean(list(self.free_step_fraction.values())))


def fig9_refund_contribution(
    context: ExperimentContext,
    workloads: tuple[str, ...] | None = None,
    predictor_kind: str = "revpred",
) -> Fig9Result:
    """Free vs charged steps and refund value share at theta = 0.7."""
    workloads = workloads if workloads is not None else tuple(BENCHMARK_WORKLOADS)
    sweep = _sweep(
        context,
        {
            "approach": "spottune",
            "workload": list(workloads),
            "theta": 0.7,
            "predictor": predictor_kind,
        },
    )
    free, refund = {}, {}
    for name in workloads:
        summary = sweep.one(workload=name).summary
        free[name] = summary["free_step_fraction"]
        refund[name] = summary["refund_fraction"]
    return Fig9Result(free_step_fraction=free, refund_fraction=refund)


# ----------------------------------------------------------------------
# Fig. 10a/b — RevPred vs baselines, prediction quality
# ----------------------------------------------------------------------
@dataclass
class Fig10abResult:
    metrics: dict[str, PredictionMetrics]  # model -> aggregated metrics

    def rows(self) -> list[list[str]]:
        return [
            [name, f"{m.accuracy:.3f}", f"{m.f1:.3f}", str(m.total)]
            for name, m in self.metrics.items()
        ]

    def improvement_over_tributary(self) -> dict[str, float]:
        revpred = self.metrics["RevPred"]
        tributary = self.metrics["Tributary Predict"]
        return {
            "accuracy_gain": relative_saving(1.0, 1.0)
            if tributary.accuracy == 0
            else (revpred.accuracy - tributary.accuracy) / tributary.accuracy,
            "f1_gain": float("inf")
            if tributary.f1 == 0
            else (revpred.f1 - tributary.f1) / tributary.f1,
        }


def fig10ab_revpred_accuracy(context: ExperimentContext) -> Fig10abResult:
    """Accuracy/F1 of RevPred, Tributary Predict, and logistic
    regression on the held-out test days, pooled over all markets.

    Test samples use Algorithm 2 (border) max prices: prices far above
    the market are trivially safe, so the decision-relevant — and, per
    the class balance the paper's ~0.6 accuracies imply, the paper's —
    test distribution sits at the revocation border.
    """
    interval = 15 * MINUTE
    confusion = {
        "RevPred": np.zeros(4, dtype=int),
        "Tributary Predict": np.zeros(4, dtype=int),
        "Logistic Regression": np.zeros(4, dtype=int),
    }
    for name in context.dataset.instance_types:
        instance = get_instance_type(name)
        trace = context.dataset[name]
        test_start = context.split_time + 2 * HOUR
        test_times = np.arange(test_start, trace.end - HOUR, interval)
        test_set = build_training_set(
            trace,
            instance.on_demand_price,
            test_times,
            RngStream(context.seed, f"fig10/{name}"),
            delta_mode="fluctuation",
        )

        # Logistic baseline is trained per market on the training days.
        train_trace = context.train_dataset[name]
        from repro.market.labeling import regular_sample_times

        train_set = build_training_set(
            train_trace,
            instance.on_demand_price,
            regular_sample_times(train_trace, interval=context._sample_interval()),
            RngStream(context.seed, f"fig10-train/{name}"),
            delta_mode="uniform",
        )
        logistic = LogisticBaseline(rng=np.random.default_rng(context.seed))
        RevPredTrainer(lr=0.05, epochs=20, seed=context.seed).train(logistic, train_set)

        predictions = {
            "RevPred": context.revpred_bank.predictors[name],
            "Tributary Predict": context.tributary_bank.predictors[name],
        }
        for model_name, market_predictor in predictions.items():
            raw = market_predictor.model.predict_proba(test_set.history, test_set.present)
            calibrated = market_predictor.correction.apply(raw)
            metrics = evaluate_probabilities(calibrated, test_set.labels)
            confusion[model_name] += np.array(
                [
                    metrics.true_positives,
                    metrics.false_positives,
                    metrics.true_negatives,
                    metrics.false_negatives,
                ]
            )
        raw = logistic.predict_proba(test_set.history, test_set.present)
        metrics = evaluate_probabilities(raw, test_set.labels)
        confusion["Logistic Regression"] += np.array(
            [
                metrics.true_positives,
                metrics.false_positives,
                metrics.true_negatives,
                metrics.false_negatives,
            ]
        )
    return Fig10abResult(
        metrics={
            name: PredictionMetrics(*counts.tolist()) for name, counts in confusion.items()
        }
    )


# ----------------------------------------------------------------------
# Fig. 10c — predictor effect on SpotTune cost / PCR
# ----------------------------------------------------------------------
@dataclass
class Fig10cResult:
    cost: dict[str, dict[str, float]]  # workload -> predictor -> $
    pcr: dict[str, dict[str, float]]  # normalised, RevPred = 1

    def rows(self) -> list[list[str]]:
        rows = []
        for workload in self.cost:
            for predictor in ("RevPred", "Tributary Predict"):
                rows.append(
                    [
                        workload,
                        predictor,
                        f"{self.cost[workload][predictor]:.2f}",
                        f"{self.pcr[workload][predictor]:.3f}",
                    ]
                )
        return rows

    def mean_cost_saving(self) -> float:
        """Average cost reduction of RevPred over Tributary."""
        savings = [
            relative_saving(self.cost[w]["Tributary Predict"], self.cost[w]["RevPred"])
            for w in self.cost
        ]
        return float(np.mean(savings))


def fig10c_predictor_effect(
    context: ExperimentContext,
    workloads: tuple[str, ...] | None = None,
) -> Fig10cResult:
    """SpotTune(0.7) with RevPred vs with the Tributary predictor."""
    workloads = workloads if workloads is not None else tuple(BENCHMARK_WORKLOADS)
    sweep = _sweep(
        context,
        {
            "approach": "spottune",
            "workload": list(workloads),
            "theta": 0.7,
            "predictor": ["revpred", "tributary"],
        },
    )
    cost, pcr = {}, {}
    for name in workloads:
        revpred = sweep.one(workload=name, predictor="revpred").summary
        tributary = sweep.one(workload=name, predictor="tributary").summary
        cost[name] = {
            "RevPred": revpred["cost"],
            "Tributary Predict": tributary["cost"],
        }
        pcr[name] = normalized_pcr(
            {
                "RevPred": (revpred["jct_hours"], revpred["cost"]),
                "Tributary Predict": (tributary["jct_hours"], tributary["cost"]),
            },
            reference="RevPred",
        )
    return Fig10cResult(cost=cost, pcr=pcr)


# ----------------------------------------------------------------------
# Fig. 11 — EarlyCurve vs SLAQ
# ----------------------------------------------------------------------
@dataclass
class Fig11Result:
    earlycurve_errors: list[float]  # per ResNet configuration
    slaq_errors: list[float]
    example_observed: np.ndarray
    example_truth: float
    example_earlycurve: float
    example_slaq: float

    def rows(self) -> list[list[str]]:
        rows = [
            [
                f"config {i}",
                f"{ec:.4f}",
                f"{sl:.4f}",
            ]
            for i, (ec, sl) in enumerate(zip(self.earlycurve_errors, self.slaq_errors))
        ]
        rows.append(
            [
                "mean",
                f"{np.mean(self.earlycurve_errors):.4f}",
                f"{np.mean(self.slaq_errors):.4f}",
            ]
        )
        return rows

    @property
    def mean_error_ratio(self) -> float:
        return float(np.mean(self.slaq_errors) / max(np.mean(self.earlycurve_errors), 1e-12))


def fig11_earlycurve_vs_slaq(
    context: ExperimentContext, theta: float = 0.7
) -> Fig11Result:
    """Final-metric prediction error of the two fitters on all 16
    ResNet configurations, observing the first theta of each curve."""
    workload = get_workload("ResNet")
    staged_model = StagedCurveModel()
    slaq_model = SlaqCurveModel()
    earlycurve_errors, slaq_errors = [], []
    example = None
    for config in workload.configurations():
        curve = make_curve(workload, config, seed=context.seed)
        observed = curve.values[: int(theta * workload.max_trial_steps)]
        target_index = workload.max_trial_steps - 1
        truth = curve.final_value
        ec_prediction = staged_model.fit_predict(observed, target_index)
        slaq_prediction = slaq_model.fit_predict(observed, target_index)
        earlycurve_errors.append(abs(ec_prediction - truth))
        slaq_errors.append(abs(slaq_prediction - truth))
        if example is None and config["de"] == 40:
            example = (observed, truth, ec_prediction, slaq_prediction)
    assert example is not None
    return Fig11Result(
        earlycurve_errors=earlycurve_errors,
        slaq_errors=slaq_errors,
        example_observed=example[0],
        example_truth=example[1],
        example_earlycurve=example[2],
        example_slaq=example[3],
    )


# ----------------------------------------------------------------------
# Fig. 12 — checkpoint-restore overhead
# ----------------------------------------------------------------------
@dataclass
class Fig12Result:
    overhead_fraction: dict[str, float]
    throughput_mb_s: dict[str, float]
    max_model_gb: dict[str, float]

    def rows(self) -> list[list[str]]:
        rows = [
            [name, f"{fraction:.2%}"] for name, fraction in self.overhead_fraction.items()
        ]
        for instance_name in self.throughput_mb_s:
            rows.append(
                [
                    f"{instance_name} checkpoint",
                    f"{self.throughput_mb_s[instance_name]:.2f} MB/s, "
                    f"max {self.max_model_gb[instance_name]:.2f} GB",
                ]
            )
        return rows

    @property
    def mean_overhead(self) -> float:
        return float(np.mean(list(self.overhead_fraction.values())))


def fig12_checkpoint_overhead(
    context: ExperimentContext,
    workloads: tuple[str, ...] | None = None,
    predictor_kind: str = "revpred",
) -> Fig12Result:
    """Checkpoint-restore share of wall time per workload, plus the
    §IV-F throughput calibration points."""
    workloads = workloads if workloads is not None else tuple(BENCHMARK_WORKLOADS)
    sweep = _sweep(
        context,
        {
            "approach": "spottune",
            "workload": list(workloads),
            "theta": 0.7,
            "predictor": predictor_kind,
        },
    )
    overhead = {}
    for name in workloads:
        overhead[name] = sweep.one(workload=name).summary["overhead_fraction"]
    model = CheckpointThroughputModel()
    throughput, max_model = {}, {}
    for instance_name in ("t2.micro", "m4.4xlarge"):
        instance = get_instance_type(instance_name)
        throughput[instance_name] = model.speed_mb_s(instance)
        max_model[instance_name] = model.max_model_size_mb(instance) / 1024.0
    return Fig12Result(
        overhead_fraction=overhead, throughput_mb_s=throughput, max_model_gb=max_model
    )
