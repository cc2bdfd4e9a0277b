"""SpotTune reproduction: cost-efficient hyper-parameter tuning on
transient cloud resources.

Reproduction of Li et al., "SpotTune: Leveraging Transient Resources
for Cost-efficient Hyper-parameter Tuning in the Public Cloud"
(ICDCS 2020).  See README.md for a tour of the system.

Quickstart::

    from repro import (
        SpotTuneConfig, SpotTuneOrchestrator, OraclePredictor,
        generate_default_dataset, get_workload, make_trials,
    )

    dataset = generate_default_dataset(seed=0, days=12)
    workload = get_workload("LoR")
    trials = make_trials(workload, seed=0)
    orchestrator = SpotTuneOrchestrator(
        workload, trials, dataset, OraclePredictor(dataset),
        SpotTuneConfig(theta=0.7), start_time=9 * 86400.0,
    )
    result = orchestrator.run()
    print(result.total_paid, result.selected)
"""

from repro.analysis.context import ExperimentContext, build_context
from repro.cloud.instance import (
    DEFAULT_INSTANCE_POOL,
    INSTANCE_CATALOG,
    InstanceType,
    get_instance_type,
)
from repro.core.accounting import JobRecord, RunResult
from repro.core.baselines import run_single_spot
from repro.core.config import SpotTuneConfig
from repro.core.orchestrator import SpotTuneOrchestrator
from repro.core.provisioner import Provisioner
from repro.earlycurve.model import StagedCurveModel
from repro.earlycurve.predictor import EarlyCurvePredictor, rank_configurations
from repro.earlycurve.slaq import SlaqCurveModel
from repro.market.dataset import SpotPriceDataset, generate_default_dataset
from repro.market.synthetic import SyntheticMarketGenerator
from repro.market.trace import PriceTrace
from repro.revpred.model import RevPredNetwork
from repro.revpred.predictor import (
    CachingPredictor,
    ConstantPredictor,
    OraclePredictor,
    PredictorBank,
)
from repro.revpred.trainer import RevPredTrainer, train_predictor_bank
from repro.sweep import Scenario, ScenarioGrid, SweepCache, SweepResult, SweepRunner
from repro.workloads.catalog import BENCHMARK_WORKLOADS, get_workload
from repro.workloads.speed import SpeedModel
from repro.workloads.trial import LiveTrainerSource, Trial, make_trials

__version__ = "1.0.0"

__all__ = [
    "ExperimentContext",
    "build_context",
    "DEFAULT_INSTANCE_POOL",
    "INSTANCE_CATALOG",
    "InstanceType",
    "get_instance_type",
    "JobRecord",
    "RunResult",
    "run_single_spot",
    "SpotTuneConfig",
    "SpotTuneOrchestrator",
    "Provisioner",
    "StagedCurveModel",
    "EarlyCurvePredictor",
    "rank_configurations",
    "SlaqCurveModel",
    "SpotPriceDataset",
    "generate_default_dataset",
    "SyntheticMarketGenerator",
    "PriceTrace",
    "RevPredNetwork",
    "CachingPredictor",
    "ConstantPredictor",
    "OraclePredictor",
    "PredictorBank",
    "RevPredTrainer",
    "train_predictor_bank",
    "Scenario",
    "ScenarioGrid",
    "SweepCache",
    "SweepResult",
    "SweepRunner",
    "BENCHMARK_WORKLOADS",
    "get_workload",
    "SpeedModel",
    "LiveTrainerSource",
    "Trial",
    "make_trials",
    "__version__",
]
