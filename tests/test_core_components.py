"""Tests for config, performance matrix, and provisioner."""

import numpy as np
import pytest

from repro.cloud.instance import get_instance_type
from repro.cloud.provider import SimCloudProvider
from repro.core.config import SpotTuneConfig
from repro.core.perf_matrix import PerformanceMatrix
from repro.core.provisioner import Provisioner
from repro.market.dataset import SpotPriceDataset
from repro.market.trace import PriceTrace
from repro.revpred.predictor import ConstantPredictor
from repro.sim.events import Simulation
from repro.sim.rng import RngStream

R4L = get_instance_type("r4.large")
M44 = get_instance_type("m4.4xlarge")


class TestConfig:
    def test_defaults_match_paper(self):
        config = SpotTuneConfig()
        assert config.theta == 0.7
        assert config.poll_interval == 10.0
        assert config.reschedule_after == 3600.0
        assert config.delta_high == 0.2

    def test_theta_bounds(self):
        with pytest.raises(ValueError):
            SpotTuneConfig(theta=0.0)
        with pytest.raises(ValueError):
            SpotTuneConfig(theta=1.1)
        SpotTuneConfig(theta=1.0)  # boundary allowed

    def test_early_shutdown_flag(self):
        assert SpotTuneConfig(theta=0.7).early_shutdown_enabled
        assert not SpotTuneConfig(theta=1.0).early_shutdown_enabled

    def test_invalid_mcnt(self):
        with pytest.raises(ValueError):
            SpotTuneConfig(mcnt=0)

    def test_invalid_delta_interval(self):
        with pytest.raises(ValueError):
            SpotTuneConfig(delta_low=0.3, delta_high=0.2)
        with pytest.raises(ValueError):
            SpotTuneConfig(delta_low=0.0)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            SpotTuneConfig(instance_pool=())


class TestPerformanceMatrix:
    def test_initial_value_is_c0_times_cpus(self):
        matrix = PerformanceMatrix(c0=5.0)
        assert matrix.get(R4L, "hp1") == 10.0  # 2 cpus
        assert matrix.get(M44, "hp1") == 80.0  # 16 cpus

    def test_update_replaces_default(self):
        matrix = PerformanceMatrix(c0=5.0)
        matrix.update(R4L, "hp1", 22.0)
        assert matrix.get(R4L, "hp1") == 22.0

    def test_running_mean(self):
        matrix = PerformanceMatrix(c0=5.0)
        matrix.update(R4L, "hp1", 10.0)
        matrix.update(R4L, "hp1", 20.0)
        assert matrix.get(R4L, "hp1") == pytest.approx(15.0)
        assert matrix.observation_count(R4L, "hp1") == 2

    def test_entries_are_per_hp(self):
        matrix = PerformanceMatrix(c0=5.0)
        matrix.update(R4L, "hp1", 30.0)
        assert matrix.get(R4L, "hp2") == 10.0  # untouched default
        assert matrix.observed_entries() == 1

    def test_repeated_update_matches_single_updates(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            single = PerformanceMatrix(c0=5.0)
            repeated = PerformanceMatrix(c0=5.0)
            for _ in range(int(rng.integers(1, 4))):
                speed = float(rng.choice([rng.uniform(0.5, 40.0), 7.25]))
                times = int(rng.integers(0, 60))
                for _ in range(times):
                    single.update(R4L, "hp1", speed)
                repeated.update_repeated(R4L, "hp1", speed, times)
                assert repeated.get(R4L, "hp1") == single.get(R4L, "hp1")
                assert repeated.observation_count(R4L, "hp1") == single.observation_count(
                    R4L, "hp1"
                )

    def test_invalid_updates_rejected(self):
        matrix = PerformanceMatrix(c0=5.0)
        with pytest.raises(ValueError):
            matrix.update(R4L, "hp1", 0.0)
        with pytest.raises(ValueError):
            PerformanceMatrix(c0=0.0)


def make_provisioner(prices: dict[str, float], probability: float, c0=5.0):
    dataset = SpotPriceDataset()
    for name, price in prices.items():
        dataset.add(PriceTrace(name, np.array([0.0]), np.array([price])))
    sim = Simulation()
    provider = SimCloudProvider(sim, dataset)
    pool = tuple(get_instance_type(name) for name in prices)
    provisioner = Provisioner(
        pool=pool,
        predictor=ConstantPredictor(probability),
        matrix=PerformanceMatrix(c0=c0),
        provider=provider,
        rng=RngStream(0, "test"),
    )
    return provisioner


class TestProvisioner:
    def test_picks_lowest_step_cost(self):
        # Same revocation probability everywhere: with M = C0 * cpus,
        # step cost ~ cpus * price, so the small cheap instance wins.
        provisioner = make_provisioner(
            {"r4.large": 0.03, "m4.4xlarge": 0.36}, probability=0.0
        )
        decision = provisioner.get_best_instance("hp1", 0.0)
        assert decision.instance.name == "r4.large"
        assert set(decision.candidates) == {"r4.large", "m4.4xlarge"}

    def test_updated_matrix_changes_choice(self):
        provisioner = make_provisioner(
            {"r4.large": 0.03, "m4.4xlarge": 0.036}, probability=0.0
        )
        # Observed: r4.large is catastrophically slow for this job.
        provisioner.matrix.update(get_instance_type("r4.large"), "hp1", 1000.0)
        provisioner.matrix.update(get_instance_type("m4.4xlarge"), "hp1", 1.0)
        decision = provisioner.get_best_instance("hp1", 0.0)
        assert decision.instance.name == "m4.4xlarge"

    def test_equation_2_value(self):
        provisioner = make_provisioner({"r4.large": 0.03}, probability=0.25, c0=6.0)
        decision = provisioner.get_best_instance("hp1", 0.0)
        # sCost = M/3600 * (1-p) * avg_price = 12/3600 * 0.75 * 0.03
        assert decision.step_cost == pytest.approx(12.0 / 3600.0 * 0.75 * 0.03)
        assert decision.expected_hour_cost == pytest.approx(0.75 * 0.03)

    def test_max_price_within_delta_interval(self):
        provisioner = make_provisioner({"r4.large": 0.03}, probability=0.0)
        for _ in range(20):
            decision = provisioner.get_best_instance("hp1", 0.0)
            delta = decision.max_price - 0.03
            assert 0.00001 <= delta <= 0.2

    def test_high_revocation_probability_attracts(self):
        # Equal speed and price; the market predicted to revoke more
        # often has lower expected cost (refund farming).
        dataset = SpotPriceDataset()
        dataset.add(PriceTrace("r4.large", np.array([0.0]), np.array([0.1])))
        dataset.add(PriceTrace("r4.xlarge", np.array([0.0]), np.array([0.1])))
        sim = Simulation()
        provider = SimCloudProvider(sim, dataset)

        class SplitPredictor:
            def probability(self, instance, t, max_price):
                return 0.9 if instance.name == "r4.xlarge" else 0.1

        matrix = PerformanceMatrix(c0=5.0)
        matrix.update(get_instance_type("r4.large"), "hp1", 10.0)
        matrix.update(get_instance_type("r4.xlarge"), "hp1", 10.0)
        provisioner = Provisioner(
            pool=(get_instance_type("r4.large"), get_instance_type("r4.xlarge")),
            predictor=SplitPredictor(),
            matrix=matrix,
            provider=provider,
            rng=RngStream(0, "x"),
        )
        decision = provisioner.get_best_instance("hp1", 0.0)
        assert decision.instance.name == "r4.xlarge"
        assert decision.revocation_probability == 0.9

    def test_market_quoted_once_per_instant(self):
        provisioner = make_provisioner(
            {"r4.large": 0.03, "m4.4xlarge": 0.36}, probability=0.0
        )
        provider = provisioner.provider
        quotes = []
        for name in ("current_price", "mean_price_last_hour"):
            quote = getattr(provider, name)

            def counting(instance, quote=quote):
                quotes.append(instance.name)
                return quote(instance)

            setattr(provider, name, counting)
        first = provisioner.get_best_instance("hp1", 0.0)
        provisioner.get_best_instance("hp2", 0.0)
        assert len(quotes) == 4  # two markets, two quotes each, once
        provider.sim.run_until(10.0)
        later = provisioner.get_best_instance("hp1", 10.0)
        assert len(quotes) == 8
        assert later.candidates == first.candidates

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            Provisioner(
                pool=(),
                predictor=ConstantPredictor(0.0),
                matrix=PerformanceMatrix(c0=1.0),
                provider=None,
                rng=RngStream(0, "x"),
            )
