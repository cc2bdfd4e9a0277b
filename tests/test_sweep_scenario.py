"""Tests for scenario cells, fingerprints, and the declarative grid."""

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.sweep.scenario import SCHEMA_VERSION, Scenario, ScenarioGrid


class TestScenario:
    def test_defaults(self):
        scenario = Scenario(workload="LoR")
        assert scenario.approach == "spottune"
        assert scenario.theta == 0.7
        assert scenario.checkpoint_policy == "notice"

    def test_unknown_approach_rejected(self):
        with pytest.raises(ValueError, match="approach"):
            Scenario(workload="LoR", approach="magic")

    def test_unknown_predictor_rejected(self):
        with pytest.raises(ValueError, match="predictor"):
            Scenario(workload="LoR", predictor="psychic")

    def test_theta_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="theta"):
            Scenario(workload="LoR", theta=1.5)

    def test_single_spot_needs_instance(self):
        with pytest.raises(ValueError, match="instance"):
            Scenario(workload="LoR", approach="single_spot")

    def test_invalid_checkpoint_policy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="checkpoint policy"):
            Scenario(workload="LoR", checkpoint_policy="hourly")

    def test_spottune_rejects_instance(self):
        with pytest.raises(ValueError, match="dynamically"):
            Scenario(workload="LoR", instance="r4.large")

    def test_baseline_normalises_irrelevant_fields(self):
        a = Scenario(
            workload="LoR", approach="single_spot", instance="r4.large", theta=0.3
        )
        b = Scenario(
            workload="LoR", approach="single_spot", instance="r4.large", theta=0.9
        )
        assert a.fingerprint() == b.fingerprint()

    def test_ablation_knobs_validated_and_labelled(self):
        with pytest.raises(ValueError, match="reschedule_after"):
            Scenario(workload="LoR", reschedule_after=0.0)
        default = Scenario(workload="LoR")
        ablated = Scenario(workload="LoR", reschedule_after=1e9, refund_enabled=False)
        # Default knobs keep the pre-existing label (RngStream keys
        # must stay stable as axes are added); flipped knobs show up.
        assert "recycle" not in default.label()
        assert "recycle=1e+09" in ablated.label()
        assert "no-refund" in ablated.label()

    def test_round_trip(self):
        scenario = Scenario(workload="SVM", theta=0.5, predictor="constant", seed=7)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            Scenario.from_dict({"workload": "LoR", "gpu": True})


class TestFingerprint:
    def test_stable_across_instances(self):
        assert (
            Scenario(workload="LoR", seed=3).fingerprint()
            == Scenario(workload="LoR", seed=3).fingerprint()
        )

    def test_every_field_matters(self):
        base = Scenario(workload="LoR")
        variants = [
            Scenario(workload="LiR"),
            Scenario(workload="LoR", theta=0.8),
            Scenario(workload="LoR", predictor="constant"),
            Scenario(workload="LoR", checkpoint_policy="periodic:900"),
            Scenario(workload="LoR", reschedule_after=7200.0),
            Scenario(workload="LoR", refund_enabled=False),
            Scenario(workload="LoR", mcnt=2),
            Scenario(workload="LoR", seed=1),
            Scenario(workload="LoR", scale="paper"),
        ]
        fingerprints = {base.fingerprint()} | {v.fingerprint() for v in variants}
        assert len(fingerprints) == len(variants) + 1

    @staticmethod
    def rendered(scenario: Scenario) -> str:
        """The fingerprint computed afresh, past any memo."""
        payload = json.dumps(
            {"schema": SCHEMA_VERSION, "scenario": scenario.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def test_memo_matches_a_fresh_render_on_every_axis(self):
        grid = ScenarioGrid.from_spec(
            {
                "workload": ["LoR", "LiR"],
                "mcnt": [1, 3],
                "seed": [0, 5],
                "scale": ["small", "paper"],
                "grids": [
                    {
                        "theta": [0.5, 1.0],
                        "predictor": ["oracle", "constant"],
                        "checkpoint_policy": ["notice", "periodic:900"],
                        "reschedule_after": [3600.0, 7200.0],
                        "refund_enabled": [True, False],
                    },
                    {"approach": "single_spot", "instance": ["r4.large", "m4.2xlarge"]},
                ],
            }
        )
        # The grid already asked each cell for its fingerprint.
        assert [s.fingerprint() for s in grid] == [self.rendered(s) for s in grid]
        assert len({s.fingerprint() for s in grid}) == len(grid) == 16 * 34

    def test_memo_survives_a_pickle_round_trip(self):
        scenario = Scenario(workload="SVM", theta=0.5, seed=7)
        memo = scenario.fingerprint()
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario and hash(clone) == hash(scenario)
        assert clone.fingerprint() == memo == self.rendered(clone)

    def test_a_replaced_copy_gets_its_own_fingerprint(self):
        scenario = Scenario(workload="SVM", theta=0.5, seed=7)
        scenario.fingerprint()
        copy = dataclasses.replace(scenario, seed=8)
        assert copy.fingerprint() == self.rendered(copy) != scenario.fingerprint()

    def test_memo_stays_out_of_identity(self):
        memoised = Scenario(workload="LoR", seed=3)
        memoised.fingerprint()
        fresh = Scenario(workload="LoR", seed=3)
        assert memoised == fresh and hash(memoised) == hash(fresh)
        assert repr(memoised) == repr(fresh)
        assert memoised.to_dict() == fresh.to_dict()


class TestScenarioGrid:
    def test_cartesian_product(self):
        grid = ScenarioGrid.from_axes(
            workload=["LoR", "LiR"], theta=[0.5, 0.7, 1.0], predictor="oracle"
        )
        assert len(grid) == 6

    def test_scalar_axes_are_single_points(self):
        grid = ScenarioGrid.from_axes(workload="LoR", theta=0.7)
        assert len(grid) == 1

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown grid axes"):
            ScenarioGrid.from_axes(workload="LoR", gpu_count=[1, 2])

    def test_duplicates_collapse(self):
        grid = ScenarioGrid(
            [Scenario(workload="LoR"), Scenario(workload="LoR"), Scenario(workload="LiR")]
        )
        assert len(grid) == 2

    def test_enumeration_order_is_stable(self):
        axes = dict(workload=["LoR", "LiR"], theta=[0.7, 1.0])
        first = [s.label() for s in ScenarioGrid.from_axes(**axes)]
        second = [s.label() for s in ScenarioGrid.from_axes(**axes)]
        assert first == second

    def test_union(self):
        grid = ScenarioGrid.from_axes(workload="LoR") + ScenarioGrid.from_axes(
            workload="LiR"
        )
        assert len(grid) == 2

    def test_from_spec_single_axes(self):
        grid = ScenarioGrid.from_spec({"workload": ["LoR", "LiR"], "theta": [0.7, 1.0]})
        assert len(grid) == 4

    def test_from_spec_subgrids_share_defaults(self):
        grid = ScenarioGrid.from_spec(
            {
                "seed": [0, 1],
                "grids": [
                    {"workload": "LoR", "theta": [0.7, 1.0]},
                    {
                        "approach": "single_spot",
                        "workload": "LoR",
                        "instance": "r4.large",
                    },
                ],
            }
        )
        # (2 thetas + 1 baseline) x 2 seeds
        assert len(grid) == 6
        assert {s.seed for s in grid} == {0, 1}

    def test_from_spec_subgrid_overrides_defaults(self):
        grid = ScenarioGrid.from_spec(
            {"seed": 0, "grids": [{"workload": "LoR", "seed": 9}]}
        )
        assert [s.seed for s in grid] == [9]

    def test_from_spec_rejects_non_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            ScenarioGrid.from_spec([{"workload": "LoR"}])

    def test_from_spec_rejects_bad_grids_value(self):
        with pytest.raises(ValueError, match="grids"):
            ScenarioGrid.from_spec({"grids": "LoR"})


class TestRescheduleDefault:
    def test_derived_from_the_dataclass_field(self):
        from dataclasses import fields

        from repro.sweep.scenario import RESCHEDULE_AFTER_DEFAULT

        field_default = next(
            f.default for f in fields(Scenario) if f.name == "reschedule_after"
        )
        assert RESCHEDULE_AFTER_DEFAULT == field_default

    def test_default_reschedule_not_labelled_as_ablation(self):
        from repro.sweep.aggregate import _scenario_columns
        from repro.sweep.runner import CellResult

        base = Scenario(workload="LoR")
        ablated = Scenario(workload="LoR", reschedule_after=7200.0)
        base_row = _scenario_columns(CellResult(base, {}))
        ablated_row = _scenario_columns(CellResult(ablated, {}))
        assert "recycle" not in base_row[1]
        assert "recycle=7200" in ablated_row[1]
        assert "recycle" not in base.label()
        assert "recycle=7200" in ablated.label()


class TestMcntAxis:
    """ISSUE 5 satellite: mcnt (parallel-selection count, paper
    Table I) is a first-class grid axis for both approaches."""

    def test_default_derived_from_the_dataclass_field(self):
        from dataclasses import fields

        from repro.sweep.scenario import MCNT_DEFAULT

        field_default = next(f.default for f in fields(Scenario) if f.name == "mcnt")
        assert MCNT_DEFAULT == field_default

    def test_invalid_mcnt_rejected(self):
        for bad in (0, -1, 2.5):
            with pytest.raises(ValueError, match="mcnt"):
                Scenario(workload="LoR", mcnt=bad)

    def test_integral_float_normalised_to_int(self):
        scenario = Scenario(workload="LoR", mcnt=2.0)  # JSON specs carry floats
        assert scenario.mcnt == 2 and isinstance(scenario.mcnt, int)
        assert scenario.fingerprint() == Scenario(workload="LoR", mcnt=2).fingerprint()

    def test_default_mcnt_keeps_the_pre_axis_label(self):
        # RngStream keys derive from the label: the new axis must not
        # shift every existing cell's market randomness.
        assert "mcnt" not in Scenario(workload="LoR").label()
        assert "mcnt=5" in Scenario(workload="LoR", mcnt=5).label()

    def test_mcnt_labelled_for_both_approaches(self):
        from repro.sweep.aggregate import _scenario_columns
        from repro.sweep.runner import CellResult

        tuned = Scenario(workload="LoR", mcnt=2)
        baseline = Scenario(
            workload="LoR", approach="single_spot", instance="r4.large", mcnt=2
        )
        assert "mcnt=2" in _scenario_columns(CellResult(tuned, {}))[1]
        assert "mcnt=2" in _scenario_columns(CellResult(baseline, {}))[1]
        assert "mcnt=2" in baseline.label()

    def test_mcnt_sweeps_as_a_grid_axis(self):
        grid = ScenarioGrid.from_axes(
            workload="LoR", theta=0.7, predictor="oracle", mcnt=[1, 3, 5]
        )
        assert sorted(s.mcnt for s in grid) == [1, 3, 5]
        assert len({s.fingerprint() for s in grid}) == 3

    def test_mcnt_spec_round_trip(self):
        grid = ScenarioGrid.from_spec(
            {"workload": "LoR", "theta": 0.7, "predictor": "oracle", "mcnt": [1, 2]}
        )
        for scenario in grid:
            assert Scenario.from_dict(scenario.to_dict()) == scenario
