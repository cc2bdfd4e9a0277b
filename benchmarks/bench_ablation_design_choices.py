"""Ablations of SpotTune's design choices.

Each ablation removes one mechanism and measures the damage, using the
fast oracle predictor so the comparison isolates the mechanism itself:

1. **First-hour refund rule off** — the §V-A degenerate scenario:
   without refunds SpotTune loses its free compute and its advantage
   over the cheapest baseline shrinks dramatically.
2. **Hourly VM recycling off** — without the one-instance-hour recycle
   (Algorithm 1 line 31), jobs ride VMs past the refund boundary and
   revocations stop being free.
3. **EarlyCurve off (theta=1.0)** vs on (theta=0.7) — the early-
   shutdown contribution in isolation.

The variants are one declarative :class:`ScenarioGrid` executed by the
:class:`SweepRunner` — the ablation knobs (``refund_enabled``,
``reschedule_after``) are ordinary sweep axes.
"""

from repro.sweep import Scenario, ScenarioGrid, SweepRunner

WORKLOAD = "LoR"


def make_variants(context) -> dict[str, Scenario]:
    """The ablation cells, pinned to the session context's seed/scale."""
    base = dict(
        workload=WORKLOAD, predictor="oracle", seed=context.seed, scale=context.scale
    )
    return {
        "full": Scenario(theta=0.7, **base),
        "no_refund": Scenario(theta=0.7, refund_enabled=False, **base),
        "no_recycle": Scenario(theta=0.7, reschedule_after=1e9, **base),
        "no_earlycurve": Scenario(theta=1.0, **base),
        "cheapest-spot": Scenario(
            workload=WORKLOAD,
            approach="single_spot",
            instance="r4.large",
            seed=context.seed,
            scale=context.scale,
        ),
    }


def test_ablation_design_choices(benchmark, context):
    runner = SweepRunner(context=context)
    variants = make_variants(context)
    grid = ScenarioGrid(variants.values())

    def run_all():
        sweep = runner.run(grid)
        by_id = {cell.scenario.fingerprint(): cell.summary for cell in sweep}
        return {
            name: by_id[scenario.fingerprint()]
            for name, scenario in variants.items()
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print(f"\n{'variant':16s} {'cost ($)':>9s} {'free steps':>11s} {'JCT (h)':>8s}")
    for name, summary in results.items():
        print(
            f"{name:16s} {summary['cost']:9.2f} "
            f"{summary['free_step_fraction']:11.1%} {summary['jct_hours']:8.2f}"
        )

    full = results["full"]
    cheapest = results["cheapest-spot"]
    # Removing the refund rule strips all free compute and raises cost.
    assert results["no_refund"]["free_step_fraction"] == 0.0
    assert results["no_refund"]["cost"] > full["cost"]
    # Without hourly recycling, refund capture collapses.
    assert results["no_recycle"]["free_step_fraction"] < 0.5 * full["free_step_fraction"]
    # EarlyCurve's early shutdown always cuts steps and wall time; its
    # *cost* effect is usually a cut too, but the paper itself notes
    # occasional inversions where a longer run lucks into more refunded
    # hours (§IV-B2, the SVM theta=0.8 example) — so assert the
    # guaranteed effects and a loose cost bound.
    no_earlycurve = results["no_earlycurve"]
    assert full["steps_completed"] < 0.75 * no_earlycurve["steps_completed"]
    assert full["jct_hours"] < no_earlycurve["jct_hours"]
    assert full["cost"] < 1.5 * no_earlycurve["cost"]
    # Even crippled, SpotTune never exceeds ~1.6x the cheapest baseline
    # cost (it still tracks the lowest step cost, §V-A).
    assert results["no_refund"]["cost"] < 1.6 * cheapest["cost"]
