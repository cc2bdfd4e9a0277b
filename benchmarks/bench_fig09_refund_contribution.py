"""Fig. 9 — contribution of refunded (free) resources.

At theta = 0.7, measures (a) the share of training steps executed on
VM segments whose instance-hour was refunded — the paper reports an
average of 77.5% — and (b) the refunded value relative to all consumed
compute value.  The refund is the reason SpotTune is simultaneously
faster and cheaper than the cheapest single-spot baseline.
"""

from repro.analysis.experiments import fig9_refund_contribution
from repro.analysis.reporting import format_table


def test_fig9_refund_contribution(benchmark, context):
    result = benchmark.pedantic(
        fig9_refund_contribution, args=(context,), rounds=1, iterations=1
    )
    print()
    print(
        format_table(
            ["workload", "free steps", "refund share of gross"],
            result.rows(),
            "Fig. 9 — refunded resources (theta = 0.7)",
        )
    )
    print(f"\nmean free-step contribution: {result.mean_free_fraction:.1%} "
          f"(paper: 77.5%)")

    # Refunded resources must carry a material share of the work on
    # every workload.  The paper reports 77.5% on the 2017 AWS traces;
    # on the synthetic market the oracle upper bound is ~25-50% (jump
    # arrivals are less predictable than real spot demand), so the
    # shape claim here is "refunds are a significant, non-accidental
    # contributor", not the paper's absolute level.
    for workload, fraction in result.free_step_fraction.items():
        assert fraction > 0.08, (workload, fraction)
    assert result.mean_free_fraction > 0.12
    for workload, fraction in result.refund_fraction.items():
        assert 0.0 < fraction < 1.0, (workload, fraction)
