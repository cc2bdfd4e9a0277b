"""Row/table shaping over completed sweep cells.

The figure runners keep their own bespoke aggregations (they must
reproduce the paper's exact table shapes); this module covers the
generic case — the ``repro sweep`` CLI table and anything downstream
that wants one row per grid cell.
"""

from __future__ import annotations

from typing import Iterable

from repro.sweep.runner import CellResult
from repro.sweep.scenario import MCNT_DEFAULT, RESCHEDULE_AFTER_DEFAULT

#: (header, summary key, format) for the numeric summary columns.
SUMMARY_COLUMNS: tuple[tuple[str, str, str], ...] = (
    ("cost ($)", "cost", "{:.2f}"),
    ("JCT (h)", "jct_hours", "{:.2f}"),
    ("free steps", "free_step_fraction", "{:.1%}"),
    ("refund share", "refund_fraction", "{:.1%}"),
    ("overhead", "overhead_fraction", "{:.2%}"),
)


def summary_columns() -> list[str]:
    """Headers for :func:`cells_table` rows."""
    return ["workload", "approach", "theta", "predictor", "ckpt", "seed"] + [
        header for header, _, _ in SUMMARY_COLUMNS
    ]


def _scenario_columns(cell: CellResult) -> list[str]:
    scenario = cell.scenario
    # Flipped ablation knobs must be visible, or ablation rows are
    # indistinguishable from their base cells; mcnt matters to both
    # approaches, so it joins the flags whichever way the cell ran.
    flags = []
    if scenario.mcnt != MCNT_DEFAULT:
        flags.append(f"mcnt={scenario.mcnt}")
    if scenario.approach == "spottune":
        if scenario.reschedule_after != RESCHEDULE_AFTER_DEFAULT:
            flags.append(f"recycle={scenario.reschedule_after:g}")
        if not scenario.refund_enabled:
            flags.append("no-refund")
        approach = "spottune" + (f"({','.join(flags)})" if flags else "")
        theta = f"{scenario.theta:g}"
        predictor = scenario.predictor
        ckpt = scenario.checkpoint_policy
    else:
        approach = f"single_spot({','.join([scenario.instance] + flags)})"
        theta, predictor, ckpt = "-", "-", "-"
    return [scenario.workload, approach, theta, predictor, ckpt, str(scenario.seed)]


def cells_table(cells: Iterable[CellResult]) -> list[list[str]]:
    """One formatted row per cell, in sweep order."""
    rows = []
    for cell in cells:
        row = _scenario_columns(cell)
        for _, key, fmt in SUMMARY_COLUMNS:
            row.append(fmt.format(cell.summary[key]))
        rows.append(row)
    return rows
