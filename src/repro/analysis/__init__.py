"""Experiment runners and reporting for the paper's evaluation.

One runner per figure of the paper's §IV; the benchmark suite under
``benchmarks/`` is a thin timing wrapper around these.
"""

from repro.analysis.context import ExperimentContext, build_context
from repro.analysis.metrics import (
    coefficient_of_variation,
    normalized_pcr,
    relative_saving,
)
from repro.analysis.reporting import format_table

__all__ = [
    "ExperimentContext",
    "build_context",
    "coefficient_of_variation",
    "normalized_pcr",
    "relative_saving",
    "format_table",
]
