"""Reporting utilities shared by the CLI, examples and experiments.

Pure presentation + statistics: no imports from the simulation layers, so
report code can never perturb an experiment.

Public surface
--------------
:class:`Table`
    Column-aware ASCII table builder (the CLI prints through it).
:class:`Series`
    A named (x, y) curve with interpolation and crossings.
:func:`summarize` / :func:`confidence_interval` / :func:`geometric_mean`
    Replication statistics.
"""

from repro.analysis.tables import Table
from repro.analysis.series import Series
from repro.analysis.stats import (
    SummaryStats,
    confidence_interval,
    geometric_mean,
    speedup_curve,
    summarize,
)

__all__ = [
    "Series",
    "SummaryStats",
    "Table",
    "confidence_interval",
    "geometric_mean",
    "speedup_curve",
    "summarize",
]
