"""Scheduler evaluation metrics: JCT, responsiveness, makespan, utilisation."""

from repro.metrics.summary import (
    average,
    percentile,
    capacity_weighted_utilization,
    jct_summary,
    scenario_summary,
    ScenarioSummary,
    SummaryStats,
)
from repro.metrics.collector import UtilizationCollector

__all__ = [
    "average",
    "percentile",
    "capacity_weighted_utilization",
    "jct_summary",
    "scenario_summary",
    "ScenarioSummary",
    "SummaryStats",
    "UtilizationCollector",
]
