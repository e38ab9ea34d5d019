"""Scheduler evaluation metrics: JCT, responsiveness, makespan, CDFs."""

from repro.metrics.summary import (
    average,
    percentile,
    cdf_points,
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
    "cdf_points",
    "capacity_weighted_utilization",
    "jct_summary",
    "scenario_summary",
    "ScenarioSummary",
    "SummaryStats",
    "UtilizationCollector",
]
