"""The one answer to "did these two runs make the same schedule?".

Every differential gate in the repo -- fast-forward vs stepping, indexed vs
legacy, deployment vs simulation, serial vs parallel vs recovered federation,
traced vs untraced -- compares two results with :func:`schedule_diff`, which
checks the superset of what any of them ever checked: per-job completion
times, the full round log, the round count and the end time, all with exact
(bit-identical float) equality, and for federations the routing assignments
first and then every shard.

The comparison is duck-typed so this module imports nothing from the
simulator or federation layers: a result with ``shard_results`` is a
``FederationResult``, anything else a ``SimulationResult``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: How many mismatched job ids a diff keeps (enough to debug, bounded so a
#: wholesale divergence does not bloat a bench artifact).
MISMATCH_LIMIT = 20

_MISSING = object()


@dataclass(frozen=True)
class ScheduleDiff:
    """Outcome of :func:`schedule_diff`; federation booleans are all-shards."""

    identical_completion_times: bool
    identical_round_logs: bool
    identical_round_count: bool
    identical_end_time: bool
    #: Ids whose completion time differs (or that only one run has), sorted,
    #: at most :data:`MISMATCH_LIMIT`.
    mismatched_job_ids: Tuple[int, ...] = ()
    #: One line naming the earliest difference found (shard, round index or
    #: job id); ``None`` iff the schedules are identical.
    first_divergence: Optional[str] = None

    @property
    def identical(self) -> bool:
        return self.first_divergence is None

    def as_dict(self) -> Dict[str, object]:
        """The ``parity`` block of the bench artifacts: the four booleans,
        plus ``first_divergence`` only when a gate failed."""
        record: Dict[str, object] = {
            "identical_completion_times": self.identical_completion_times,
            "identical_round_logs": self.identical_round_logs,
            "identical_round_count": self.identical_round_count,
            "identical_end_time": self.identical_end_time,
        }
        if self.first_divergence is not None:
            record["first_divergence"] = self.first_divergence
        return record


def _differing_keys(a: Dict[int, object], b: Dict[int, object]) -> List[int]:
    return sorted(
        key for key in a.keys() | b.keys() if a.get(key, _MISSING) != b.get(key, _MISSING)
    )


def _diff_one(a, b, where: str) -> ScheduleDiff:
    """Compare two ``SimulationResult``s; ``where`` prefixes the divergence."""
    a_done = {job.job_id: job.completion_time for job in a.jobs}
    b_done = {job.job_id: job.completion_time for job in b.jobs}
    mismatched = _differing_keys(a_done, b_done)
    a_log, b_log = a.round_log, b.round_log
    same_log = a_log == b_log
    same_rounds = a.rounds == b.rounds
    same_end = a.end_time == b.end_time

    divergence = None
    if not same_log:
        index = next(
            (i for i, (x, y) in enumerate(zip(a_log, b_log)) if x != y),
            min(len(a_log), len(b_log)),
        )
        divergence = f"round log index {index} ({len(a_log)} vs {len(b_log)} records)"
    elif mismatched:
        job_id = mismatched[0]
        divergence = (
            f"job {job_id} completion time "
            f"{a_done.get(job_id, 'absent')} vs {b_done.get(job_id, 'absent')}"
        )
    elif not same_rounds:
        divergence = f"round count {a.rounds} vs {b.rounds}"
    elif not same_end:
        divergence = f"end time {a.end_time!r} vs {b.end_time!r}"
    return ScheduleDiff(
        identical_completion_times=not mismatched,
        identical_round_logs=same_log,
        identical_round_count=same_rounds,
        identical_end_time=same_end,
        mismatched_job_ids=tuple(mismatched[:MISMATCH_LIMIT]),
        first_divergence=None if divergence is None else where + divergence,
    )


def schedule_diff(a, b) -> ScheduleDiff:
    """Compare two runs' schedules exactly; see :class:`ScheduleDiff`.

    Both arguments are ``SimulationResult``s or both ``FederationResult``s.
    Wall-clock fields never take part.
    """
    if not hasattr(a, "shard_results"):
        return _diff_one(a, b, "")

    shard_diffs = [
        _diff_one(left, right, f"shard {index}: ")
        for index, (left, right) in enumerate(zip(a.shard_results, b.shard_results))
    ]
    misrouted = _differing_keys(a.assignments, b.assignments)
    if len(a.shard_results) != len(b.shard_results):
        divergence = f"shard count {len(a.shard_results)} vs {len(b.shard_results)}"
    elif misrouted:
        job_id = misrouted[0]
        divergence = (
            f"job {job_id} routed to shard "
            f"{a.assignments.get(job_id, 'none')} vs {b.assignments.get(job_id, 'none')}"
        )
    else:
        divergence = next(
            (d.first_divergence for d in shard_diffs if not d.identical), None
        )
    mismatched = sorted(
        {job_id for d in shard_diffs for job_id in d.mismatched_job_ids}
    )
    return ScheduleDiff(
        identical_completion_times=all(d.identical_completion_times for d in shard_diffs),
        identical_round_logs=all(d.identical_round_logs for d in shard_diffs),
        identical_round_count=all(d.identical_round_count for d in shard_diffs),
        identical_end_time=all(d.identical_end_time for d in shard_diffs),
        mismatched_job_ids=tuple(mismatched[:MISMATCH_LIMIT]),
        first_divergence=divergence,
    )
