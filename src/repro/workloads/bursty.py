"""Bursty and spiky workload variants used by the composition case studies.

Two patterns from the paper:

* §5.1 injects an extra 16 short jobs during one hour of every day on top of
  the Philly trace ("workload spikes", Fig. 13) -- :func:`add_daily_spike`.
* §5.2 evaluates the automatic synthesizer on a "bursty" trace where, every
  four hours, the load doubles with short jobs for two consecutive hours --
  :func:`make_bursty_trace`.
"""

from __future__ import annotations

import random
from typing import List

from repro.core.exceptions import ConfigurationError
from repro.core.job import Job
from repro.workloads.models import get_model, model_names
from repro.workloads.philly import PhillyTraceGenerator, generate_philly_trace
from repro.workloads.trace import Trace


def _make_short_job(job_id: int, arrival: float, rng: random.Random, min_minutes: float, max_minutes: float) -> Job:
    model = get_model(rng.choice(model_names()))
    return Job(
        job_id=job_id,
        arrival_time=arrival,
        num_gpus=rng.choice([1, 1, 1, 2, 4]),
        duration=rng.uniform(min_minutes, max_minutes) * 60.0,
        model_name=model.name,
        iteration_time=model.iteration_time,
        scaling=model.scaling_profile(),
        placement_sensitive=model.placement_sensitive,
        skew=model.skew,
        comm_intensity=model.comm_intensity,
        cpu_demand_per_gpu=model.cpu_demand_per_gpu,
        mem_demand_per_gpu=model.mem_demand_per_gpu,
        max_batch_scale=model.max_batch_scale,
        user="burst",
    )


def _kept_tracking(trace: Trace):
    """Tracked window of the original trace, carried by job id.

    Injected spike jobs interleave with the original arrivals, so an
    index-based ``tracked_range`` would re-target to different jobs (possibly
    the spikes themselves) after the merged list is re-sorted; pinning the
    original tracked *ids* keeps the reported population identical.  ``None``
    when the original trace tracked everything -- the spiked trace then
    tracks everything too, spikes included.
    """
    if trace.tracked_range is None and trace.tracked_job_ids is None:
        return None
    return tuple(trace.tracked_ids())


def add_daily_spike(
    trace: Trace,
    jobs_per_spike: int = 16,
    spike_hour: float = 10.0,
    seed: int = 0,
    min_minutes: float = 10.0,
    max_minutes: float = 60.0,
) -> Trace:
    """Inject ``jobs_per_spike`` short jobs during one hour of every simulated day."""
    if jobs_per_spike < 0:
        raise ConfigurationError("jobs_per_spike must be >= 0")
    rng = random.Random(seed)
    jobs: List[Job] = trace.fresh_jobs()
    next_id = max(j.job_id for j in jobs) + 1
    span = max(j.arrival_time for j in jobs)
    day = 0
    while day * 86400.0 < span:
        spike_start = day * 86400.0 + spike_hour * 3600.0
        if spike_start < span:
            for _ in range(jobs_per_spike):
                arrival = spike_start + rng.uniform(0.0, 3600.0)
                jobs.append(_make_short_job(next_id, arrival, rng, min_minutes, max_minutes))
                next_id += 1
        day += 1
    return Trace(jobs=jobs, name=f"{trace.name}-spiked", tracked_job_ids=_kept_tracking(trace))


def generate_spiked_philly_trace(
    seed: int = 0, jobs_per_spike: int = 16, **philly_params
) -> Trace:
    """The Philly trace plus :func:`add_daily_spike` from the same seed (Fig. 13).

    Registered as the ``philly-spikes`` workload; the tracked population is
    the base trace's, so a spec and its spiked variant report the same jobs.
    """
    base = generate_philly_trace(seed=seed, **philly_params)
    return add_daily_spike(base, jobs_per_spike=jobs_per_spike, seed=seed)


def add_spike(
    trace: Trace,
    start_time: float,
    num_jobs: int,
    duration_seconds: float = 3600.0,
    seed: int = 0,
    min_minutes: float = 10.0,
    max_minutes: float = 60.0,
) -> Trace:
    """Inject one load spike: ``num_jobs`` short jobs arriving in a window.

    The one-shot building block behind scenario load-spike timelines (see
    :mod:`repro.scenarios.spec`): arrivals are sampled uniformly in
    ``[start_time, start_time + duration_seconds)`` from ``seed`` alone, so
    the same call always extends the trace with the same jobs.
    """
    if num_jobs < 0:
        raise ConfigurationError("num_jobs must be >= 0")
    if duration_seconds <= 0:
        raise ConfigurationError("duration_seconds must be > 0")
    rng = random.Random(seed)
    jobs: List[Job] = trace.fresh_jobs()
    next_id = max(j.job_id for j in jobs) + 1
    for _ in range(num_jobs):
        arrival = start_time + rng.uniform(0.0, duration_seconds)
        jobs.append(_make_short_job(next_id, arrival, rng, min_minutes, max_minutes))
        next_id += 1
    return Trace(jobs=jobs, name=f"{trace.name}-spike", tracked_job_ids=_kept_tracking(trace))


def make_bursty_trace(
    num_jobs: int = 300,
    base_jobs_per_hour: float = 8.0,
    burst_every_hours: float = 4.0,
    burst_length_hours: float = 2.0,
    burst_multiplier: float = 2.0,
    seed: int = 0,
) -> Trace:
    """A Philly-like base load with periodic bursts of short jobs (§5.2).

    Every ``burst_every_hours`` the generator adds ``burst_multiplier`` times
    the base load of short jobs (10-60 minute runtimes) for
    ``burst_length_hours`` consecutive hours.
    """
    if burst_every_hours <= 0 or burst_length_hours <= 0:
        raise ConfigurationError("burst period and length must be > 0")
    base = PhillyTraceGenerator(
        num_jobs=num_jobs, jobs_per_hour=base_jobs_per_hour, seed=seed
    ).generate()
    rng = random.Random(seed + 1)
    jobs = base.fresh_jobs()
    next_id = max(j.job_id for j in jobs) + 1
    span = max(j.arrival_time for j in jobs)
    burst_rate = base_jobs_per_hour * burst_multiplier
    t = 0.0
    while t < span:
        burst_end = min(t + burst_length_hours * 3600.0, span)
        expected_jobs = int(round(burst_rate * (burst_end - t) / 3600.0))
        for _ in range(expected_jobs):
            arrival = rng.uniform(t, burst_end)
            jobs.append(_make_short_job(next_id, arrival, rng, 10.0, 60.0))
            next_id += 1
        t += burst_every_hours * 3600.0
    return Trace(jobs=jobs, name=f"bursty-{base_jobs_per_hour:g}jph-seed{seed}")
