"""Automatic scheduler synthesizer (Blox §5.2).

Different scheduling/admission combinations win under different arrival
patterns, and no single static choice is best across a day of cluster
operation.  The synthesizer exploits Blox's modularity: every ``evaluate_every``
rounds it forks the live system into one shadow run per ``(policy,
admission)`` pair of its grid, scores each with the operator's objective, and
switches the live scheduler to the winner.

A shadow run is an ordinary :class:`~repro.simulator.engine.Simulator` over
``snapshot()``s of the live ``JobState`` and ``ClusterState``, with fresh
registry-built policies and fast-forward on.  It enters the live round after
that round's progress was applied, admits no new arrivals apart from the jobs
the live admission policy is still holding, and pauses after
``horizon_rounds`` rounds (or earlier, once every job it tracks finished).

The synthesizer itself implements the scheduling-policy and admission-policy
interfaces, so it drops into the ordinary scheduling loop unchanged -- the
composition trick the paper highlights.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.abstractions import AdmissionPolicy, ScheduleEntry, SchedulingPolicy
from repro.core.blox_manager import BloxManager
from repro.core.cluster_state import ClusterState
from repro.core.exceptions import ConfigurationError
from repro.core.job import Job
from repro.core.job_state import JobState
from repro.policies.admission import ADMISSION_POLICIES
from repro.policies.placement import PLACEMENT_POLICIES
from repro.policies.scheduling import SCHEDULING_POLICIES
from repro.simulator.engine import Simulator
from repro.synthesizer.objectives import AverageJct, Objective

#: One cell of the search grid: ``(policy, admission)`` registry names.
Combination = Tuple[str, str]


class _ForkManager(BloxManager):
    """A shadow run's manager: its clock starts at the live round.

    The fork enters the live round after that round's progress was applied,
    so its first ``update_metrics`` is a no-op, as round 0's is in a fresh
    run.  ``stop_time`` is the horizon, for ``_advance_loop`` to pause at.
    """

    def __init__(self, start_round: int, horizon_rounds: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.round_number = self._start_round = start_round
        self.current_time = start_round * self.round_duration
        self.stop_time = (start_round + horizon_rounds) * self.round_duration

    def update_metrics(self, cluster_state: ClusterState, job_state: JobState) -> None:
        if self.round_number != self._start_round:
            super().update_metrics(cluster_state, job_state)


class AutoSchedulerSynthesizer(SchedulingPolicy, AdmissionPolicy):
    """Switches between policy combinations at runtime based on shadow runs."""

    name = "auto-synthesizer"

    #: The evaluation counter advances once per ``schedule`` call, so skipping
    #: rounds would shift when policy switches happen; the simulator must run
    #: every round when the synthesizer is in the loop.
    supports_fast_forward = False
    steady_state_safe = False

    def __init__(
        self,
        grid: Sequence[Combination],
        placement: str = "consolidated",
        objective: Optional[Objective] = None,
        evaluate_every: int = 10,
        horizon_rounds: int = 48,
        round_duration: float = 300.0,
    ) -> None:
        self.grid: List[Combination] = []
        checks = [("placement", placement, PLACEMENT_POLICIES)]
        for policy, admission in grid:
            self.grid.append((policy, admission))
            checks.append(("policy", policy, SCHEDULING_POLICIES))
            checks.append(("admission", admission, ADMISSION_POLICIES))
        if not self.grid:
            raise ConfigurationError("the synthesizer needs at least one policy combination")
        for kind, name, registry in checks:
            if name not in registry:
                raise ConfigurationError(
                    f"unknown {kind} {name!r}; expected one of {sorted(registry)}"
                )
        if evaluate_every < 1 or horizon_rounds < 1:
            raise ConfigurationError("evaluate_every and horizon_rounds must be >= 1")
        self.placement = placement
        self.objective = objective or AverageJct()
        self.evaluate_every = evaluate_every
        self.horizon_rounds = horizon_rounds
        self.round_duration = round_duration

        self._round_counter = 0
        self._switch_to(self.grid[0])
        self._carryover: List[Job] = []
        #: (round_index, combination_label) history: the §5.2 switching trace.
        self.choice_log: List[Tuple[int, str]] = [(0, self.current_name)]

    @classmethod
    def from_grid(
        cls, policies: Sequence[str], admissions: Sequence[str], **kwargs
    ) -> "AutoSchedulerSynthesizer":
        """Build the full cross-product grid of scheduling x admission names."""
        return cls(list(itertools.product(policies, admissions)), **kwargs)

    @property
    def current_name(self) -> str:
        """Label of the combination currently driving the live cluster."""
        return "/".join(self._current)

    # ------------------------------------------------------------------
    # Shadow runs and policy switching
    # ------------------------------------------------------------------

    def _fork(
        self, combination: Combination, job_state: JobState, cluster_state: ClusterState
    ) -> Simulator:
        """A shadow ``Simulator`` over snapshots of the live state, not yet run.

        Jobs the live admission policy holds are submitted to the fork's wait
        queue, so its first round hands them to its own admission policy.
        """
        now = job_state.current_time
        start_round = round(now / self.round_duration)
        if start_round * self.round_duration != now:
            raise ConfigurationError(
                f"live time {now} is not a round boundary of round_duration "
                f"{self.round_duration}; it must equal the live simulator's"
            )
        jobs = job_state.snapshot()
        tracked = [job.job_id for job in jobs.all_jobs() if not job.is_finished]
        policy, admission = combination
        fork = Simulator(
            cluster_state=cluster_state.snapshot(),
            jobs=(),
            scheduling_policy=SCHEDULING_POLICIES[policy](),
            placement_policy=PLACEMENT_POLICIES[self.placement](),
            admission_policy=ADMISSION_POLICIES[admission](),
            round_duration=self.round_duration,
            tracked_job_ids=tracked,
            max_rounds=start_round + self.horizon_rounds + 1,
            job_state=jobs,
            manager_factory=partial(_ForkManager, start_round, self.horizon_rounds),
            allow_empty_workload=True,
        )
        held = sorted(self.pending_jobs(), key=lambda j: (j.arrival_time, j.job_id))
        for job in held:
            fork.manager.submit_job(job.snapshot())
            fork.tracked_job_ids.append(job.job_id)
        return fork

    def _shadow_score(
        self, combination: Combination, job_state: JobState, cluster_state: ClusterState
    ) -> float:
        fork = self._fork(combination, job_state, cluster_state)
        fork._advance_loop(stop_time=fork.manager.stop_time)
        jobs = fork.job_state.all_jobs() + fork.admission_policy.pending_jobs()
        return self.objective.score(jobs, fork.manager.current_time)

    def _best_combination(
        self, job_state: JobState, cluster_state: ClusterState
    ) -> Combination:
        best = self._current
        best_score = float("inf")
        for combination in self.grid:
            score = self._shadow_score(combination, job_state, cluster_state)
            if score < best_score - 1e-9:
                best_score = score
                best = combination
        return best

    def _switch_to(self, combination: Combination) -> None:
        policy, admission = combination
        self._current = combination
        self._current_scheduling = SCHEDULING_POLICIES[policy]()
        self._current_admission = ADMISSION_POLICIES[admission]()

    def _maybe_switch(self, job_state: JobState, cluster_state: ClusterState) -> None:
        if self._round_counter % self.evaluate_every != 0:
            return
        if not job_state.count_active() and not self.pending_jobs():
            return
        best = self._best_combination(job_state, cluster_state)
        if best != self._current:
            # Jobs queued inside the outgoing admission policy must not be lost
            # on a switch; they are re-submitted to the incoming policy.
            self._carryover.extend(self._current_admission.pending_jobs())
            self._switch_to(best)
        self.choice_log.append((self._round_counter, self.current_name))

    # ------------------------------------------------------------------
    # AdmissionPolicy / SchedulingPolicy interfaces (delegation)
    # ------------------------------------------------------------------

    def accept(self, new_jobs, cluster_state, job_state):
        jobs = list(self._carryover) + list(new_jobs)
        self._carryover = []
        return self._current_admission.accept(jobs, cluster_state, job_state)

    def pending_jobs(self):
        return self._current_admission.pending_jobs()

    def schedule(self, job_state: JobState, cluster_state: ClusterState) -> Iterable[ScheduleEntry]:
        self._maybe_switch(job_state, cluster_state)
        self._round_counter += 1
        return self._current_scheduling.schedule(job_state, cluster_state)
