"""The policy matrix: each incremental policy against its sort-based reference.

A scheduling-policy x placement matrix over the seeded Philly workload
(:mod:`repro.bench.workload`).  Each cell runs the registered (incremental)
policy on the default engine and its ``Legacy*Scheduling`` reference from
:mod:`repro.bench.legacy` on the stepping engine; the two must produce one
schedule, so a cell fails on a policy-layer change and on a skip the policy
wrongly allowed alike.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Tuple

from repro.bench import workload
from repro.bench.cells import DEFAULT, REFERENCE_POLICY, Cell

#: (policy, placement) cells of the full matrix: every policy against the
#: default placement of the paper's comparisons, plus a second placement for
#: one gang and one discretised policy to exercise the placement dimension.
FULL_MATRIX: Tuple[Tuple[str, str], ...] = (
    ("fifo", "consolidated"),
    ("srtf", "consolidated"),
    ("las", "consolidated"),
    ("tiresias", "consolidated"),
    ("gavel", "consolidated"),
    ("pollux", "consolidated"),
    ("fifo", "first-free"),
    ("tiresias", "first-free"),
)

#: CI configuration: one control cell plus the two headline elastic cells.
SMOKE_MATRIX: Tuple[Tuple[str, str], ...] = (
    ("fifo", "consolidated"),
    ("tiresias", "consolidated"),
    ("pollux", "consolidated"),
)


def policy_cells(smoke: bool) -> Tuple[Cell, ...]:
    base = workload.SMOKE if smoke else workload.FULL
    return tuple(
        Cell(
            f"policy/{policy}/{placement}",
            replace(base, policy=policy, placement=placement),
            (DEFAULT, REFERENCE_POLICY),
        )
        for policy, placement in (SMOKE_MATRIX if smoke else FULL_MATRIX)
    )
