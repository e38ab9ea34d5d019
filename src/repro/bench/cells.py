"""Cells, legs, gates and the one artifact writer behind every ``BENCH_*.json``.

Blox validates a scheduler by executing one run description two ways and
comparing.  That is all a bench mode is here:

* a :class:`Leg` is a named way to execute a :class:`RunSpec` -- ``default``
  (``spec.build()``), ``stepping`` (``build(fast_forward=False)``, the
  reference every skip must match), ``reference-policy`` and ``scan-state``
  (the independent references of :mod:`repro.bench.legacy`), ``traced``,
  ``simulation`` (a runtime spec on the plain simulator), ``parallel``
  (``build(workers=N)``); the chaos bench adds ``faulted(seed)`` and
  ``killed(when, at)``;
* a :class:`Cell` is a name, a spec and an ordered tuple of legs;
  :func:`run_cell` runs them and compares every later leg to the first with
  :func:`repro.metrics.parity.schedule_diff` -- the one row shape of every
  artifact (``legs`` with timings and per-leg facts, a ``parity`` block
  holding ``identical`` and the diff of each later leg);
* a :class:`Gate` is ``(name, ok, enforced, reason)``; the CLIs exit 1 iff
  :func:`failed_gates` is non-empty;
* :func:`write_artifact` is the only code that writes a ``BENCH_*.json``.
  Every file has the top-level keys of :func:`artifact` (``benchmark``,
  ``machine``, ``metadata``, ``config``, ``gates``, ``cells``,
  ``sections``); a section is either plain data of the same run or, when a
  separate command produced it (``--events``, ``--chaos``, ``--stream``), an
  artifact of its own with its own metadata stamp.  Writes merge
  read-modify-write, so a section survives the runs that do not produce it.
  ``tools/check_docs.py`` validates the checked-in files against this shape.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bench.legacy import LEGACY_SCHEDULING, LegacySimulator
from repro.federation.parallel import usable_cores
from repro.metrics.parity import schedule_diff
from repro.policies.admission import ADMISSION_POLICIES
from repro.policies.placement import PLACEMENT_POLICIES
from repro.policies.scheduling import SCHEDULING_POLICIES
from repro.simulator.engine import Simulator
from repro.simulator.overheads import OverheadModel
from repro.telemetry.events import run_metadata
from repro.telemetry.runspec import RunSpec
from repro.telemetry.sinks import JsonlSink


@dataclass
class LegRun:
    """One executed leg: the result, its timings and the leg's own facts."""

    result: object
    wall_s: float
    cpu_s: float
    #: Non-schedule observations a bench asked for (leases left, fault
    #: counters, ...); recorded beside the timings in the cell row.
    facts: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Leg:
    """A named way to execute a spec.  ``run`` is a module-level function or
    a :func:`functools.partial` of one, so a leg pickles to sweep workers."""

    name: str
    run: Callable[[RunSpec], LegRun]


def timed(engine, facts: Optional[Callable] = None) -> LegRun:
    """Run ``engine``; ``facts(engine, result)`` is read after the clock stops."""
    start = time.perf_counter()
    cpu_start = time.process_time()
    result = engine.run()
    cpu_s = time.process_time() - cpu_start
    wall_s = time.perf_counter() - start
    return LegRun(result, wall_s, cpu_s, facts(engine, result) if facts else {})


def _run_built(spec: RunSpec, facts, build_kwargs) -> LegRun:
    return timed(spec.build(**build_kwargs), facts)


def built(name: str, facts: Optional[Callable] = None, **build_kwargs) -> Leg:
    """The leg ``spec.build(**build_kwargs).run()``."""
    return Leg(name, partial(_run_built, facts=facts, build_kwargs=build_kwargs))


def _run_reference(spec: RunSpec, engine_cls, policies, **engine_kwargs) -> LegRun:
    """The two legs built beside ``RunSpec.build``: an engine class or a
    policy table the registries do not hold."""
    trace = spec.trace()
    return timed(
        engine_cls(
            cluster_state=spec.cluster(),
            jobs=trace.fresh_jobs(),
            scheduling_policy=policies[spec.policy](),
            placement_policy=PLACEMENT_POLICIES[spec.placement](),
            admission_policy=ADMISSION_POLICIES[spec.admission](),
            round_duration=spec.round_duration,
            tracked_job_ids=trace.tracked_ids(),
            **engine_kwargs,
        )
    )


def _run_traced(spec: RunSpec) -> LegRun:
    with tempfile.TemporaryDirectory(prefix="bench-trace-") as directory:
        path = os.path.join(directory, "trace.jsonl")
        sink = JsonlSink(path)
        try:
            run = timed(spec.build(sink))
        finally:
            sink.close()
        with open(path) as handle:
            run.facts["events"] = sum(1 for _ in handle)
    return run


def _run_simulation(spec: RunSpec) -> LegRun:
    return timed(replace(spec, mode="core").build(overhead_model=OverheadModel()))


DEFAULT = built("default")
STEPPING = built("stepping", fast_forward=False)
REFERENCE_POLICY = Leg(
    "reference-policy",
    partial(_run_reference, engine_cls=Simulator, policies=LEGACY_SCHEDULING, fast_forward=False),
)
SCAN_STATE = Leg(
    "scan-state", partial(_run_reference, engine_cls=LegacySimulator, policies=SCHEDULING_POLICIES)
)
TRACED = Leg("traced", _run_traced)
SIMULATION = Leg("simulation", _run_simulation)


def parallel(workers: int) -> Leg:
    return built("parallel", workers=workers)


@dataclass(frozen=True)
class Cell:
    """One run description and the ways it is executed; the first leg is the
    one every later leg must reproduce."""

    name: str
    spec: RunSpec
    legs: Tuple[Leg, ...]


def run_legs(cell: Cell) -> List[LegRun]:
    return [leg.run(cell.spec) for leg in cell.legs]


def _rounds(result) -> int:
    federated = hasattr(result, "shard_results")
    return result.total_rounds() if federated else result.rounds


def run_cell(cell: Cell, runs: Optional[Sequence[LegRun]] = None) -> Dict[str, object]:
    """Execute ``cell`` (or take its already-executed ``runs``) into a row."""
    if runs is None:
        runs = run_legs(cell)
    first = runs[0].result
    stats = first.pooled_stats() if hasattr(first, "shard_results") else first.summary()
    legs: Dict[str, object] = {}
    parity: Dict[str, object] = {}
    for leg, run in zip(cell.legs, runs):
        rounds = _rounds(run.result)
        legs[leg.name] = {
            "wall_s": round(run.wall_s, 4),
            "rounds_per_sec": round(rounds / run.wall_s, 1) if run.wall_s > 0 else None,
            **run.facts,
        }
        if run is not runs[0]:
            parity[leg.name] = schedule_diff(first, run.result).as_dict()
    return {
        "spec": cell.spec.as_dict(),
        "rounds": _rounds(first),
        "finished_jobs": stats.count,
        "avg_jct_s": round(stats.avg_jct, 2),
        "legs": legs,
        "parity": {
            "identical": all("first_divergence" not in diff for diff in parity.values()),
            "legs": parity,
        },
    }


@dataclass(frozen=True)
class Gate:
    """One pass/fail line of an artifact.  An unenforced gate records its
    measurement and, in ``reason``, why it does not bind on this run."""

    name: str
    ok: bool
    enforced: bool = True
    reason: str = ""


def parity_gate(name: str, rows: Dict[str, Dict], leg: Optional[str] = None) -> Gate:
    """``ok`` iff ``leg`` (every later leg when ``None``) reproduced the first
    leg's schedule in every row that ran it; the reason names the earliest
    divergence otherwise."""
    compared = 0
    for cell_name, row in rows.items():
        for leg_name, diff in row["parity"]["legs"].items():
            if leg not in (None, leg_name):
                continue
            compared += 1
            if "first_divergence" in diff:
                return Gate(
                    name, False, reason=f"{cell_name} [{leg_name}]: {diff['first_divergence']}"
                )
    if not compared:
        return Gate(name, False, reason=f"no cell ran a {leg or 'second'} leg")
    return Gate(name, True, reason=f"{compared} comparisons bit-identical")


def failed_gates(updates: Iterable[Dict]) -> List[str]:
    """The enforced gates that are false, over ``updates`` and their sections."""
    blocks = [b for update in updates for b in (update, *update.get("sections", {}).values())]
    return [
        f"{name} ({gate['reason']})"
        for block in blocks
        for name, gate in block.get("gates", {}).items()
        if gate["enforced"] and not gate["ok"]
    ]


class ArtifactError(ValueError):
    """An existing artifact could not be merged into (the file is untouched)."""


def artifact(
    benchmark: str,
    seed: int,
    config: Dict[str, object],
    gates: Sequence[Gate],
    cells: Dict[str, Dict],
    started_at: Optional[float] = None,
    **sections: Dict,
) -> Dict[str, object]:
    """The one shape of a ``BENCH_*.json`` (and of a separately-run section)."""
    return {
        "benchmark": benchmark,
        "machine": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "usable_cores": usable_cores(),
        },
        "metadata": run_metadata(seed, config, started_at),
        "config": config,
        "gates": {
            gate.name: {"ok": gate.ok, "enforced": gate.enforced, "reason": gate.reason}
            for gate in gates
        },
        "cells": cells,
        "sections": sections,
    }


def write_artifact(path: str, update: Dict[str, object]) -> None:
    """Merge ``update`` into the artifact at ``path`` and write it back.

    ``update`` is an :func:`artifact` (a full run: replaces the top-level
    blocks) or just ``{"sections": {...}}`` (a section run); either way the
    file's other sections are kept.  A missing file starts a new artifact
    (stamped by the first section when ``update`` has no top level); an
    unparseable one raises :class:`ArtifactError` and is left as it is.
    """
    try:
        with open(path) as handle:
            existing = json.load(handle)
    except FileNotFoundError:
        existing = {}
    except ValueError as exc:
        raise ArtifactError(f"{path} exists but is not a JSON artifact ({exc})") from exc
    if not isinstance(existing, dict):
        raise ArtifactError(f"{path} exists but is not a JSON artifact (not an object)")
    if "benchmark" in update:
        base = update
    elif existing:
        base = existing
    else:
        stamp = next(iter(update["sections"].values()))
        base = {**stamp, "config": {}, "gates": {}, "cells": {}}
    merged = {**base, "sections": {**existing.get("sections", {}), **update["sections"]}}
    with open(path, "w") as handle:
        json.dump(merged, handle, indent=2)
        handle.write("\n")


def finish(updates: Dict[str, Dict], out: Optional[str]) -> int:
    """The tail of every bench CLI: print ``{default path: artifact update}``,
    write each (to ``out`` when given, nowhere for ``'-'``) and turn the gates
    into the exit code -- 1 iff an enforced gate is false, 2 if an existing
    artifact could not be merged into."""
    json.dump(updates, sys.stdout, indent=2)
    print()
    if out != "-":
        try:
            for default_path, update in updates.items():
                write_artifact(out or default_path, update)
        except ArtifactError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    failed = failed_gates(updates.values())
    for line in failed:
        print(f"GATE FAILED: {line}", file=sys.stderr)
    return 1 if failed else 0
