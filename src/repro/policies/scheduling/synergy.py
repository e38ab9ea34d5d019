"""Synergy: resource-sensitive scheduling.

Synergy observes that DNN jobs differ widely in how much CPU and host memory
they need per GPU, and that allocating these auxiliary resources blindly (a
GPU-proportional share) throttles CPU-hungry jobs.  In Blox terms Synergy
modifies the scheduling policy (resource-sensitive FIFO ordering) and the
placement policy (which performs the CPU/memory-aware packing -- see
:class:`repro.policies.placement.synergy_placement.SynergyPlacement`).  The
CPU/memory decision is the placement's, so the scheduling side is FIFO.
"""

from __future__ import annotations

from repro.policies.scheduling.fifo import FifoScheduling


class SynergyScheduling(FifoScheduling):
    """Resource-sensitive FIFO ordering used by both Synergy modes."""

    name = "synergy"
    # Explicit fast-forward contract (C101): FIFO's schedule, so FIFO's.
    steady_state_safe = True
