"""Concrete instances of the Blox abstractions.

Subpackages:

* :mod:`repro.policies.admission` -- accept-all, threshold (Accept-Nx), quota.
* :mod:`repro.policies.scheduling` -- FIFO, LAS, SRTF, Tiresias, Optimus, Gavel,
  Pollux, Themis, Synergy.
* :mod:`repro.policies.placement` -- first-free, consolidated, Tiresias skew
  heuristic, profile-based (Tiresias+), Synergy-aware, bandwidth-aware
  intra-node placement.
* :mod:`repro.policies.termination` -- epoch-based and loss-based termination.
"""
