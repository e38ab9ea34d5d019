"""The parity-gate matrix behind ``python -m repro.bench``.

Every mode is a list of cells (:mod:`repro.bench.cells`): one ``RunSpec``
executed by several legs, every later leg compared to the first with
``schedule_diff``, plus the few measurements that are a mode's own.  All
modes write one artifact shape and exit 1 iff an enforced gate is false;
``docs/architecture.md`` ("Benchmarks") lists them.  How fast any of this
runs is ``benchmarks/run.py``'s question, against the parent commit.
"""
