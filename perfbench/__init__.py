"""Standalone benchmark of the RoLo simulator, described by BENCHMARK.json.

It drives the simulator through its public API only; ``run.py`` is the
command.  See ``run.py`` for usage and ``predictions.json`` for the
end-to-end metric each per-layer metric should move.
"""
