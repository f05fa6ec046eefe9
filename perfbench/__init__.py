"""The repository benchmark: synth, verify, fuzz and explore, end to end.

Run it from the repository root::

    python3 perfbench/run.py --workload fig13 --seed 0 --seconds 15 --trace 0

See ``perfbench/README.md`` for the metrics, the workloads and how the
per-layer trace is taken.
"""
