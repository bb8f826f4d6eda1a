"""The repository's benchmark.

Four workloads over the paper's regimes, end-to-end metrics measured with
tracing off, and a separate traced run that reports per-layer metrics.
Run one workload with ``python3 bench/run.py --workload NAME``; see
``bench/README.md`` for the metrics, the workloads and why each was
chosen.
"""
