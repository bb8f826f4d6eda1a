"""Benchmark harness: one module per paper table/figure (see DESIGN.md).

Run with ``pytest benchmarks/ -s``; tables print to
stdout and persist under ``benchmarks/results/``.  ``REPRO_FULL_SCALE=1``
enables the paper's 256/1024-qubit rows.
"""
