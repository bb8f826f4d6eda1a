"""Table 1 — comparison with 2QAN and QAIM (depth and CX count).

Paper: heavy-hex and Sycamore, random graphs, densities 0.3/0.5, sizes
64-256 (2QAN missing beyond 128 because its quadratic mapping search takes
over a day).  Expected shape: ours ahead of QAIM everywhere and ahead of
or close to 2QAN, with 2QAN's compile time growing much faster.
"""

from benchmarks._common import benchmark_sizes, cells, sweep, table

COMPILERS = ("ours", "2qan", "qaim")
ARCHES = ("heavyhex", "sycamore")


def _compute():
    workloads = [("rand", n, density)
                 for density in (0.3, 0.5) for n in benchmark_sizes()]
    result = sweep(ARCHES, workloads, COMPILERS)
    rows = []
    ordering_ok = True
    for arch in ARCHES:
        for workload in workloads:
            point = cells(result, arch, workload)
            ours, twoqan, qaim = (point[c] for c in COMPILERS)
            _, n, density = workload
            rows.append([
                f"{arch} {n}-{density:g}",
                ours.depth, twoqan.depth, qaim.depth,
                ours.cx, twoqan.cx, qaim.cx,
                ours.time_s, twoqan.time_s,
            ])
            ordering_ok &= ours.depth <= qaim.depth * 1.05 + 1
    table("table1_2qan_qaim",
          "Table 1: Ours vs 2QAN vs QAIM",
          ["instance", "ours D", "2qan D", "qaim D",
           "ours CX", "2qan CX", "qaim CX", "ours s", "2qan s"],
          rows)
    assert ordering_ok, "ours lost to QAIM on depth somewhere"


def test_table1_2qan_qaim():
    _compute()
