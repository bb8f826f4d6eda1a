"""Figure 17 — pure greedy vs solver-guided (ATA) vs our hybrid.

Paper: normalized depth and gate count on heavy-hex and Sycamore, random
graphs at densities 0.1 and 0.3, sizes 64/256/1024.  Expected shape:
greedy wins on small sparse inputs, the structured solution wins on large
dense ones, and the hybrid ("ours") matches or beats the better of the
two everywhere.
"""

from benchmarks._common import benchmark_sizes, cells, sweep, table

METHODS = ("greedy", "solver", "ours")
DENSITIES = (0.1, 0.3)
ARCHES = ("heavyhex", "sycamore")


def _compute():
    workloads = [("rand", n, density)
                 for density in DENSITIES for n in benchmark_sizes()]
    result = sweep(ARCHES, workloads, METHODS)
    rows_depth, rows_cx = [], []
    hybrid_ok = True
    for arch in ARCHES:
        for workload in workloads:
            point = cells(result, arch, workload)
            greedy = point["greedy"]
            _, n, density = workload
            label = f"{arch} {n}-{density:g}"
            rows_depth.append(
                [label] + [point[m].depth / greedy.depth for m in METHODS])
            rows_cx.append(
                [label] + [point[m].cx / greedy.cx for m in METHODS])
            best = min(point[m].depth for m in ("greedy", "solver"))
            # Section 5.4: ours is at least the better of the two
            # (selector mixes depth and gates, allow 10% slack).
            hybrid_ok &= point["ours"].depth <= 1.1 * best + 1
    table("fig17_depth", "Fig 17 (a/c): depth normalized to greedy",
          ["instance", *METHODS], rows_depth)
    table("fig17_gates", "Fig 17 (b/d): gate count normalized to greedy",
          ["instance", *METHODS], rows_cx)
    assert hybrid_ok, "hybrid lost to both components somewhere"


def test_fig17_greedy_vs_solver_vs_ours():
    _compute()
