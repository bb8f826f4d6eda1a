"""Table 1 — comparison with 2QAN and QAIM (depth and CX count).

Paper: heavy-hex and Sycamore, random graphs, densities 0.3/0.5, sizes
64-256 (2QAN missing beyond 128 because its quadratic mapping search takes
over a day).  Expected shape: ours ahead of QAIM everywhere and ahead of
or close to 2QAN, with 2QAN's compile time growing much faster.
"""

from benchmarks._common import averaged_point, benchmark_sizes, table

COMPILERS = ("ours", "2qan", "qaim")


def _compute():
    rows = []
    ordering_ok = True
    for arch in ("heavyhex", "sycamore"):
        for density in (0.3, 0.5):
            for n in benchmark_sizes():
                point = averaged_point(arch, "rand", n, density, COMPILERS)
                rows.append([
                    f"{arch} {n}-{density:g}",
                    point["ours"]["depth"], point["2qan"]["depth"],
                    point["qaim"]["depth"],
                    point["ours"]["cx"], point["2qan"]["cx"],
                    point["qaim"]["cx"],
                    point["ours"]["time_s"], point["2qan"]["time_s"],
                ])
                ordering_ok &= (point["ours"]["depth"]
                                <= point["qaim"]["depth"] * 1.05 + 1)
    table("table1_2qan_qaim",
          "Table 1: Ours vs 2QAN vs QAIM",
          ["instance", "ours D", "2qan D", "qaim D",
           "ours CX", "2qan CX", "qaim CX", "ours s", "2qan s"],
          rows)
    assert ordering_ok, "ours lost to QAIM on depth somewhere"


def test_table1_2qan_qaim():
    _compute()
