"""Figures 22 & 23 — depth and gate count on Google Sycamore.

Same sweep as Figs 20/21 on the better-connected Sycamore lattice; the
baselines fare relatively better here (more routing freedom), but ours
still leads, especially at larger sizes.
"""

from benchmarks._common import averaged_point, benchmark_sizes, table

COMPILERS = ("ours", "qaim", "paulihedral")


def _compute():
    rows_depth, rows_cx = [], []
    ordering_ok = True
    for kind in ("rand", "reg"):
        for density in (0.3, 0.5):
            for n in benchmark_sizes():
                point = averaged_point("sycamore", kind, n, density,
                                       COMPILERS)
                label = f"{kind}-{n}-{density:g}"
                rows_depth.append(
                    [label] + [point[c]["depth"] for c in COMPILERS])
                rows_cx.append(
                    [label] + [point[c]["cx"] for c in COMPILERS])
                ordering_ok &= (point["ours"]["depth"]
                                <= point["paulihedral"]["depth"])
                ordering_ok &= (point["ours"]["cx"]
                                <= point["paulihedral"]["cx"])
    table("fig22_depth_sycamore", "Fig 22: depth on Google Sycamore",
          ["instance", *COMPILERS], rows_depth)
    table("fig23_gates_sycamore", "Fig 23: CX count on Google Sycamore",
          ["instance", *COMPILERS], rows_cx)
    assert ordering_ok, "ours lost to Paulihedral somewhere"


def test_fig22_23_sycamore():
    _compute()
