"""Figures 20 & 21 — depth and gate count on IBM heavy-hex.

Paper: ours vs QAIM vs Paulihedral on random and regular graphs at
densities 0.3 and 0.5, 64-256 qubits.  Expected shape: ours lowest in
both metrics, with the margin growing with qubit count; Paulihedral worst.
"""

from benchmarks._common import averaged_point, benchmark_sizes, table

COMPILERS = ("ours", "qaim", "paulihedral")


def _compute():
    rows_depth, rows_cx = [], []
    ordering_ok = True
    for kind in ("rand", "reg"):
        for density in (0.3, 0.5):
            for n in benchmark_sizes():
                point = averaged_point("heavyhex", kind, n, density,
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
    table("fig20_depth_heavyhex", "Fig 20: depth on IBM heavy-hex",
          ["instance", *COMPILERS], rows_depth)
    table("fig21_gates_heavyhex", "Fig 21: CX count on IBM heavy-hex",
          ["instance", *COMPILERS], rows_cx)
    assert ordering_ok, "ours lost to Paulihedral somewhere"


def test_fig20_21_heavyhex():
    _compute()
