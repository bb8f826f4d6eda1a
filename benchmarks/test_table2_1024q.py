"""Table 2 — 1024-qubit graphs vs Paulihedral.

Paper: heavy-hex and Sycamore, 1024-qubit random (d 0.3/0.5) and regular
(deg 320/480) graphs; only Paulihedral scales that far among the
baselines.  Expected shape: ours ~3x lower depth and ~2.5x fewer CX.

Default scale runs the same sweep at 256 qubits (pure Python); set
``REPRO_FULL_SCALE=1`` for the true 1024-qubit rows.
"""

from benchmarks._common import full_scale, problem_for, run_point, table
from repro.problems import regular_problem_graph


def _compute():
    n = 1024 if full_scale() else 256
    workloads = [
        ("rand", f"{n}-0.3", problem_for("rand", n, 0.3, seed=0)),
        ("rand", f"{n}-0.5", problem_for("rand", n, 0.5, seed=0)),
        ("reg", f"{n}-{int(0.3 * n)}",
         regular_problem_graph(n, int(0.3 * n), seed=0)),
        ("reg", f"{n}-{int(0.46 * n)}",
         regular_problem_graph(n, int(0.46 * n), seed=0)),
    ]
    rows = []
    ok = True
    for arch in ("heavyhex", "sycamore"):
        for _, label, problem in workloads:
            point = run_point(arch, problem, ("ours", "paulihedral"))
            ours, pauli = point["ours"], point["paulihedral"]
            rows.append([f"{arch} {label}",
                         ours["depth"], pauli["depth"],
                         ours["cx"], pauli["cx"]])
            ok &= ours["depth"] < pauli["depth"]
            ok &= ours["cx"] < pauli["cx"]
    table("table2_large_scale",
          f"Table 2: {n}-qubit graphs, ours vs Paulihedral",
          ["instance", "ours D", "pauli D", "ours CX", "pauli CX"], rows)
    assert ok, "ours must dominate Paulihedral at scale"


def test_table2_large_graphs():
    _compute()
