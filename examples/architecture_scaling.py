"""Clique compilation across architectures: the linear-depth guarantee.

Compiles full cliques (the paper's Definition 1 special case) of growing
size on each regular architecture and reports depth per qubit — flat
curves demonstrate the worst-case linear bound of Section 3.

Run:  python examples/architecture_scaling.py
"""

from repro.analysis import format_table
from repro.arch import grid, heavyhex, hexagon, line, sycamore
from repro.ata import ata_suffix, get_pattern
from repro.ir.mapping import Mapping
from repro.ir.validate import validate_compiled
from repro.problems import clique


INSTANCES = {
    "line": [line(8), line(16), line(24)],
    "grid": [grid(3, 3), grid(4, 4), grid(5, 5)],
    "sycamore": [sycamore(3, 3), sycamore(4, 4), sycamore(5, 5)],
    "hexagon": [hexagon(4, 2), hexagon(4, 4), hexagon(6, 4)],
    "heavyhex": [heavyhex(2, 6), heavyhex(3, 6), heavyhex(3, 10)],
}


def main() -> None:
    rows = []
    for family, instances in INSTANCES.items():
        for coupling in instances:
            n = coupling.n_qubits
            problem = clique(n)
            mapping = Mapping.trivial(n)
            circuit, _ = ata_suffix(coupling, get_pattern(coupling), mapping,
                                    problem.edges, use_range_detection=False)
            validate_compiled(circuit, coupling.edges, mapping,
                              problem.edges)
            rows.append([family, coupling.name, n, circuit.depth(),
                         circuit.depth() / n,
                         circuit.cx_count(unify=True)])
    print(format_table(
        ["family", "device", "qubits", "depth", "depth/qubit", "CX"],
        rows,
        title="All-to-all (clique) compilation: depth stays linear"))


if __name__ == "__main__":
    main()
