"""Extensions beyond the paper's evaluation.

1. The Fig 13 generalisation made concrete: clique compilation on a 3D
   cubic lattice via plane-level unit transposition (linear depth).
2. Depth-2 QAOA on the noisy device substitute: the compiled cost block
   is reused per layer; deeper circuits trade expressivity against noise.

Run:  python examples/beyond_the_paper.py
"""

from repro.analysis import format_table
from repro.arch import NoiseModel, cube, mumbai
from repro.ata import ata_suffix, get_pattern
from repro.compiler import compile_qaoa
from repro.ir.mapping import Mapping
from repro.ir.validate import validate_compiled
from repro.problems import QaoaProblem, clique, random_problem_graph
from repro.sim import QaoaRunner


def three_dimensional_lattice() -> None:
    print("1. Clique compilation on 3D cubic lattices (Fig 13):\n")
    rows = []
    for dims in [(2, 2, 2), (3, 3, 2), (3, 3, 3), (4, 3, 3)]:
        coupling = cube(*dims)
        n = coupling.n_qubits
        mapping = Mapping.trivial(n)
        circuit, _ = ata_suffix(coupling, get_pattern(coupling), mapping,
                                clique(n).edges, use_range_detection=False)
        validate_compiled(circuit, coupling.edges, mapping, clique(n).edges)
        rows.append([coupling.name, n, circuit.depth(),
                     circuit.depth() / n, circuit.cx_count()])
    print(format_table(["lattice", "qubits", "depth", "depth/qubit", "CX"],
                       rows))


def deeper_qaoa() -> None:
    print("\n2. Depth-1 vs depth-2 QAOA on the noisy Mumbai substitute:\n")
    problem = QaoaProblem(random_problem_graph(10, 0.3, seed=7))
    coupling = mumbai()
    noise = NoiseModel(coupling, seed=3)
    compiled = compile_qaoa(coupling, problem.graph, method="hybrid",
                            noise=noise)
    compiled.validate(coupling, problem.graph)
    rows = []
    for p in (1, 2):
        runner = QaoaRunner(problem, compiled, noise=noise, shots=8000,
                            seed=11, p=p)
        result = runner.optimize(max_rounds=25)
        rows.append([p, runner.esp, result.best_energy,
                     -problem.max_cut_brute_force()])
    print(format_table(["p", "ESP", "best energy", "ideal optimum"], rows))
    print("\nDeeper QAOA improves the noise-free ansatz but squares the")
    print("ESP — on noisy hardware the optimum p is finite, which is why")
    print("cutting CX count (the paper's contribution) buys ansatz depth.")


if __name__ == "__main__":
    three_dimensional_lattice()
    deeper_qaoa()
