"""Ablations over the design choices DESIGN.md calls out.

1. Structured grid composition vs snake-line fallback (Appendix A claims
   the structured schedule is a constant factor better).
2. CPHASE+SWAP gate unification on/off (the 3-CX fusion).
3. Hybrid selector on/off (pure greedy / pure ATA vs selected).
4. Noise-aware swap weighting on/off (ESP impact of Factor III).
"""

from benchmarks._common import table
from repro.arch import NoiseModel, grid, heavyhex_for
from repro.ata import ata_suffix, get_pattern, snake_pattern
from repro.compiler import compile_qaoa
from repro.ir.decompose import count_cx
from repro.ir.mapping import Mapping
from repro.problems import clique, random_problem_graph


def _ablation_structured_vs_snake():
    # Three grid schedules for the same clique: the Appendix-A *merged*
    # composition (~1.5n, the default), the unmerged Section-3.1
    # composition (~2n + O(sqrt n)) and the snake line (exactly 2n).
    # The merged schedule must beat the snake on depth — the paper's 25%
    # claim; the unmerged one loses to the snake by a small constant
    # (an honest negative result we keep visible).
    from repro.ata.grid_pattern import GridCliquePattern
    coupling = grid(6, 6)
    problem = clique(36)
    mapping = Mapping.trivial(36)
    merged, _ = ata_suffix(coupling, get_pattern(coupling), mapping,
                           problem.edges, use_range_detection=False)
    unmerged, _ = ata_suffix(coupling,
                             GridCliquePattern(coupling.metadata["units"]),
                             mapping, problem.edges, use_range_detection=False)
    snake, _ = ata_suffix(coupling, snake_pattern(coupling), mapping,
                          problem.edges, use_range_detection=False)
    assert merged.depth() < snake.depth() < unmerged.depth()
    return [["grid-6x6 clique merged (App A)", merged.depth(),
             count_cx(merged)],
            ["grid-6x6 clique unmerged", unmerged.depth(),
             count_cx(unmerged)],
            ["grid-6x6 clique snake-line", snake.depth(), count_cx(snake)]]


def _ablation_unification():
    coupling = grid(6, 6)
    problem = clique(36)
    mapping = Mapping.trivial(36)
    circuit, _ = ata_suffix(coupling, get_pattern(coupling), mapping,
                            problem.edges, use_range_detection=False)
    fused = count_cx(circuit, unify=True)
    unfused = count_cx(circuit, unify=False)
    assert fused < unfused
    return [["ATA clique, unified", circuit.depth(), fused],
            ["ATA clique, no unification", circuit.depth(), unfused]]


def _ablation_selector():
    coupling = heavyhex_for(64)
    problem = random_problem_graph(64, 0.3, seed=5)
    rows = []
    depths = {}
    for method in ("greedy", "ata", "hybrid"):
        result = compile_qaoa(coupling, problem, method=method)
        depths[method] = result.depth()
        rows.append([f"heavyhex 64-0.3 {method}", result.depth(),
                     result.gate_count])
    assert depths["hybrid"] <= min(depths["greedy"], depths["ata"]) * 1.1 + 1
    return rows


def _ablation_noise_awareness():
    coupling = heavyhex_for(32)
    noise = NoiseModel(coupling, seed=2)
    problem = random_problem_graph(32, 0.3, seed=5)
    aware = compile_qaoa(coupling, problem, method="greedy", noise=noise)
    blind = compile_qaoa(coupling, problem, method="greedy")
    return [["greedy noise-aware", aware.depth(), aware.gate_count,
             noise.esp(aware.circuit)],
            ["greedy noise-blind", blind.depth(), blind.gate_count,
             noise.esp(blind.circuit)]]


def _compute():
    rows = []
    rows += [r + [""] for r in _ablation_structured_vs_snake()]
    rows += [r + [""] for r in _ablation_unification()]
    rows += [r + [""] for r in _ablation_selector()]
    rows += _ablation_noise_awareness()
    table("ablations", "Design-choice ablations",
          ["configuration", "depth", "CX", "ESP"], rows)


def test_ablations():
    _compute()
