"""Large-scale regression checks (opt-in: REPRO_SLOW=1).

These pin the paper-scale behaviour that the default suite cannot afford:
the 1024-qubit heavy-hex ATA schedule whose depth (2 792) lands within 4%
of the paper's own Table-2 "Ours" value (2 910), the 512-qubit
heavy-hex hybrid compile — its exact circuit, candidate pool and peak
memory (its placement, greedy and candidate pass times are printed, not
asserted) — and the 512-qubit heavy-hex Paulihedral compile, about a
million ops through the shortest-path router (its wall time is printed,
not asserted).
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

slow = pytest.mark.skipif(os.environ.get("REPRO_SLOW", "") in ("", "0"),
                          reason="set REPRO_SLOW=1 to run paper-scale checks")


@slow
def test_heavyhex_1024_ata_depth_matches_paper_band():
    from repro.arch import heavyhex_for
    from repro.compiler import compile_qaoa
    from repro.problems import random_problem_graph

    problem = random_problem_graph(1024, 0.3, seed=0)
    coupling = heavyhex_for(1024)
    result = compile_qaoa(coupling, problem, method="ata")
    result.validate(coupling, problem)
    # Paper Table 2, heavy-hex 1024-0.3, "Ours": depth 2910.
    assert 2300 <= result.depth() <= 3500


@slow
def test_grid_1024_merged_schedule_linear():
    from repro.arch import square_grid_for
    from repro.ata import ata_suffix, get_pattern
    from repro.ir.mapping import Mapping
    from repro.problems import random_problem_graph

    coupling = square_grid_for(1024)
    problem = random_problem_graph(1024, 0.3, seed=0)
    mapping = Mapping.trivial(1024, coupling.n_qubits)
    circuit, _ = ata_suffix(coupling, get_pattern(coupling), mapping,
                            problem.edges, use_range_detection=False)
    # ~1.5n cycles for the merged schedule.
    assert circuit.depth() <= 2.0 * coupling.n_qubits


#: Run in a fresh interpreter so ``ru_maxrss`` is this compile's peak
#: alone, not the pytest process's high-water mark.
_HYBRID_512 = """
import hashlib, json, resource
from repro.arch import heavyhex_for
from repro.compiler import compile_qaoa
from repro.ir.serialize import circuit_to_dict
from repro.problems import random_problem_graph

problem = random_problem_graph(512, 0.3, seed=0)
result = compile_qaoa(heavyhex_for(512), problem, method="hybrid")
payload = json.dumps(circuit_to_dict(result.circuit), sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
wall_s = {p["name"]: p["wall_s"] for p in result.extra["passes"]}
print(json.dumps({
    "sha256": hashlib.sha256(payload).hexdigest(),
    "depth": result.circuit.depth(),
    "cx": result.circuit.cx_count(unify=True),
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "placement_wall_s": wall_s["placement"],
    "greedy_wall_s": wall_s["greedy"],
    "candidates_wall_s": wall_s["candidates"],
    "candidates": result.extra["candidates"],
    "selected": result.extra["selected"],
}))
"""


@slow
def test_heavyhex_512_hybrid_circuit_and_peak_rss():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _HYBRID_512], env=env,
                         check=True, capture_output=True, text=True)
    line = out.stdout.strip().splitlines()[-1]
    # The placement, greedy and candidate passes' wall times are
    # reported, not asserted: run with -s to see this line in the log.
    print(line)
    report = json.loads(line)
    assert (report["depth"], report["cx"]) == (1357, 348598)
    # The pool the shared candidate set-up scored: 24 sampled snapshots,
    # 22 pruned, the greedy circuit selected.
    assert report["candidates"] == {
        "count": 3, "pruned": 22, "snapshots_total": 1410,
        "snapshots_sampled": 24, "greedy_finished": True}
    assert report["selected"] == "greedy"
    assert report["sha256"] == (
        "cd3a05152c59ac1a5a79a3f959c3efe9a46a69b632551368d9c6fd10509fe6f8")
    # Greedy snapshots must not copy the whole compilation state: one
    # mapping and remaining-edge set per mapping change peaked at
    # ~850 MB here.
    assert report["rss_mb"] <= 300, report


@slow
def test_heavyhex_512_paulihedral_circuit():
    from repro.arch import heavyhex_for
    from repro.baselines import compile_paulihedral
    from repro.ir.serialize import circuit_to_dict
    from repro.problems import random_problem_graph

    problem = random_problem_graph(512, 0.3, seed=0)
    start = time.perf_counter()
    result = compile_paulihedral(heavyhex_for(512), problem)
    # Reported, not asserted: run with -s to see this line in the log.
    print(json.dumps({"paulihedral_wall_s": time.perf_counter() - start,
                      "ops": len(result.circuit)}))
    payload = json.dumps(circuit_to_dict(result.circuit), sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    assert (result.circuit.depth(),
            result.circuit.cx_count(unify=True)) == (189410, 2941771)
    assert hashlib.sha256(payload).hexdigest() == (
        "d69baa0e2fc1a35d4417c009ea0e1eecdd02bd8d3d94b9b533c2cc14adb876e4")
