#!/usr/bin/env python
"""Regenerate the golden byte-identity fixtures.

``golden64.json`` pins the 64-qubit compiles, ``golden_program16.json``
a p=3 program and ``golden_noisy.json`` the noise-aware hybrid compiles.
``golden64.json`` also pins, under ``wide_entries``, the greedy engine on
dense problems, where each logical qubit has tens of pending partners.

Every registered compiler method is run on fixed 64-logical-qubit
instances (an 8x8 grid and the smallest heavy-hex holding 64 qubits,
each with a denser single-component problem and a sparser
multi-component one) and the sha256 of the canonically serialised
circuit is pinned, together with depth / CX / swap counts for
debuggability.  The equivalence suite
(``tests/pipeline/test_golden_fixtures.py``) recompiles each entry and
asserts the hash — i.e. the *byte-identical* circuit — is unchanged.

The fixtures exist so performance rewrites of the hot path (numpy
bitsets, vectorized pattern execution, incremental range detection) can
prove they are pure restructures.  Regenerate **only** when an
intentional behaviour change lands, and say so in the commit message::

    PYTHONPATH=src python tests/pipeline/fixtures/generate.py

``optimal`` is excluded (exact solver; 64q is far beyond its reach).
``olsq`` runs with a reduced search budget so the suite stays fast; the
knobs are part of the fixture and applied identically at test time.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIXTURE_DIR = Path(__file__).resolve().parent
REPO_ROOT = FIXTURE_DIR.parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.arch import NoiseModel, grid, line, sycamore_for  # noqa: E402
from repro.arch.heavyhex import heavyhex_for  # noqa: E402
from repro.compiler import compile_qaoa  # noqa: E402
from repro.ir.serialize import circuit_to_dict, program_to_dict  # noqa: E402
from repro.problems import random_problem_graph  # noqa: E402
from repro.problems.graphs import clique  # noqa: E402

GAMMA = 0.4

#: The p-layer program fixture (``golden_program16.json``): a 4x4-grid
#: 16-qubit instance assembled into a p=3 program per paper method.  The
#: *entire* serialized program is pinned — gate for gate, mapping for
#: mapping — not just a digest, so a drift diff is readable.
PROGRAM_ARCH = ("grid-4x4", lambda: grid(4, 4))
PROGRAM_PROBLEM = ("rand-16-0.3-s7", 16, 0.3, 7)
PROGRAM_LAYERS = 3
PROGRAM_METHODS = ("hybrid", "greedy", "ata")

#: (label, factory) — instantiated fresh for every compilation.
ARCHITECTURES = (
    ("grid-8x8", lambda: grid(8, 8)),
    ("heavyhex-64", lambda: heavyhex_for(64)),
)

#: (label, n, density, seed).  0.08/seed 7 is a single dense component;
#: 0.03/seed 13 splits into several components, exercising range
#: detection and region merging in the ATA suffix.
PROBLEMS = (
    ("rand-64-0.08-s7", 64, 0.08, 7),
    ("rand-64-0.03-s13", 64, 0.03, 13),
)

#: method -> extra compile options (fixture contract, applied at test time).
METHOD_OPTIONS = {
    "olsq": {"exact_node_budget": 2_000, "beam_width": 24,
             "children_per_state": 16},
}

#: Methods never run at 64 qubits.
EXCLUDED_METHODS = ("optimal",)

#: Wide partner sets (``wide_entries`` of ``golden64.json``): density 0.5
#: gives each logical qubit about 30 pending partners, the clique 63, so
#: these pin the SWAP scoring on partner lists far wider than the sparse
#: ``PROBLEMS`` reach.  (label, factory) pairs, instantiated per compile.
WIDE_ARCHITECTURES = (
    ("heavyhex-64", lambda: heavyhex_for(64)),
    ("sycamore-64", lambda: sycamore_for(64)),
)
WIDE_PROBLEMS = (
    ("rand-64-0.5-s7", lambda: random_problem_graph(64, 0.5, seed=7)),
    ("clique-64", lambda: clique(64)),
)
WIDE_METHODS = ("greedy", "hybrid")

#: Noise-aware hybrid compiles (``golden_noisy.json``): with a
#: ``NoiseModel`` the selector's cost F scores every candidate's ESP.
#: Each entry is (arch label, problem label, noise seed); both golden
#: architectures run both ``PROBLEMS``, and a 32-qubit line instance
#: whose winner is a spliced ``hybrid@<cycle>`` candidate pins a
#: greedy prefix plus ATA suffix chosen under noise.
NOISY_ARCHITECTURES = ARCHITECTURES + (("line-32", lambda: line(32)),)
NOISY_PROBLEMS = PROBLEMS + (("rand-32-0.1-s2", 32, 0.1, 2),)
NOISY_CASES = tuple(
    (arch_label, prob_label, 3)
    for arch_label, _ in ARCHITECTURES
    for prob_label, _, _, _ in PROBLEMS
) + (("line-32", "rand-32-0.1-s2", 2),)


def circuit_digest(circuit) -> str:
    import hashlib

    payload = json.dumps(circuit_to_dict(circuit), sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def pin(coupling, problem, method: str, **options) -> dict:
    """The fixture fields of one compile: digest, depth, CX and SWAPs."""
    result = compile_qaoa(coupling, problem, method=method, gamma=GAMMA,
                          **options)
    result.validate(coupling, problem)
    return {
        "sha256": circuit_digest(result.circuit),
        "depth": result.depth(),
        "cx": result.circuit.cx_count(unify=True),
        "swaps": result.circuit.swap_count,
    }


def wide_entries() -> list:
    """``WIDE_METHODS`` on every wide (architecture, problem) pair."""
    entries = []
    for arch_label, arch_factory in WIDE_ARCHITECTURES:
        for prob_label, prob_factory in WIDE_PROBLEMS:
            for method in WIDE_METHODS:
                entry = {"arch": arch_label, "problem": prob_label,
                         "method": method,
                         **pin(arch_factory(), prob_factory(), method)}
                entries.append(entry)
                print(f"{arch_label:12s} {prob_label:18s} {method:12s} "
                      f"depth={entry['depth']:4d} cx={entry['cx']:5d} "
                      f"{entry['sha256'][:12]}", flush=True)
    return entries


def main() -> int:
    from repro.pipeline.registry import available_methods

    methods = [m for m in available_methods() if m not in EXCLUDED_METHODS]
    entries = []
    for arch_label, arch_factory in ARCHITECTURES:
        for prob_label, n, density, seed in PROBLEMS:
            coupling = arch_factory()
            problem = random_problem_graph(n, density, seed=seed)
            for method in methods:
                options = METHOD_OPTIONS.get(method, {})
                entry = {"arch": arch_label, "problem": prob_label,
                         "method": method,
                         **pin(coupling, problem, method, **options)}
                entries.append(entry)
                print(f"{arch_label:12s} {prob_label:18s} {method:12s} "
                      f"depth={entry['depth']:4d} cx={entry['cx']:5d} "
                      f"{entry['sha256'][:12]}", flush=True)

    document = {
        "generated_by": "tests/pipeline/fixtures/generate.py",
        "gamma": GAMMA,
        "method_options": METHOD_OPTIONS,
        "entries": entries,
        "wide_entries": wide_entries(),
    }
    out = FIXTURE_DIR / "golden64.json"
    out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} + {len(document['wide_entries'])} "
          f"entries to {out}")
    write_program_fixture()
    write_noisy_fixture()
    return 0


def compile_noisy(arch_label: str, prob_label: str, noise_seed: int):
    """One ``NOISY_CASES`` entry's hybrid compile, as pinned."""
    coupling = dict(NOISY_ARCHITECTURES)[arch_label]()
    _, n, density, seed = next(spec for spec in NOISY_PROBLEMS
                               if spec[0] == prob_label)
    problem = random_problem_graph(n, density, seed=seed)
    noise = NoiseModel(coupling, seed=noise_seed)
    result = compile_qaoa(coupling, problem, method="hybrid", noise=noise,
                          gamma=GAMMA)
    result.validate(coupling, problem)
    return result, noise


def write_noisy_fixture() -> None:
    """Pin the noise-aware hybrid compiles byte for byte."""
    entries = []
    for arch_label, prob_label, noise_seed in NOISY_CASES:
        result, noise = compile_noisy(arch_label, prob_label, noise_seed)
        entry = {
            "arch": arch_label,
            "problem": prob_label,
            "noise_seed": noise_seed,
            "selected": result.extra["selected"],
            "sha256": circuit_digest(result.circuit),
            "depth": result.depth(),
            "cx": result.circuit.cx_count(unify=True),
            "swaps": result.circuit.swap_count,
            "esp": result.esp(noise),
        }
        entries.append(entry)
        print(f"{arch_label:12s} {prob_label:18s} noise={noise_seed} "
              f"{entry['selected']:12s} depth={entry['depth']:4d} "
              f"cx={entry['cx']:5d} {entry['sha256'][:12]}", flush=True)
    document = {
        "generated_by": "tests/pipeline/fixtures/generate.py",
        "gamma": GAMMA,
        "method": "hybrid",
        "entries": entries,
    }
    out = FIXTURE_DIR / "golden_noisy.json"
    out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} noisy entries to {out}")


def write_program_fixture() -> None:
    """Pin the p=3 grid-16 program gate-for-gate per paper method."""
    arch_label, arch_factory = PROGRAM_ARCH
    prob_label, n, density, seed = PROGRAM_PROBLEM
    entries = []
    for method in PROGRAM_METHODS:
        coupling = arch_factory()
        problem = random_problem_graph(n, density, seed=seed)
        result = compile_qaoa(coupling, problem, method=method,
                              gamma=GAMMA, layers=PROGRAM_LAYERS)
        result.validate(coupling, problem)
        program = result.program
        entries.append({
            "method": method,
            "cost_sha256": circuit_digest(result.circuit),
            "program": program_to_dict(program),
        })
        print(f"{arch_label:12s} {prob_label:18s} {method:12s} "
              f"p={program.p} layers={len(program.layers)} "
              f"ops={program.n_ops()}", flush=True)
    document = {
        "generated_by": "tests/pipeline/fixtures/generate.py",
        "arch": arch_label,
        "problem": prob_label,
        "gamma": GAMMA,
        "layers": PROGRAM_LAYERS,
        "entries": entries,
    }
    out = FIXTURE_DIR / "golden_program16.json"
    out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} program entries to {out}")


if __name__ == "__main__":
    sys.exit(main())
