"""JSON (de)serialisation for circuits, problems and compiled results.

Compiled circuits are expensive to produce at scale; persisting them lets
benchmark sweeps resume and lets results be inspected out-of-process.
The format is a versioned plain-JSON document.
"""

from __future__ import annotations

import json
import numbers
from typing import TYPE_CHECKING, Dict

from .circuit import Circuit
from .gates import OP_KINDS, Op
from .mapping import Mapping
from .program import Program, ProgramLayer
from .tracker import scan_circuit

if TYPE_CHECKING:  # heavier layers; imported lazily at runtime
    from ..compiler.result import CompiledResult
    from ..problems.graphs import ProblemGraph

FORMAT_VERSION = 1


def circuit_to_dict(circuit: Circuit) -> Dict:
    """Serialise a circuit to a plain-JSON document."""
    return {
        "version": FORMAT_VERSION,
        "n_qubits": circuit.n_qubits,
        "ops": [
            {
                "kind": op.kind,
                "qubits": list(op.qubits),
                **({"param": op.param} if op.param is not None else {}),
                **({"tag": list(op.tag)} if op.tag is not None else {}),
            }
            for op in circuit
        ],
    }


def circuit_from_dict(data: Dict, check: bool = True) -> Circuit:
    """Inverse of :func:`circuit_to_dict`; validates kinds and version.

    ``check=False`` skips the per-op qubit-range/duplication checks so a
    corrupt document still loads — the lint subsystem (:mod:`repro.lint`)
    uses this to report such ops as diagnostics rather than failing at
    parse time.  Unknown op kinds, version mismatches, qubit indices that
    are not integers and tags that are not two integers always raise
    ``ValueError`` (naming the op index for the last two).
    """
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported circuit format {data.get('version')}")
    ops = []
    for index, entry in enumerate(data["ops"]):
        kind = entry["kind"]
        if kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {kind!r}")
        qubits = entry["qubits"]
        if not _int_list(qubits):
            raise ValueError(f"op#{index}: qubit indices {qubits!r} are "
                             "not all integers")
        tag = entry.get("tag")
        if tag is not None and not (_int_list(tag) and len(tag) == 2):
            raise ValueError(f"op#{index}: tag {tag!r} is not a pair of "
                             "integer logical qubits")
        ops.append(Op(kind, tuple(qubits), entry.get("param"),
                      tuple(tag) if tag is not None else None))
    if check:
        return Circuit(data["n_qubits"], ops)
    return Circuit.from_ops_unchecked(data["n_qubits"], ops)


def _int_list(value: object) -> bool:
    """Whether ``value`` is a list of integers (``bool`` excluded)."""
    return isinstance(value, (list, tuple)) and all(
        isinstance(item, numbers.Integral) and not isinstance(item, bool)
        for item in value)


def mapping_to_dict(mapping: Mapping) -> Dict:
    """Serialise a logical-to-physical mapping."""
    return {
        "version": FORMAT_VERSION,
        "log_to_phys": list(mapping.log_to_phys),
        "n_physical": mapping.n_physical,
    }


def mapping_from_dict(data: Dict) -> Mapping:
    """Inverse of :func:`mapping_to_dict`."""
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported mapping format {data.get('version')}")
    return Mapping(data["log_to_phys"], data["n_physical"])


def program_to_dict(program: Program) -> Dict:
    """Serialise a layered program (see :mod:`repro.ir.program`)."""
    return {
        "version": FORMAT_VERSION,
        "name": program.name,
        "n_qubits": program.n_qubits,
        "initial_mapping": mapping_to_dict(program.initial_mapping),
        "layers": [
            {
                "role": layer.role,
                **({"param": layer.param}
                   if layer.param is not None else {}),
                "input_log_to_phys": list(layer.input_log_to_phys),
                "output_log_to_phys": list(layer.output_log_to_phys),
                "circuit": circuit_to_dict(layer.circuit),
            }
            for layer in program.layers
        ],
    }


def program_from_dict(data: Dict, check: bool = True) -> Program:
    """Inverse of :func:`program_to_dict`.

    ``check=False`` loads layer circuits through the tolerant
    deserializer and skips the constructor's mapping-continuity
    validation (the lint path for possibly-corrupt documents, which
    RL030/RL031 then diagnose instead of a load failure).
    """
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported program format {data.get('version')}")
    layers = [
        ProgramLayer(
            role=entry["role"],
            circuit=circuit_from_dict(entry["circuit"], check=check),
            param=entry.get("param"),
            input_log_to_phys=tuple(entry["input_log_to_phys"]),
            output_log_to_phys=tuple(entry["output_log_to_phys"]),
        )
        for entry in data["layers"]
    ]
    build = Program if check else Program.from_layers_unchecked
    return build(data["n_qubits"], layers,
                 mapping_from_dict(data["initial_mapping"]),
                 name=data.get("name", ""))


def save_program(program: Program, path: str) -> None:
    """Write a layered program to a JSON file."""
    with open(path, "w") as handle:
        json.dump(program_to_dict(program), handle)


def load_program(path: str) -> Program:
    """Read a layered program from a JSON file."""
    with open(path) as handle:
        return program_from_dict(json.load(handle))


def compiled_result_to_dict(result: "CompiledResult") -> Dict:
    """Serialise a :class:`repro.compiler.CompiledResult`.

    The ``metrics`` block records the headline numbers at serialisation
    time; loaders never need it (everything recomputes from the circuit)
    but out-of-process consumers read it without decompressing the op
    list, and ``repro lint`` cross-checks it against recomputation
    (rule RL021).  Depth, CX and SWAP count come from one
    :func:`~repro.ir.tracker.scan_circuit` pass.
    """
    metrics = scan_circuit(result.circuit)
    document = {
        "version": FORMAT_VERSION,
        "method": result.method,
        "wall_time_s": result.wall_time_s,
        "metrics": {
            "depth": metrics.depth,
            "cx": metrics.cx,
            "swaps": metrics.n_swap,
            "ops": len(result.circuit),
        },
        "circuit": circuit_to_dict(result.circuit),
        "initial_mapping": mapping_to_dict(result.initial_mapping),
        "extra": {k: v for k, v in result.extra.items()
                  if isinstance(v, (str, int, float, bool))},
    }
    if result.program is not None:
        document["program"] = program_to_dict(result.program)
    return document


def compiled_result_from_dict(data: Dict) -> "CompiledResult":
    """Inverse of :func:`compiled_result_to_dict`."""
    from ..compiler.result import CompiledResult

    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported result format {data.get('version')}")
    result = CompiledResult(
        circuit=circuit_from_dict(data["circuit"]),
        initial_mapping=mapping_from_dict(data["initial_mapping"]),
        method=data["method"],
        wall_time_s=data.get("wall_time_s", 0.0),
    )
    if data.get("program") is not None:
        result.program = program_from_dict(data["program"])
    result.extra.update(data.get("extra", {}))
    return result


def save_result(result: "CompiledResult", path: str) -> None:
    """Write a compiled result to a JSON file."""
    with open(path, "w") as handle:
        json.dump(compiled_result_to_dict(result), handle)


def load_result(path: str) -> "CompiledResult":
    """Read a compiled result from a JSON file."""
    with open(path) as handle:
        return compiled_result_from_dict(json.load(handle))


def problem_to_dict(problem: "ProblemGraph") -> Dict:
    """Serialise a problem graph (edge weights included when present)."""
    document = {
        "version": FORMAT_VERSION,
        "name": problem.name,
        "n_vertices": problem.n_vertices,
        "edges": sorted(list(e) for e in problem.edges),
    }
    if problem.is_weighted:
        document["weights"] = [
            [u, v, problem.weight(u, v)]
            for u, v in sorted(problem.edges)]
    return document


def problem_from_dict(data: Dict) -> "ProblemGraph":
    """Inverse of :func:`problem_to_dict`."""
    from ..problems.graphs import ProblemGraph

    if data.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported problem format {data.get('version')}")
    weights = None
    if data.get("weights") is not None:
        weights = {(u, v): w for u, v, w in data["weights"]}
    return ProblemGraph(data["n_vertices"],
                        [tuple(e) for e in data["edges"]],
                        name=data.get("name", ""),
                        weights=weights)
