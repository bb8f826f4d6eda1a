"""Command-line interface.

Usage::

    python -m repro compile --arch heavyhex --qubits 32 --density 0.3
    python -m repro compile --arch grid --qubits 16 --method ata --qasm out.qasm
    python -m repro compare --arch sycamore --qubits 32 --density 0.3
    python -m repro batch --arch grid,heavyhex --qubits 24 --count 8 --workers 4
    python -m repro batch --arch grid --qubits 24 --store .repro-store
    python -m repro serve --store .repro-store --workers 4
    python -m repro serve --stdio --store .repro-store
    python -m repro lint out.json --arch grid --qubits 16 --density 0.3
    python -m repro check src/repro --format json
    python -m repro clique --arch grid --qubits 25
    python -m repro solve --arch line --qubits 6 --workload clique
    python -m repro info --arch heavyhex --qubits 64

``lint`` and ``check`` exit codes: 0 clean, 1 error-severity
diagnostics found, 2 usage/load problems.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .analysis import format_table, result_metrics
from .arch import NoiseModel, architecture_for
from .compiler import compile_qaoa
from .ir.qasm import to_qasm
from .ir.serialize import mapping_to_dict
from .pipeline.registry import available_methods, get_method
from .problems import WORKLOADS, clique, make_workload, random_problem_graph

_ARCH_CHOICES = ["line", "grid", "sycamore", "hexagon", "heavyhex",
                 "mumbai", "cube"]

#: Comment ``compile --qasm`` writes so ``lint`` can read the initial
#: mapping back: QASM has no notion of one, and the QASM parser skips
#: ``//`` comments.  The rest of the line is ``mapping_to_dict`` JSON.
_QASM_MAPPING_COMMENT = "initial_mapping: "

#: Comment ``compile --qasm`` writes for a p > 1 program, whose QASM is
#: the layers flattened into one circuit: the JSON list of each layer's
#: ``[role, op count]``, in program order, so ``lint`` can split the
#: circuit back into layers and lint each from its own entry mapping.
_QASM_LAYERS_COMMENT = "layers: "


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1, with an actionable message."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer >= 1, got {value}")
    return value


def _density(text: str) -> float:
    """argparse type: a float in [0, 1] (fraction of possible edges)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"density is a fraction of possible edges and must be in "
            f"[0, 1], got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _arch_list(text: str) -> List[str]:
    """argparse type: comma-separated architecture families."""
    archs = [part.strip() for part in text.split(",") if part.strip()]
    if not archs:
        raise argparse.ArgumentTypeError("expected at least one architecture")
    for arch in archs:
        if arch not in _ARCH_CHOICES:
            raise argparse.ArgumentTypeError(
                f"unknown architecture {arch!r}; choose from "
                f"{', '.join(_ARCH_CHOICES)}")
    return archs


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for ``python -m repro`` (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regularity-aware compilation for programs with "
                    "permutable operators (ASPLOS 2023 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--arch", default="heavyhex", choices=_ARCH_CHOICES)
        p.add_argument("--qubits", type=_positive_int, default=32)
        p.add_argument("--seed", type=int, default=0)

    compile_p = sub.add_parser("compile", help="compile one instance")
    add_common(compile_p)
    compile_p.add_argument("--density", type=_density, default=0.3)
    compile_p.add_argument("--method", default="hybrid", metavar="METHOD",
                           help="any registered compiler method: "
                                f"{', '.join(available_methods())}")
    compile_p.add_argument("--gamma", type=float, default=0.0)
    compile_p.add_argument("--layers", type=_positive_int, default=1,
                           metavar="P",
                           help="assemble a p-layer program (odd layers "
                                "replay the cost layer reversed so the "
                                "qubit permutation cancels pairwise)")
    compile_p.add_argument("--mixer", default="rx", choices=["rx", "none"],
                           help="interleave RX mixer walls ('rx', QAOA) "
                                "or emit cost layers only ('none', "
                                "Trotterization)")
    compile_p.add_argument("--noise", action="store_true",
                           help="use a synthetic noise calibration")
    compile_p.add_argument("--qasm", metavar="FILE",
                           help="write the compiled circuit as OpenQASM 2.0 "
                                "(the flattened program when --layers > 1)")
    compile_p.add_argument("--telemetry", action="store_true",
                           help="print per-pass timings and cache stats")

    compare_p = sub.add_parser("compare",
                               help="compare all compilation methods")
    add_common(compare_p)
    compare_p.add_argument("--density", type=_density, default=0.3)

    batch_p = sub.add_parser(
        "batch", help="compile many instances over a worker pool")
    batch_p.add_argument("--arch", type=_arch_list, default=["heavyhex"],
                         metavar="A[,B,...]",
                         help="comma-separated architecture families")
    batch_p.add_argument("--qubits", type=_positive_int, default=32)
    batch_p.add_argument("--count", type=_positive_int, default=8,
                         help="instances per (arch, method): seeds "
                              "SEED..SEED+COUNT-1")
    batch_p.add_argument("--seed", type=int, default=0)
    batch_p.add_argument("--density", type=_density, default=0.3)
    batch_p.add_argument("--workload", default="rand", choices=WORKLOADS)
    batch_p.add_argument("--method", default="hybrid",
                         help="comma-separated compiler methods; any of: "
                              f"{', '.join(available_methods())}")
    batch_p.add_argument("--layers", type=_positive_int, default=1,
                         metavar="P",
                         help="program depth p for every job (default 1)")
    batch_p.add_argument("--mixer", default="rx", choices=["rx", "none"],
                         help="mixer style for assembled programs")
    batch_p.add_argument("--workers", type=_positive_int, default=None,
                         help="pool size (default: min(jobs, CPU count))")
    batch_p.add_argument("--timeout", type=_positive_float, default=None,
                         metavar="SECONDS", help="per-job wall-clock budget")
    batch_p.add_argument("--serial", action="store_true",
                         help="run in-process (still cached + fault-tolerant)")
    batch_p.add_argument("--no-validate", action="store_true",
                         help="skip the semantic validator per job")
    batch_p.add_argument("--lint", action="store_true",
                         help="run the circuit linter per job and "
                              "aggregate diagnostics in the report")
    batch_p.add_argument("--json", metavar="FILE",
                         help="write the full report as JSON")
    batch_p.add_argument("--retries", type=_positive_int, default=None,
                         metavar="N",
                         help="attempts per job for transient failures "
                              "(exponential backoff; default: no retries)")
    batch_p.add_argument("--store", metavar="DIR",
                         help="result-store directory, shared with "
                              "'serve --store' (created if missing): "
                              "jobs it holds are read back instead of "
                              "recompiled, and each ok result is "
                              "published to it as it finishes")
    batch_p.add_argument("--max-pool-restarts", type=int, default=None,
                         metavar="N",
                         help="resubmissions of a job whose worker "
                              "died (default: 2)")

    serve_p = sub.add_parser(
        "serve", help="long-lived compile daemon with a warm worker "
                      "pool and a content-addressed result store")
    serve_p.add_argument("--store", metavar="DIR", default=".repro-store",
                         help="result-store directory (default: "
                              ".repro-store; created if missing)")
    serve_p.add_argument("--no-store", action="store_true",
                         help="disable the persistent result store "
                              "(warm pool + in-flight dedupe only)")
    serve_p.add_argument("--stdio", action="store_true",
                         help="serve JSONL requests from stdin instead "
                              "of HTTP (one JSON object per line)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="HTTP bind address (default: 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="HTTP port (default: 8642; 0 picks an "
                              "ephemeral port, printed on stderr)")
    serve_p.add_argument("--workers", type=_positive_int, default=None,
                         help="warm pool size (default: CPU count)")
    serve_p.add_argument("--executor", default="process",
                         choices=["process", "thread"],
                         help="worker pool flavor (thread: debugging; "
                              "refuses --timeout)")
    serve_p.add_argument("--timeout", type=_positive_float, default=None,
                         metavar="SECONDS",
                         help="per-job wall-clock budget in the workers")

    lint_p = sub.add_parser(
        "lint", help="statically analyze serialized compiled circuits")
    lint_p.add_argument("files", nargs="+", metavar="FILE",
                        help="compiled-result/circuit JSON documents "
                             "(repro.ir.serialize format) or .qasm files")
    lint_p.add_argument("--arch", default="heavyhex", choices=_ARCH_CHOICES)
    lint_p.add_argument("--qubits", type=_positive_int, default=None,
                        help="logical qubit count of the generated "
                             "problem (required unless --problem)")
    lint_p.add_argument("--problem", metavar="FILE",
                        help="problem-graph JSON "
                             "(repro.ir.serialize.problem_to_dict format)")
    lint_p.add_argument("--workload", default="rand", choices=WORKLOADS)
    lint_p.add_argument("--density", type=_density, default=0.3)
    lint_p.add_argument("--seed", type=int, default=0)
    lint_p.add_argument("--format", default="text",
                        choices=["text", "json"], dest="fmt")
    lint_p.add_argument("--select", metavar="CODES", default=None,
                        help="comma-separated rule codes to run "
                             "exclusively (e.g. RL001,RL013)")
    lint_p.add_argument("--ignore", metavar="CODES", default=None,
                        help="comma-separated rule codes to skip")
    lint_p.add_argument("--allow-repeats", action="store_true",
                        help="permit repeated problem edges "
                             "(clique-style patterns)")
    lint_p.add_argument("--no-require-all-edges", action="store_true",
                        help="do not report never-executed problem edges")
    lint_p.add_argument("--strict", action="store_true",
                        help="exit 1 on warnings as well as errors")

    check_p = sub.add_parser(
        "check", help="statically analyze the repro source tree itself "
                      "(CK0xx rule catalogue)")
    check_p.add_argument("paths", nargs="*", metavar="PATH",
                         help="files or directory trees to scan "
                              "(default: src/repro)")
    check_p.add_argument("--select", metavar="CODES", default=None,
                         help="comma-separated rule codes to run "
                              "exclusively (e.g. CK001,CK010)")
    check_p.add_argument("--ignore", metavar="CODES", default=None,
                         help="comma-separated rule codes to skip")
    check_p.add_argument("--format", default="text",
                         choices=["text", "json"], dest="fmt")
    check_p.add_argument("--baseline", metavar="FILE", default=None,
                         help="reviewed suppression baseline (default: "
                              "CHECKERS_BASELINE.json when present)")
    check_p.add_argument("--no-baseline", action="store_true",
                         help="report every finding, baseline or not")
    check_p.add_argument("--no-restrict", action="store_true",
                         help="run every rule on every file, ignoring "
                              "per-rule hot-path restrictions")
    check_p.add_argument("--output", metavar="FILE", default=None,
                         help="additionally write the JSON report here "
                              "(the CI artifact)")
    check_p.add_argument("--list-rules", action="store_true",
                         help="print the rule catalogue and exit")

    clique_p = sub.add_parser("clique",
                              help="compile the all-to-all special case")
    add_common(clique_p)

    solve_p = sub.add_parser(
        "solve", help="depth-optimal exact search (small instances)")
    solve_p.add_argument("--arch", default="line", choices=_ARCH_CHOICES)
    solve_p.add_argument("--qubits", type=_positive_int, default=4)
    solve_p.add_argument("--seed", type=int, default=0)
    solve_p.add_argument("--workload", default="clique",
                         choices=[*WORKLOADS, "biclique"],
                         help="biclique splits the qubits into two "
                              "all-to-all-connected halves")
    solve_p.add_argument("--density", type=_density, default=0.3)
    solve_p.add_argument("--gamma", type=float, default=0.0)
    solve_p.add_argument("--strategy", default="astar",
                         choices=["astar", "idastar"],
                         help="idastar bounds memory to the path depth")
    solve_p.add_argument("--minimize-swaps", action="store_true",
                         help="among depth-optimal schedules, return one "
                              "with the fewest SWAPs (slower)")
    solve_p.add_argument("--no-heuristic", action="store_true",
                         help="degrade to uniform-cost search (debugging)")
    solve_p.add_argument("--max-nodes", type=_positive_int, default=500_000,
                         help="node-expansion budget before giving up")
    solve_p.add_argument("--qasm", metavar="FILE",
                         help="write the optimal circuit as OpenQASM 2.0")
    solve_p.add_argument("--json", metavar="FILE",
                         help="write depth + solver counters as JSON")

    info_p = sub.add_parser("info", help="describe an architecture")
    add_common(info_p)
    return parser


def _unknown_method_error(method: str) -> int:
    """Exit-2 path for a method name the registry does not know."""
    print(f"error: unknown method {method!r}; registered methods: "
          f"{', '.join(available_methods())}", file=sys.stderr)
    return 2


def _path_error(path: str, exc: OSError) -> int:
    """Exit-2 path for an output file or store directory that cannot
    be written."""
    print(f"error: {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _write_output(path: str, text: str) -> bool:
    """Write an output file; on failure report it via :func:`_path_error`."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        _path_error(path, exc)
        return False
    return True


def _probe_output(path: str) -> bool:
    """Check that an output file can be written, leaving no file behind;
    on failure report it via :func:`_path_error`."""
    target = Path(path)
    existed = target.exists()
    try:
        with target.open("a", encoding="utf-8"):
            pass
        if not existed:
            target.unlink()
    except OSError as exc:
        _path_error(path, exc)
        return False
    return True


def _cmd_compile(args) -> int:
    try:
        get_method(args.method)
    except ValueError:
        return _unknown_method_error(args.method)
    problem = random_problem_graph(args.qubits, args.density, seed=args.seed)
    coupling = architecture_for(args.arch, args.qubits)
    noise = NoiseModel(coupling, seed=args.seed) if args.noise else None
    result = compile_qaoa(coupling, problem, method=args.method,
                          noise=noise, gamma=args.gamma,
                          layers=args.layers, mixer=args.mixer)
    result.validate(coupling, problem)
    metrics = result_metrics(result, noise)
    print(f"problem:  {problem}")
    print(f"device:   {coupling}")
    print(f"method:   {result.method}")
    if result.program is not None and args.layers > 1:
        program = result.program
        print(f"program:  p={program.p} mixer={program.mixer} "
              f"({len(program.layers)} layers, {program.n_ops()} ops, "
              f"{program.swap_count()} swaps, net permutation "
              f"{'identity' if program.net_permutation_is_identity else 'nontrivial'})")
    for key, value in metrics.items():
        print(f"{key:>8}: {value:.4g}" if isinstance(value, float)
              else f"{key:>8}: {value}")
    if args.telemetry:
        for record in result.extra.get("passes", []):
            status = " (skipped)" if record.get("skipped") else ""
            print(f"pass {record['name']:>11}: "
                  f"{record['wall_s']:.4f}s{status}")
        for cache, delta in result.cache_stats.items():
            print(f"cache {cache}: {delta['hits']} hits / "
                  f"{delta['misses']} misses")
    if args.qasm:
        comment = f"{problem.name} on {coupling.name}"
        exported = result.circuit
        layers = None
        if result.program is not None and args.layers > 1:
            exported = result.program.flatten()
            comment += f" (p={result.program.p} program, flattened)"
            layers = [[layer.role, len(layer.circuit)]
                      for layer in result.program.layers]
        comment += "\n" + _QASM_MAPPING_COMMENT + json.dumps(
            mapping_to_dict(result.initial_mapping))
        if layers is not None:
            comment += "\n" + _QASM_LAYERS_COMMENT + json.dumps(layers)
        if not _write_output(args.qasm, to_qasm(exported, comment=comment)):
            return 2
        print(f"qasm written to {args.qasm}")
    return 0


def _cmd_batch(args) -> int:
    from .batch import compile_many, jobs_for
    from .batch.engine import DEFAULT_MAX_POOL_RESTARTS
    from .resilience import RetryPolicy

    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        print("error: --method needs at least one compiler name",
              file=sys.stderr)
        return 2
    if args.max_pool_restarts is not None and args.max_pool_restarts < 0:
        print("error: --max-pool-restarts must be >= 0", file=sys.stderr)
        return 2
    try:
        jobs = jobs_for(
            args.arch, args.qubits, methods=methods,
            workloads=(args.workload,), density=args.density,
            seeds=tuple(range(args.seed, args.seed + args.count)),
            validate=not args.no_validate, lint=args.lint,
            layers=args.layers, mixer=args.mixer)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    retry = RetryPolicy(max_attempts=args.retries) if args.retries else None
    # Refuse an unwritable report path before the sweep, not after: a
    # late failure would throw the finished sweep away.
    if args.json and not _probe_output(args.json):
        return 2
    store = None
    if args.store:
        from .serve.store import ResultStore

        try:
            store = ResultStore(args.store)
        except OSError as exc:
            return _path_error(args.store, exc)
    try:
        report = compile_many(
            jobs, workers=args.workers, timeout_s=args.timeout,
            executor="serial" if args.serial else "process",
            retry=retry, store=store,
            max_pool_restarts=(DEFAULT_MAX_POOL_RESTARTS
                               if args.max_pool_restarts is None
                               else args.max_pool_restarts))
    except ValueError as exc:
        # Bad engine arguments or a malformed REPRO_FAULT_PLAN — config
        # errors, not job failures.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_table(
        ["job", "status", "depth", "CX", "SWAPs", "seconds"],
        report.rows(),
        title=f"batch: {len(jobs)} jobs on {','.join(args.arch)}"))
    print(report.summary())
    if args.json:
        if not _write_output(args.json,
                             json.dumps(report.to_json(), indent=2)):
            return 2
        print(f"report written to {args.json}")
    if report.failures:
        return 1
    return 1 if args.lint and report.lint_errors else 0


def _cmd_serve(args) -> int:
    from .exceptions import SpecificationError
    from .serve import serve_main

    if args.port < 0 or args.port > 65535:
        print("error: --port must be in [0, 65535]", file=sys.stderr)
        return 2
    try:
        return serve_main(args)
    except (SpecificationError, OSError) as exc:
        # Bad pool spec, unbindable port, unwritable store directory —
        # configuration problems, not serving failures.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _split_codes(text: Optional[str]) -> Optional[List[str]]:
    """Comma-separated rule codes -> list (``None`` stays ``None``)."""
    if text is None:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def _load_lint_target(path: str):
    """Load one lint input file.

    Returns ``(circuit, mapping_or_None, expected_metrics_or_None,
    program_or_None)``.  Circuits load through the *unchecked*
    deserializer so corrupt documents become RL002/RL003 diagnostics
    instead of load failures.  A ``.qasm`` file yields the mapping its
    ``compile --qasm`` comment records, else none, and, when a layers
    comment splits it into a p > 1 program, that program.
    """
    from .ir.qasm import from_qasm
    from .ir.serialize import circuit_from_dict, mapping_from_dict

    if path.endswith(".qasm"):
        with open(path) as handle:
            text = handle.read()
        circuit = from_qasm(text)
        mapping = _qasm_comment(text, _QASM_MAPPING_COMMENT)
        if mapping is not None:
            mapping = mapping_from_dict(mapping)
        layers = _qasm_comment(text, _QASM_LAYERS_COMMENT)
        program = None
        if layers is not None and mapping is not None:
            program = _split_layers(circuit, mapping, layers)
        return circuit, mapping, None, program
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("top-level JSON value is not an object")
    if "circuit" in data:  # compiled-result document
        circuit = circuit_from_dict(data["circuit"], check=False)
        mapping = mapping_from_dict(data["initial_mapping"])
        return circuit, mapping, data.get("metrics"), None
    if "ops" in data:  # bare circuit document
        return circuit_from_dict(data, check=False), None, None, None
    raise ValueError(
        "unrecognized document: expected a compiled-result or circuit "
        "JSON (repro.ir.serialize format) or a .qasm file")


def _qasm_comment(text: str, key: str):
    """The JSON value of the first ``// <key>`` comment line, or None."""
    prefix = "// " + key
    return next((json.loads(line[len(prefix):])
                 for line in text.splitlines() if line.startswith(prefix)),
                None)


def _split_layers(circuit, mapping, layers):
    """The program a flattened circuit came from, given each layer's
    ``[role, op count]``; every layer's entry mapping is the exit mapping
    of the one before, starting from ``mapping``."""
    from .ir.circuit import Circuit
    from .ir.program import Program, ProgramLayer, layer_permutation

    if not isinstance(layers, list) or not all(
            isinstance(layer, list) and len(layer) == 2
            and isinstance(layer[1], int) and layer[1] >= 0
            for layer in layers):
        raise ValueError(f"malformed layers comment {layers!r}: expected "
                         "a list of [role, op count] pairs")
    built = []
    start = 0
    entry = mapping
    for role, count in layers:
        ops = circuit.ops[start:start + count]
        start += count
        layer = Circuit.from_ops_unchecked(circuit.n_qubits, ops)
        exit_mapping = layer_permutation(layer, entry)
        built.append(ProgramLayer(role, layer, None,
                                  tuple(entry.log_to_phys),
                                  tuple(exit_mapping.log_to_phys)))
        entry = exit_mapping
    if start != len(circuit):
        raise ValueError(f"the layers comment covers {start} ops but the "
                         f"circuit has {len(circuit)}")
    return Program(circuit.n_qubits, built, mapping)


def _lint_problem(args):
    """Resolve the problem graph a lint run checks against."""
    from .ir.serialize import problem_from_dict

    if args.problem:
        with open(args.problem) as handle:
            return problem_from_dict(json.load(handle))
    if args.qubits is None:
        raise ValueError(
            "lint needs the problem the circuit should implement: pass "
            "--problem FILE, or --qubits N (with --workload/--density/"
            "--seed) to regenerate it")
    return make_workload(args.workload, args.qubits, args.density, args.seed)


def _cmd_lint(args) -> int:
    from .exceptions import ReproError
    from .ir.mapping import Mapping
    from .lint import (lint_circuit, lint_program, render_json,
                       render_text, resolve_rules)

    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore)
    try:
        resolve_rules(select=select, ignore=ignore)
        problem = _lint_problem(args)
    except (OSError, ValueError, KeyError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    total_errors = 0
    total_warnings = 0
    json_payloads = []
    for path in args.files:
        try:
            circuit, mapping, expected, program = _load_lint_target(path)
            coupling = architecture_for(args.arch, circuit.n_qubits)
            if mapping is None:
                if circuit.n_qubits < problem.n_vertices:
                    raise ValueError(
                        f"{path}: circuit has {circuit.n_qubits} qubits "
                        f"but the problem needs {problem.n_vertices}")
                mapping = Mapping.trivial(problem.n_vertices,
                                          circuit.n_qubits)
            if program is not None:
                # Each layer from its own entry mapping; cost layers are
                # always held to every problem edge.
                report = lint_program(
                    program, coupling.edges, problem.edges,
                    allow_repeats=args.allow_repeats,
                    select=select, ignore=ignore)
            else:
                report = lint_circuit(
                    circuit, coupling.edges, mapping, problem.edges,
                    allow_repeats=args.allow_repeats,
                    require_all_edges=not args.no_require_all_edges,
                    expected=expected, select=select, ignore=ignore)
        except (OSError, ValueError, KeyError, ReproError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        counts = report.counts()
        total_errors += counts["error"]
        total_warnings += counts["warning"]
        if args.fmt == "json":
            json_payloads.append(render_json(report, source=path))
        else:
            print(render_text(report, source=path))
    if args.fmt == "json":
        totals = {"error": total_errors, "warning": total_warnings}
        print(json.dumps({"version": 1, "files": json_payloads,
                          "totals": totals}, indent=2))
    if total_errors or (args.strict and total_warnings):
        return 1
    return 0


def _cmd_check(args) -> int:
    from dataclasses import asdict

    from .checkers import (DEFAULT_BASELINE_NAME, all_checkers,
                           apply_baseline, check_paths, load_baseline)
    from .lint.diagnostics import LintReport
    from .lint.reporters import render_json, render_text

    if args.list_rules:
        for rule in all_checkers():
            print(f"{rule.code}  {rule.name:<24} {rule.severity}")
            print(f"       {rule.description}")
            print(f"       escape: {rule.escape}")
        return 0

    select = _split_codes(args.select)
    ignore = _split_codes(args.ignore)
    paths = args.paths or ["src/repro"]
    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline \
            and Path(DEFAULT_BASELINE_NAME).is_file():
        baseline_path = DEFAULT_BASELINE_NAME
    try:
        entries = load_baseline(baseline_path) \
            if baseline_path and not args.no_baseline else ()
        findings = check_paths(
            paths,
            select=tuple(select) if select else None,
            ignore=tuple(ignore) if ignore else None,
            restrict=not args.no_restrict)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    remaining, suppressed, stale = apply_baseline(findings, tuple(entries))
    report = LintReport(diagnostics=remaining)
    source = " ".join(str(p) for p in paths)
    payload = render_json(report, source=source)
    payload["suppressed_baseline"] = suppressed
    payload["stale_baseline"] = [asdict(entry) for entry in stale]
    if args.output:
        if not _write_output(args.output,
                             json.dumps(payload, indent=2) + "\n"):
            return 2
    if args.fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(render_text(report, source=source))
        if suppressed:
            print(f"  {suppressed} finding(s) suppressed by baseline "
                  f"({baseline_path})")
        for entry in stale:
            print(f"  stale baseline entry: {entry.code} {entry.path} "
                  f"{entry.symbol or ''} — finding no longer occurs; "
                  f"remove it".rstrip())
    return 1 if report.errors else 0


def _cmd_compare(args) -> int:
    problem = random_problem_graph(args.qubits, args.density, seed=args.seed)
    coupling = architecture_for(args.arch, args.qubits)
    rows = []
    for method in ("greedy", "ata", "hybrid"):
        result = compile_qaoa(coupling, problem, method=method)
        result.validate(coupling, problem)
        rows.append([method, result.depth(), result.gate_count,
                     result.swap_count, result.wall_time_s])
    print(format_table(["method", "depth", "CX", "SWAPs", "seconds"], rows,
                       title=f"{problem.name} on {coupling.name}"))
    return 0


def _cmd_clique(args) -> int:
    coupling = architecture_for(args.arch, args.qubits)
    problem = clique(args.qubits)
    result = compile_qaoa(coupling, problem, method="ata")
    result.validate(coupling, problem)
    print(f"clique-{args.qubits} on {coupling.name}: "
          f"depth={result.depth()} ({result.depth() / args.qubits:.2f} per "
          f"qubit), cx={result.gate_count}")
    return 0


def _solve_problem(args):
    """The problem graph a ``solve`` run schedules."""
    from .problems import biclique

    if args.workload == "biclique":
        half = args.qubits // 2
        return biclique(args.qubits - half, half)
    return make_workload(args.workload, args.qubits, args.density, args.seed)


def _cmd_solve(args) -> int:
    from .exceptions import SolverError
    from .solver import solve_depth_optimal

    coupling = architecture_for(args.arch, args.qubits)
    problem = _solve_problem(args)
    if problem.n_vertices > coupling.n_qubits:
        print(f"error: problem has {problem.n_vertices} qubits but "
              f"{coupling.name} has only {coupling.n_qubits}",
              file=sys.stderr)
        return 2
    try:
        result = solve_depth_optimal(
            coupling, problem.edges, gamma=args.gamma,
            max_nodes=args.max_nodes,
            use_heuristic=not args.no_heuristic,
            minimize_swaps=args.minimize_swaps,
            strategy=args.strategy)
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stats = result.stats
    print(f"problem:  {problem}")
    print(f"device:   {coupling}")
    print(f"depth:    {result.depth}")
    print(f"swaps:    {result.circuit.swap_count}")
    print(f"strategy: {stats.strategy}")
    print(f"nodes:    {stats.nodes_expanded} expanded / "
          f"{stats.nodes_generated} generated")
    print(f"dedupe:   {stats.dedupe_hits} hits; "
          f"open-list peak {stats.heap_peak}")
    print(f"h evals:  {stats.heuristic_evals}")
    print(f"time:     {stats.wall_time_s:.3f}s")
    if args.qasm:
        if not _write_output(args.qasm, to_qasm(
                result.circuit,
                comment=f"optimal {problem.name} on {coupling.name}")):
            return 2
        print(f"qasm written to {args.qasm}")
    if args.json:
        payload = {
            "problem": problem.name,
            "arch": coupling.name,
            "depth": result.depth,
            "swaps": result.circuit.swap_count,
            **stats.as_dict(),
        }
        if not _write_output(args.json, json.dumps(payload, indent=2)):
            return 2
        print(f"report written to {args.json}")
    return 0


def _cmd_info(args) -> int:
    coupling = architecture_for(args.arch, args.qubits)
    print(f"name:      {coupling.name}")
    print(f"kind:      {coupling.kind}")
    print(f"qubits:    {coupling.n_qubits}")
    print(f"couplings: {coupling.n_edges}")
    print(f"max degree:{coupling.max_degree():>2}")
    print(f"diameter:  {int(coupling.distance_matrix.max())}")
    for key in ("rows", "cols", "width", "dims"):
        if key in coupling.metadata:
            print(f"{key}: {coupling.metadata[key]}")
    from .arch.draw import draw_architecture
    print()
    print(draw_architecture(coupling))
    return 0


_COMMANDS = {
    "compile": _cmd_compile,
    "compare": _cmd_compare,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
    "check": _cmd_check,
    "clique": _cmd_clique,
    "solve": _cmd_solve,
    "info": _cmd_info,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
