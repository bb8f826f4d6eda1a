"""The benchmark's four workloads.

A workload runs in *rounds*.  A round is one pass over the workload's
fixed set of *cells* (architecture x problem kind, method x
architecture, or the serve schedule's request classes); round ``r``
draws fresh instances from ``(--seed, r)``.  Every round therefore does
the same mix of work on new inputs, a run can stop after any whole
round, and the traced run can replay exactly the rounds the untraced run
measured.

Between operations the workloads run the speed probe of
:mod:`bench.speed`; each round's timings are scaled by how much slower
than nominal the probe ran during that round.

Nothing here imports :mod:`repro` at module level: the imports are part
of set-up, which the benchmark times.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, ContextManager, Dict, Iterator, List, Optional,
                    Sequence, Tuple, Type)

from . import speed
from .trace import Tracer


def instance_seed(seed: int, *keys: object) -> int:
    """A 31-bit generator seed derived from the run seed and ``keys``;
    stable across processes and Python versions."""
    digest = hashlib.sha256(repr((seed,) + keys).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _span(tracer: Optional[Tracer], name: str) -> ContextManager[Any]:
    return tracer.span(name) if tracer is not None else nullcontext()


def _request(tracer: Optional[Tracer],
             request_id: str) -> ContextManager[Any]:
    return tracer.request(request_id) if tracer is not None \
        else nullcontext()


@dataclass
class Op:
    """One timed operation: a compile call, a batch job or a request."""

    #: The instance, e.g. ``grid-16x16/reg-256-d3-s123``.
    label: str
    #: The cell the instance belongs to, e.g. ``grid-16x16/reg-256-d3``.
    cell: str
    request: str
    seconds: float
    problems: List[str] = field(default_factory=list)
    depth: Optional[int] = None
    cx: Optional[int] = None
    selected: Optional[str] = None
    served_from: Optional[str] = None
    #: Output identity, compared between the untraced and traced replay.
    signature: Optional[str] = None
    #: Cache hits and misses of a compile that ran in a pool worker.
    cache: Optional[Dict[str, Any]] = None
    #: Set when the round ends: its index, and the seconds scaled to
    #: nominal machine speed.
    round: int = 0
    scaled: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class Phase:
    """The operations and round times of one measured phase."""

    ops: List[Op] = field(default_factory=list)
    round_seconds: List[float] = field(default_factory=list)
    #: Per round: how much slower than nominal its operations ran, as
    #: the probes next to them measured (above 1 means a slow machine).
    slowdowns: List[float] = field(default_factory=list)
    #: methods-64: ``{row: {"depth": {method: d}, "cx": {method: c}}}``.
    rows: Dict[str, Dict[str, Dict[str, int]]] = field(default_factory=dict)
    #: This round's probe points: ``(ops recorded so far, probe times)``.
    _probes: List[Tuple[int, List[float]]] = field(default_factory=list)

    def probe(self) -> None:
        """Sample machine speed here, between two operations."""
        self._probes.append((len(self.ops), [speed.probe() for _ in
                                             range(speed.RUNS)]))

    def run_round(self, workload: "Workload", index: int,
                  tracer: Optional[Tracer] = None) -> None:
        """Run round ``index`` of ``workload`` and scale each operation
        by the probe points just before and just after it."""
        self._probes = []
        first = len(self.ops)
        self.probe()
        seconds = workload.run_round(index, self, tracer)
        self.probe()
        for position, op in enumerate(self.ops[first:], start=first):
            before = [times for at, times in self._probes if at <= position]
            after = [times for at, times in self._probes if at > position]
            op.round = len(self.round_seconds)
            op.scaled = op.seconds / speed.slowdown(before[-1] + after[0])
        ops = self.ops[first:]
        self.slowdowns.append(sum(op.seconds for op in ops)
                              / sum(op.scaled for op in ops))
        self.round_seconds.append(seconds)

    @property
    def scaled_rounds(self) -> List[float]:
        return [seconds / slowdown for seconds, slowdown
                in zip(self.round_seconds, self.slowdowns)]


class Workload:
    """Base class: set-up, one round at a time, tear-down."""

    name = ""
    why = ""
    #: Rounds a measured run always completes, however long they take.
    #: The quality metrics average these rounds' outputs only, so they
    #: are the same for a seed whatever the machine's speed.
    QUALITY_ROUNDS = 1
    #: A run stops only after a multiple of this many rounds, for
    #: workloads whose rounds take turns over parts of the cells.
    ROUND_MULTIPLE = 1
    #: Whether ops record an output signature (the traced run sets it).
    signatures = False

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        """Everything before the first timed round: imports and inputs,
        then warm-up on every architecture, so lazy caches are full."""
        self.prepare()
        self.warm()

    def prepare(self) -> None:
        """Build what the rounds need before anything compiles."""

    def warm(self) -> None:
        """Run untimed operations that fill the program's lazy caches."""

    def use_lane(self, lane: str) -> None:
        """Switch to lane ``lane``'s copy of any state that rounds
        accumulate, so two lanes can each replay rounds 0, 1, ..."""

    def run_round(self, index: int, phase: Phase,
                  tracer: Optional[Tracer]) -> float:
        """Run round ``index`` into ``phase``; return the round's time."""
        raise NotImplementedError

    def quality_ops(self, phase: Phase) -> List[Op]:
        """The outputs the quality metrics average: every output of the
        first :data:`QUALITY_ROUNDS` rounds."""
        return [op for op in phase.ops
                if op.round < self.QUALITY_ROUNDS and op.depth is not None]

    def close(self) -> None:
        """Stop any processes the workload started; the caller owns
        ``scratch`` and removes it."""


def round_indices(workload: Workload, seconds: float,
                  minimum: int = 1) -> Iterator[int]:
    """Round indices 0, 1, ... until ``seconds`` have passed, at least
    ``minimum`` rounds are done and the count is a multiple of the
    workload's ``ROUND_MULTIPLE``."""
    started = time.perf_counter()
    index = 0
    while (index < minimum or index % workload.ROUND_MULTIPLE
           or time.perf_counter() - started < seconds):
        yield index
        index += 1


def check_compiled(result: Any, coupling: Any, problem: Any) -> List[str]:
    """Why ``result`` is not a correct compilation of ``problem``, if it
    is not: the semantic validator (with the program checks when p > 1)
    and zero error-severity lint diagnostics."""
    from repro.exceptions import ValidationError
    from repro.lint import lint_result

    problems = []
    try:
        result.validate(coupling, problem)
    except ValidationError as exc:
        problems.append(f"invalid: {exc}")
    errors = lint_result(result, coupling, problem).errors
    if errors:
        problems.append(f"lint: {len(errors)} error diagnostic(s), first "
                        f"{errors[0].code}: {errors[0].message}")
    return problems


def circuit_signature(circuit: Any) -> str:
    from repro.ir.serialize import circuit_to_dict

    payload = json.dumps(circuit_to_dict(circuit), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class HybridCompileWorkload(Workload):
    """Hybrid ``compile_qaoa`` over a grid of (architecture, problem)
    cells; every output is validated and linted outside the timer."""

    ARCHS: Tuple[str, ...] = ()
    QUBITS = 0

    def prepare(self) -> None:
        from repro.arch import architecture_for

        self.couplings = [architecture_for(kind, self.QUBITS)
                          for kind in self.ARCHS]

    def cells(self, index: int) -> List[Tuple[str, Any, Any]]:
        """The round's ``(cell, coupling, problem)`` triples, in a fixed
        order."""
        raise NotImplementedError

    def warm(self) -> None:
        """One compile per architecture fills its lazy caches."""
        from repro.compiler import compile_qaoa

        warmed = set()
        for _, coupling, problem in self.cells(-1):
            if coupling.name in warmed:
                continue
            warmed.add(coupling.name)
            problems = check_compiled(
                compile_qaoa(coupling, problem, method="hybrid"),
                coupling, problem)
            if problems:
                raise RuntimeError(f"warm-up compile of {problem.name} on "
                                   f"{coupling.name}: {problems}")

    def run_round(self, index: int, phase: Phase,
                  tracer: Optional[Tracer]) -> float:
        from repro.compiler import compile_qaoa

        total = 0.0
        for slot, (cell, coupling, problem) in enumerate(self.cells(index)):
            label = f"{coupling.name}/{problem.name}"
            request = f"r{index}.{slot}"
            phase.probe()
            with _request(tracer, request):
                started = time.perf_counter()
                try:
                    result = compile_qaoa(coupling, problem,
                                          method="hybrid")
                except Exception as exc:  # a failed compile is a result
                    seconds = time.perf_counter() - started
                    phase.ops.append(Op(label, cell, request, seconds,
                                        problems=[f"{type(exc).__name__}: "
                                                  f"{exc}"]))
                    total += seconds
                    continue
                seconds = time.perf_counter() - started
                problems = check_compiled(result, coupling, problem)
            total += seconds
            phase.ops.append(Op(
                label, cell, request, seconds, problems=problems,
                depth=result.depth(), cx=result.gate_count,
                selected=result.extra.get("selected"),
                signature=(circuit_signature(result.circuit)
                           if self.signatures else None)))
        return total


class Sparse(HybridCompileWorkload):
    name = "sparse-256"
    why = ("3-regular graphs on line, grid and heavy-hex (Table 2 "
           "regime): greedy wins, so candidate scoring and the greedy "
           "engine dominate")

    QUBITS = 256
    DEGREE = 3
    ARCHS = ("line", "grid", "heavyhex")
    #: Graphs per architecture per round.  Grid depth varies most from
    #: graph to graph (log-depth s.d. about 0.24, against 0.06 or less on
    #: line and heavy-hex), so grid gets two.
    PER_ROUND = {"line": 1, "grid": 2, "heavyhex": 1}
    QUALITY_ROUNDS = 5

    def cells(self, index: int) -> List[Tuple[str, Any, Any]]:
        from repro.problems.graphs import regular_problem_graph

        return [(f"{coupling.name}/reg-d{self.DEGREE}", coupling,
                 regular_problem_graph(
                     self.QUBITS, self.DEGREE, seed=instance_seed(
                         self.seed, self.name, index, kind, copy)))
                for kind, coupling in zip(self.ARCHS, self.couplings)
                for copy in range(self.PER_ROUND[kind])]


class Dense(HybridCompileWorkload):
    name = "dense-64"
    why = ("random graphs at density 0.3 and 0.5 plus cliques (Section 7 "
           "sweep): the ATA suffix wins and quadratic placement is large")

    QUBITS = 64
    ARCHS = ("grid", "heavyhex", "sycamore")
    DENSITIES = (0.3, 0.5)
    QUALITY_ROUNDS = 2

    def prepare(self) -> None:
        from repro.problems.graphs import clique

        super().prepare()
        self.clique = clique(self.QUBITS)

    def cells(self, index: int) -> List[Tuple[str, Any, Any]]:
        from repro.problems.graphs import random_problem_graph

        out = []
        for kind, coupling in zip(self.ARCHS, self.couplings):
            for density in self.DENSITIES:
                out.append((f"{coupling.name}/rand-{density:g}", coupling,
                            random_problem_graph(
                                self.QUBITS, density, seed=instance_seed(
                                    self.seed, self.name, index, kind,
                                    density))))
            out.append((f"{coupling.name}/clique", coupling, self.clique))
        return out


class Methods(Workload):
    name = "methods-64"
    why = ("eight methods on p=2 random graphs over three architectures, "
           "through the batch job path (Fig. 17, Table 1): baselines "
           "dominate")

    QUBITS = 64
    DENSITY = 0.3
    LAYERS = 2
    ARCHS = ("grid", "heavyhex", "sycamore")
    METHODS = ("hybrid", "greedy", "ata", "sabre", "qaim", "2qan",
               "paulihedral", "satmap")
    BASELINES = ("sabre", "qaim", "2qan", "paulihedral", "satmap")
    #: One rotation: every (method, architecture) cell once.  Rounds of
    #: one rotation differ in cost (SABRE alone varies 0.9-1.4 s by
    #: architecture), so runs are whole rotations.
    QUALITY_ROUNDS = 3
    ROUND_MULTIPLE = 3

    def _job(self, arch: str, method: str, graph_seed: int) -> Any:
        from repro.batch.jobs import BatchJob

        return BatchJob(arch=arch, n_qubits=self.QUBITS, workload="rand",
                        density=self.DENSITY, seed=graph_seed,
                        method=method, layers=self.LAYERS, validate=True,
                        lint=True)

    def jobs(self, index: int) -> List[Any]:
        """Round ``index``: every method once.  Method ``i`` runs on
        architecture ``(i + index) mod 3``, so each round mixes the
        architectures alike and three rounds cover every (method,
        architecture) cell on one graph per architecture."""
        cycle = index // len(self.ARCHS)
        return [self._job(arch, method,
                          instance_seed(self.seed, self.name, cycle, arch))
                for i, method in enumerate(self.METHODS)
                for arch in [self.ARCHS[(i + index) % len(self.ARCHS)]]]

    def warm(self) -> None:
        import repro.baselines  # noqa: F401  (loaded lazily by the registry)
        from repro.batch import engine

        for arch in self.ARCHS:
            problems = job_problems(engine.execute_job(self._job(
                arch, "hybrid", instance_seed(self.seed, self.name, -1,
                                              arch))))
            if problems:
                raise RuntimeError(f"warm-up job on {arch}: {problems}")

    def run_round(self, index: int, phase: Phase,
                  tracer: Optional[Tracer]) -> float:
        from repro.batch import engine

        total = 0.0
        for job in self.jobs(index):
            request = f"r{index}.{job.method}"
            phase.probe()
            with _request(tracer, request):
                started = time.perf_counter()
                result = engine.execute_job(job)
                seconds = time.perf_counter() - started
            total += seconds
            record = result.record
            op = Op(job.name, f"{job.arch}/{job.method}", request, seconds,
                    problems=job_problems(result),
                    depth=record.get("depth"), cx=record.get("cx"))
            if self.signatures and result.ok:
                op.signature = "/".join(str(record.get(key)) for key in
                                        ("depth", "cx", "swaps", "ops"))
            phase.ops.append(op)
            if result.ok:
                row = phase.rows.setdefault(f"{job.arch}/s{job.seed}",
                                            {"depth": {}, "cx": {}})
                row["depth"][job.method] = record["depth"]
                row["cx"][job.method] = record["cx"]
        return total


def job_problems(result: Any) -> List[str]:
    """Why a batch :class:`JobResult` is not a correct output, if it is
    not.  The job validates (with the program checks at p > 1) and lints
    inside the worker; a failed check arrives as ``ok=False``."""
    if not result.ok:
        return [f"{result.error_type}: {result.error}"]
    if result.job.lint:
        counts = (result.lint or {}).get("counts")
        if counts is None:
            return ["lint requested but no lint report returned"]
        if counts.get("error", 0):
            return [f"lint: {counts['error']} error diagnostic(s)"]
    return []


@dataclass
class Tick:
    """One lockstep step: client ``i`` sends ``specs[i]`` and expects it
    to be served from ``expected[i]``."""

    kind: str
    specs: Tuple[Dict[str, Any], ...]
    expected: Tuple[str, ...]


class ServeMix(Workload):
    name = "serve-mix"
    why = ("two lockstep clients over CompileService with a 2-worker "
           "process pool and a result store: cold, store-hit and dedupe "
           "requests")

    QUBITS = 64
    WORKERS = 2
    ARCHS = ("line", "grid", "heavyhex", "sycamore")
    #: The baseline is QAIM, not SABRE: a 64-qubit SABRE compile takes
    #: 0.4-3.5 s here and varies by a fifth from graph to graph, so it
    #: alone would set a round's time.
    METHODS = ("hybrid", "greedy", "ata", "qaim")
    DENSITIES = (0.1, 0.2, 0.3, 0.4, 0.5)
    LAYERS = (1, 2, 4)
    #: Cold+cold ticks pair one method on two architectures, so the two
    #: compiles of a tick cost about the same and the shuffle barely
    #: moves a round's time.
    PAIRED_METHODS = ("hybrid", "qaim")
    #: Cold+hit ticks: one compile next to one store hit.
    SOLO_METHODS = ("greedy", "ata")
    #: Round ``r`` dedupes a fresh spec of cell ``DEDUPE_CELLS[r % 2]``.
    DEDUPE_CELLS = (("grid", "hybrid"), ("heavyhex", "greedy"))
    HIT_TICKS = 125
    #: Two rounds cover every (arch, method) cell once.
    ROUND_MULTIPLE = 2
    QUALITY_ROUNDS = 4
    #: Ticks between speed probes.
    PROBE_EVERY = 10

    def spec(self, arch: str, method: str, graph_seed: int
             ) -> Dict[str, Any]:
        """One request of cell (arch, method); the cell fixes density,
        p and whether the request asks for lint (one cell in four)."""
        a, m = self.ARCHS.index(arch), self.METHODS.index(method)
        return {"arch": arch, "qubits": self.QUBITS, "workload": "rand",
                "density": self.DENSITIES[(a + m) % len(self.DENSITIES)],
                "seed": graph_seed, "method": method,
                "layers": self.LAYERS[(a + 2 * m) % len(self.LAYERS)],
                "lint": (a + m) % 4 == 0}

    def prepare(self) -> None:
        self._warm_ticks = [
            Tick("warm", (self.spec(arch, "hybrid", graph_seed),
                          self.spec(arch, "greedy", graph_seed)),
                 ("compiled", "compiled"))
            for arch in self.ARCHS
            for graph_seed in [instance_seed(self.seed, self.name, -1, arch)]]
        self._completed = [spec for tick in self._warm_ticks
                           for spec in tick.specs]
        self._used = {_spec_key(spec) for spec in self._completed}
        self._schedules: List[List[Tick]] = []
        self._lanes: Dict[str, Tuple[Any, Dict[str, str]]] = {}

    def warm(self) -> None:
        # Imported before the pool forks its workers, which inherit them.
        import repro.baselines  # noqa: F401  (loaded lazily by the registry)
        import repro.lint  # noqa: F401  (loaded lazily by the batch engine)
        from repro.batch.pool import PersistentPool

        self.pool = PersistentPool(workers=self.WORKERS, executor="process")
        self.use_lane("measured")

    def use_lane(self, lane: str) -> None:
        """Each lane has its own store and service over the one pool,
        warmed with the warm-up ticks, so lanes replaying the same
        rounds see exactly the same hits and misses."""
        from repro.serve.service import CompileService
        from repro.serve.store import ResultStore

        if lane not in self._lanes:
            store = Path(tempfile.mkdtemp(prefix=f"store-{lane}-",
                                          dir=self.scratch))
            self._lanes[lane] = (CompileService(self.pool,
                                                ResultStore(store)), {})
            self.service, self._reference = self._lanes[lane]
            warm = Phase()
            asyncio.run(self._run_ticks(self._warm_ticks, "warm", warm,
                                        None))
            failed = [op for op in warm.ops if not op.ok]
            if failed:
                raise RuntimeError(f"warm-up request failed: {failed[0]}")
        self.service, self._reference = self._lanes[lane]

    def schedule(self, index: int) -> List[Tick]:
        """Round ``index``'s ticks; planned rounds are cached so a
        replay sends the same requests."""
        while len(self._schedules) <= index:
            self._schedules.append(self._plan(len(self._schedules)))
        return self._schedules[index]

    def _plan(self, index: int) -> List[Tick]:
        rng = random.Random(instance_seed(self.seed, self.name, index))

        def fresh(arch: str, method: str) -> Dict[str, Any]:
            while True:
                spec = self.spec(arch, method, rng.randrange(1, 2 ** 31))
                if _spec_key(spec) not in self._used:
                    self._used.add(_spec_key(spec))
                    return spec

        # Half the cells, alternating by round: every method on two
        # architectures and every architecture with two methods.
        archs = {method: [arch for a, arch in enumerate(self.ARCHS)
                          if (a + m + index) % 2 == 0]
                 for m, method in enumerate(self.METHODS)}
        planned: List[Tuple[str, List[Optional[Dict[str, Any]]],
                            Tuple[str, ...]]] = []
        for method in self.PAIRED_METHODS:
            planned.append(("cold+cold", [fresh(arch, method)
                                          for arch in archs[method]],
                            ("compiled", "compiled")))
        for method in self.SOLO_METHODS:
            for arch in archs[method]:
                planned.append(("cold+hit", [fresh(arch, method), None],
                                ("compiled", "store")))
        spec = fresh(*self.DEDUPE_CELLS[index % 2])
        planned.append(("dedupe", [spec, spec], ("compiled", "inflight")))
        planned.extend(("hit+hit", [None, None], ("store", "store"))
                       for _ in range(self.HIT_TICKS))
        rng.shuffle(planned)
        ticks = []
        for kind, specs, expected in planned:
            # A hit targets a spec completed before this tick.
            resolved = tuple(spec if spec is not None
                             else rng.choice(self._completed)
                             for spec in specs)
            ticks.append(Tick(kind, resolved, expected))
            for spec, served_from in zip(resolved, expected):
                if served_from == "compiled":
                    self._completed.append(spec)
        return ticks

    def run_round(self, index: int, phase: Phase,
                  tracer: Optional[Tracer]) -> float:
        return asyncio.run(self._run_ticks(self.schedule(index), f"r{index}",
                                           phase, tracer))

    async def _run_ticks(self, ticks: Sequence[Tick], prefix: str,
                         phase: Phase, tracer: Optional[Tracer]) -> float:
        """Send the ticks in lockstep; return their summed wall time
        (probes between ticks excluded)."""
        total = 0.0
        for slot, tick in enumerate(ticks):
            if slot % self.PROBE_EVERY == 0:
                phase.probe()
            started = time.perf_counter()
            await asyncio.gather(*(
                self._send(spec, expected, f"{prefix}.t{slot}.c{client}",
                           phase, tracer)
                for client, (spec, expected)
                in enumerate(zip(tick.specs, tick.expected))))
            total += time.perf_counter() - started
        return total

    async def _send(self, spec: Dict[str, Any], expected: str,
                    request: str, phase: Phase,
                    tracer: Optional[Tracer]) -> None:
        """One request through the stdio framing: decode the line,
        handle it, encode the response."""
        line = json.dumps(dict(spec, id=request))
        with _request(tracer, request):
            started = time.perf_counter()
            with _span(tracer, "serve.framing.decode"):
                payload = json.loads(line)
            response = await self.service.handle(payload)
            with _span(tracer, "serve.framing.encode"):
                json.dumps(response, sort_keys=True)
            seconds = time.perf_counter() - started
        op = Op(f"{spec['arch']}/{spec['method']}/s{spec['seed']}",
                f"{spec['arch']}/{spec['method']}", request, seconds,
                served_from=response.get("served_from"))
        op.problems = self._check(spec, expected, response)
        result = response.get("result") or {}
        record = result.get("record") or {}
        if op.ok and expected == "compiled":
            op.depth, op.cx = record.get("depth"), record.get("cx")
            op.cache = result.get("cache")
            if self.signatures:
                op.signature = "/".join(str(record.get(key)) for key in
                                        ("depth", "cx", "swaps", "ops"))
        phase.ops.append(op)

    def _check(self, spec: Dict[str, Any], expected: str,
               response: Dict[str, Any]) -> List[str]:
        """Why a response is wrong, if it is: not ok, served from another
        class than the schedule planned, a result document differing
        from the one first returned for the spec, or lint errors."""
        if not response.get("ok"):
            result = response.get("result") or {}
            return [f"{response.get('error_type') or result.get('error_type')}"
                    f": {response.get('error') or result.get('error')}"]
        problems = []
        if response.get("served_from") != expected:
            problems.append(f"served from {response.get('served_from')!r}, "
                            f"planned {expected!r}")
        document = json.dumps(response["result"], sort_keys=True)
        reference = self._reference.setdefault(_spec_key(spec), document)
        if document != reference:
            problems.append("result differs from the first response for "
                            "this spec")
        if spec["lint"]:
            counts = (response["result"].get("lint") or {}).get("counts")
            if counts is None:
                problems.append("lint requested but no lint report returned")
            elif counts.get("error", 0):
                problems.append(f"lint: {counts['error']} error "
                                "diagnostic(s)")
        return problems

    def quality_ops(self, phase: Phase) -> List[Op]:
        return [op for op in super().quality_ops(phase)
                if op.served_from == "compiled"]

    def close(self) -> None:
        pool = getattr(self, "pool", None)
        if pool is not None:
            pool.close()


def _spec_key(spec: Dict[str, Any]) -> str:
    return json.dumps(spec, sort_keys=True)


#: Workload name -> class, in report order.
WORKLOADS: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in (Sparse, Dense, Methods, ServeMix)}
