"""One registry for every compiler method — paper presets and baselines.

``compile_qaoa(method=...)``, the batch engine (:mod:`repro.batch`),
``analysis.run_sweep`` and the CLI all resolve method names here, so
adding a compiler is **one** :func:`register_method` call instead of
edits to five dispatch sites.

The module imports nothing from the rest of :mod:`repro` at import time:
each :class:`MethodSpec` carries a lazy runner that pulls in the preset
pipeline (or the baseline module) only when the method actually runs, so
``import repro.batch`` stays light and worker processes pay the import
cost once.

>>> from repro.pipeline.registry import get_method, available_methods
>>> available_methods()[:3]
('hybrid', 'greedy', 'ata')
>>> result = get_method("sabre").compile(coupling, problem)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import SpecificationError
from typing import Callable, Dict, FrozenSet, Tuple

#: Runner signature: ``(coupling, problem, noise, gamma, on_pass_end,
#: options) -> CompiledResult``.
MethodRunner = Callable[..., object]

#: Every knob the paper presets understand, with its default — the
#: *declared* schema the CK030 static check validates pass-level knob
#: reads against, and the defaults ``presets.build_context`` fills in.
#: Literals only, so this module stays import-light.  The two
#: ``None``-defaulted object knobs (``initial_mapping``, ``pattern``)
#: seed context *fields* rather than staying in ``knobs``.
PAPER_KNOBS: Dict[str, object] = {
    "initial_mapping": None,
    "placement": "quadratic",
    "alpha": 0.5,
    "max_predictions": 24,
    "matching": "greedy",
    "crosstalk_aware": True,
    "use_range_detection": True,
    "pattern": None,
    "greedy_cycle_cap": None,
    "unify_swaps": True,
    "layers": 1,
    "mixer": "rx",
    "gammas": None,
    "betas": None,
}

#: Knobs of the depth-optimal solver method (read by ``SolverPass``).
SOLVER_KNOB_NAMES: Tuple[str, ...] = (
    "max_nodes", "prune_unhelpful_swaps", "use_heuristic",
    "minimize_swaps", "strategy", "fallback")

#: Program-assembly knobs every method accepts (``_pop_assembly``
#: forwards them to ``AssemblyPass`` for baselines and the solver).
ASSEMBLY_KNOB_NAMES: Tuple[str, ...] = ("layers", "mixer", "gammas",
                                        "betas")


@dataclass(frozen=True)
class MethodSpec:
    """A registered compiler method."""

    name: str
    #: ``"paper"`` (hybrid/greedy/ata presets), ``"baseline"``, or
    #: ``"exact"`` (the depth-optimal solver — small instances only).
    kind: str
    runner: MethodRunner = field(repr=False)
    description: str = ""
    #: Knob names this method understands.  Baseline methods forward
    #: any further keyword arguments verbatim to the wrapped compiler
    #: function; for pipeline methods this is the complete schema.
    knobs: Tuple[str, ...] = ()

    def compile(self, coupling, problem, noise=None, gamma: float = 0.0,
                on_pass_end=None, **options):
        """Compile one instance with this method.

        ``options`` are method-specific knobs (``alpha``,
        ``max_predictions``, ... for paper methods; the baseline
        function's own keyword arguments otherwise).  ``on_pass_end`` is
        the per-pass observability callback of
        :class:`repro.pipeline.base.Pipeline`.
        """
        if problem.n_vertices > coupling.n_qubits:
            raise SpecificationError(
                f"problem has {problem.n_vertices} qubits but "
                f"{coupling.name} has only {coupling.n_qubits}")
        return self.runner(coupling, problem, noise, gamma, on_pass_end,
                           options)


_REGISTRY: Dict[str, MethodSpec] = {}
_ALIASES: Dict[str, str] = {}


def register_method(spec: MethodSpec,
                    aliases: Tuple[str, ...] = ()) -> MethodSpec:
    """Register a method (and optional alias names) for global lookup.

    Re-registering a name replaces the previous spec — deliberate, so
    downstream users can swap in an instrumented or experimental variant
    of a stock method.
    """
    _REGISTRY[spec.name] = spec
    for alias in aliases:
        _ALIASES[alias] = spec.name
    return spec


def get_method(name: str) -> MethodSpec:
    """Resolve a method name (or alias); ``ValueError`` names the valid
    set so CLI/batch error messages are actionable."""
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        raise SpecificationError(
            f"unknown compiler method {name!r}; registered methods: "
            f"{', '.join(available_methods())}") from None


def available_methods() -> Tuple[str, ...]:
    """Canonical method names, paper methods first (registration order)."""
    return tuple(_REGISTRY)


def method_table() -> Dict[str, str]:
    """``{name: description}`` for help text and docs."""
    return {name: spec.description for name, spec in _REGISTRY.items()}


def declared_knobs() -> FrozenSet[str]:
    """Union of every registered method's declared knob names.

    The CK030 static check validates each ``context.knob(...)`` read in
    a ``Pass`` subclass against this set, so a pass cannot grow a knob
    that no method exposes to callers.
    """
    names = set()
    for spec in _REGISTRY.values():
        names.update(spec.knobs)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Stock registrations.
# ---------------------------------------------------------------------------

def _paper_runner(method: str) -> MethodRunner:
    def run(coupling, problem, noise, gamma, on_pass_end, options):
        from .presets import build_context, build_pipeline

        context = build_context(method, coupling, problem, noise=noise,
                                gamma=gamma, options=options)
        return build_pipeline(method, on_pass_end=on_pass_end) \
            .compile(context)
    return run


def _pop_assembly(options: Dict) -> "object":
    """Split the program-assembly knobs out of a baseline's options.

    Baseline pipelines forward ``knobs`` verbatim to the wrapped
    compiler function, so the assembly knobs must ride on the pass
    itself rather than stay in the dict.
    """
    from .assembly import AssemblyPass

    return AssemblyPass(
        layers=options.pop("layers", None),
        mixer=options.pop("mixer", None),
        gammas=options.pop("gammas", None),
        betas=options.pop("betas", None))


def _baseline_runner(name: str,
                     loader: Callable[[], Callable]) -> MethodRunner:
    def run(coupling, problem, noise, gamma, on_pass_end, options):
        from .base import Pipeline
        from .baseline import BaselinePass
        from .context import CompilationContext

        options = dict(options)
        assembly = _pop_assembly(options)
        context = CompilationContext(
            coupling=coupling, problem=problem, method=name, noise=noise,
            gamma=gamma, knobs=options)
        pipeline = Pipeline(
            [BaselinePass(name, loader()), assembly],
            name=name, on_pass_end=on_pass_end)
        return pipeline.compile(context)
    return run


def _solver_runner() -> MethodRunner:
    def run(coupling, problem, noise, gamma, on_pass_end, options):
        from .base import Pipeline
        from .context import CompilationContext
        from .solver import SolverPass

        options = dict(options)
        assembly = _pop_assembly(options)
        context = CompilationContext(
            coupling=coupling, problem=problem, method="optimal",
            noise=noise, gamma=gamma, knobs=options)
        pipeline = Pipeline([SolverPass(), assembly], name="optimal",
                            on_pass_end=on_pass_end)
        return pipeline.compile(context)
    return run


def _register_stock_methods() -> None:
    for method, description in (
        ("hybrid", "greedy + ATA-suffix candidates + cost-F selector "
                   "(the paper's compiler, Fig 18)"),
        ("greedy", "pure greedy processing (Fig 17's 'greedy' bars)"),
        ("ata", "rigid structured-pattern following ('solver' bars)"),
    ):
        register_method(MethodSpec(method, "paper",
                                   _paper_runner(method), description,
                                   knobs=tuple(PAPER_KNOBS)))

    def baseline(loader_name: str) -> Callable[[], Callable]:
        def load() -> Callable:
            from .. import baselines
            return getattr(baselines, loader_name)
        return load

    for name, loader_name, description, aliases in (
        ("sabre", "compile_sabre",
         "SABRE-style heuristic routing of the fixed gate order", ()),
        ("qaim", "compile_qaim",
         "QAIM-style cycle-by-cycle SWAP chasing", ()),
        ("2qan", "compile_twoqan",
         "2QAN-style quadratic placement search + unified routing",
         ("twoqan",)),
        ("paulihedral", "compile_paulihedral",
         "Paulihedral-style layer-ordered block scheduling", ()),
        ("olsq", "compile_olsq",
         "OLSQ-style exact depth-minimal search with beam fallback", ()),
        ("satmap", "compile_satmap",
         "SATMAP-style gate-count-minimising multi-restart search", ()),
    ):
        register_method(
            MethodSpec(name, "baseline",
                       _baseline_runner(name, baseline(loader_name)),
                       description, knobs=ASSEMBLY_KNOB_NAMES),
            aliases=aliases)

    register_method(
        MethodSpec("optimal", "exact", _solver_runner(),
                   "depth-optimal A*/IDA* search "
                   "(Section 4; small instances only)",
                   knobs=SOLVER_KNOB_NAMES + ASSEMBLY_KNOB_NAMES),
        aliases=("exact",))


_register_stock_methods()
