"""LintPass and ValidatePass behaviour (ISSUE 3: pipeline integration)."""

import pytest

from repro._telemetry import clear_events, event_info
from repro.arch import line
from repro.exceptions import LintError, ValidationError
from repro.ir.circuit import Circuit
from repro.ir.gates import Op
from repro.ir.mapping import Mapping
from repro.pipeline import (CompilationContext, LintPass, ValidatePass,
                            build_pipeline)
from repro.problems import ProblemGraph


def make_context(ops, problem_edges, n=4, **knobs):
    """A post-compilation context with an explicit circuit."""
    context = CompilationContext(
        coupling=line(n), problem=ProblemGraph(n, problem_edges),
        knobs=knobs)
    context.mapping = Mapping.trivial(n)
    context.circuit = Circuit(n, ops)
    return context


GOOD = [Op.cphase(0, 1), Op.cphase(1, 2)]
GOOD_EDGES = [(0, 1), (1, 2)]
REPEATED = [Op.cphase(0, 1), Op.cphase(0, 1)]


class TestLintPass:
    def setup_method(self):
        clear_events()

    def test_clean_circuit_records_extras_and_events(self):
        context = make_context(GOOD, GOOD_EDGES)
        assert LintPass().run(context) is True
        payload = context.extras["lint"]
        assert payload["ok"] is True
        assert payload["counts"]["error"] == 0
        events = event_info()
        assert events["lint.runs"] == 1
        assert events["lint.errors"] == 0

    def test_findings_recorded_without_raising(self):
        context = make_context([Op.cphase(0, 1)], [(0, 1), (2, 3)])
        assert LintPass().run(context) is True
        payload = context.extras["lint"]
        assert payload["ok"] is False
        assert payload["by_rule"] == {"RL013": 1}
        assert event_info()["lint.errors"] == 1

    def test_fail_on_error_raises_after_recording(self):
        context = make_context([Op.cphase(0, 1)], [(0, 1), (2, 3)])
        with pytest.raises(LintError, match="RL013"):
            LintPass(fail_on_error=True).run(context)
        assert context.extras["lint"]["by_rule"] == {"RL013": 1}

    def test_lint_error_is_a_validation_error(self):
        # Existing except ValidationError handlers keep working.
        assert issubclass(LintError, ValidationError)

    def test_allow_repeats_knob_fallback(self):
        flagged = make_context(REPEATED, [(0, 1)])
        LintPass().run(flagged)
        assert flagged.extras["lint"]["by_rule"] == {"RL012": 1}

        allowed = make_context(REPEATED, [(0, 1)], allow_repeats=True)
        LintPass().run(allowed)
        assert allowed.extras["lint"]["ok"] is True

    def test_constructor_overrides_knob(self):
        context = make_context(REPEATED, [(0, 1)], allow_repeats=True)
        LintPass(allow_repeats=False).run(context)
        assert context.extras["lint"]["by_rule"] == {"RL012": 1}

    def test_select_and_ignore_scope_the_run(self):
        context = make_context([Op.cphase(0, 1)], [(0, 1), (2, 3)])
        LintPass(ignore=["RL013"]).run(context)
        assert context.extras["lint"]["ok"] is True


class TestValidatePass:
    def test_records_validate_extras(self):
        context = make_context(
            [Op.swap(1, 2), Op.cphase(0, 1), Op.cphase(1, 2)],
            [(0, 2), (1, 2)])
        assert ValidatePass().run(context) is True
        payload = context.extras["validate"]
        assert payload["n_edges"] == 2
        assert payload["n_cphase"] == 2
        assert payload["n_swap"] == 1
        assert payload["allow_repeats"] is False
        # swap(1, 2) moved logical 1 to physical 2 and logical 2 to 1.
        assert payload["final_log_to_phys"] == [0, 2, 1, 3]

    def test_repeats_rejected_by_default(self):
        context = make_context(REPEATED, [(0, 1)])
        with pytest.raises(ValidationError, match="repeats"):
            ValidatePass().run(context)

    def test_allow_repeats_constructor(self):
        context = make_context(REPEATED, [(0, 1)])
        assert ValidatePass(allow_repeats=True).run(context) is True
        assert context.extras["validate"]["allow_repeats"] is True

    def test_allow_repeats_knob_fallback(self):
        context = make_context(REPEATED, [(0, 1)], allow_repeats=True)
        assert ValidatePass().run(context) is True


class TestBuildPipelineIntegration:
    def test_lint_and_validate_appended_in_order(self):
        pipeline = build_pipeline("hybrid", lint=True, validate=True)
        names = [p.name for p in pipeline.passes]
        # lint runs first so diagnostics survive a validation failure
        assert names[-2:] == ["lint", "validate"]

    def test_default_pipeline_has_neither(self):
        names = [p.name for p in build_pipeline("hybrid").passes]
        assert "lint" not in names
        assert "validate" not in names
