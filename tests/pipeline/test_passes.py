"""No preset checks its own output.

A compiled result is checked after compilation, by
``CompiledResult.validate`` and :func:`repro.lint.lint_result`; no pass
inside the pipeline lints or validates.
"""

from repro.pipeline import build_pipeline


class TestBuildPipelineIntegration:
    def test_default_pipeline_has_neither(self):
        names = [p.name for p in build_pipeline("hybrid").passes]
        assert "lint" not in names
        assert "validate" not in names
