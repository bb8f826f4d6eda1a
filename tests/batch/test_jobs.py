"""Tests for the picklable batch job specifications."""

import pickle

import pytest

from repro.batch import BatchJob, JobResult, resolve_compiler


class TestBatchJobSpec:
    def test_picklable_round_trip(self):
        job = BatchJob(arch="grid", n_qubits=16, density=0.4, seed=3,
                       method="ata", options=(("alpha", 0.7),))
        clone = pickle.loads(pickle.dumps(job))
        assert clone == job

    def test_name_encodes_instance(self):
        job = BatchJob(arch="heavyhex", n_qubits=20, workload="rand",
                       density=0.3, seed=2, method="hybrid")
        assert job.name == "heavyhex/rand-20-0.3-s2/hybrid"

    def test_clique_name_omits_density(self):
        job = BatchJob(arch="grid", n_qubits=9, workload="clique")
        assert "clique-9" in job.name

    def test_label_overrides_name(self):
        assert BatchJob(arch="grid", n_qubits=9, label="mine").name == "mine"

    def test_with_options_merges(self):
        job = BatchJob(arch="grid", n_qubits=9, options=(("alpha", 0.5),))
        updated = job.with_options(max_predictions=4)
        assert dict(updated.options) == {"alpha": 0.5, "max_predictions": 4}

    def test_build_materializes_instance(self):
        coupling, problem, noise = BatchJob(
            arch="grid", n_qubits=9, density=0.4).build()
        assert coupling.n_qubits >= 9
        assert problem.n_vertices == 9
        assert noise is None

    def test_noise_flag_builds_model(self):
        _, _, noise = BatchJob(arch="grid", n_qubits=9,
                               use_noise=True).build()
        assert noise is not None


class TestBatchJobValidation:
    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError, match="n_qubits"):
            BatchJob(arch="grid", n_qubits=0)

    def test_density_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="density"):
            BatchJob(arch="grid", n_qubits=9, density=1.5)
        with pytest.raises(ValueError, match="density"):
            BatchJob(arch="grid", n_qubits=9, density=-0.1)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            BatchJob(arch="grid", n_qubits=9, workload="tree")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            BatchJob(arch="grid", n_qubits=9, method="magic")


class TestResolveCompiler:
    def test_framework_methods_resolve(self):
        for method in ("hybrid", "greedy", "ata"):
            assert callable(resolve_compiler(method))

    def test_baselines_resolve(self):
        for method in ("qaim", "paulihedral", "2qan", "sabre"):
            assert callable(resolve_compiler(method))

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="magic"):
            resolve_compiler("magic")

    def test_resolved_compiler_runs(self):
        coupling, problem, _ = BatchJob(arch="line", n_qubits=6).build()
        result = resolve_compiler("greedy")(coupling, problem)
        result.validate(coupling, problem)


class TestJobResult:
    def test_failure_summary_names_error(self):
        result = JobResult(job=BatchJob(arch="grid", n_qubits=9), ok=False,
                           error="boom", error_type="RuntimeError")
        assert "FAILED" in result.summary()
        assert "RuntimeError" in result.summary()

    def test_telemetry_shortcut(self):
        result = JobResult(job=BatchJob(arch="grid", n_qubits=9), ok=True,
                           record={"depth": 3, "extra": {"passes": []}})
        assert result.metrics == {"depth": 3}
        assert result.telemetry == {"passes": []}
