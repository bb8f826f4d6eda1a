"""Tests for the readout-error channel."""

import numpy as np
import pytest

from repro.arch import NoiseModel, line
from repro.compiler import compile_qaoa
from repro.ir.program import layer_permutation
from repro.problems import QaoaProblem, random_problem_graph
from repro.sim import QaoaRunner
from repro.sim.noise import apply_readout_errors


class TestReadoutChannel:
    def test_zero_rate_is_identity(self):
        p = np.array([0.7, 0.1, 0.1, 0.1])
        out = apply_readout_errors(p, {0: 0.0, 1: 0.0})
        np.testing.assert_allclose(out, p)

    def test_full_flip_swaps_outcomes(self):
        # Qubit 0 (most significant bit) fully flips: |00> <-> |10> etc.
        p = np.array([1.0, 0.0, 0.0, 0.0])
        out = apply_readout_errors(p, {0: 1.0})
        np.testing.assert_allclose(out, [0, 0, 1, 0])

    def test_half_rate_mixes(self):
        p = np.array([1.0, 0.0])
        out = apply_readout_errors(p, {0: 0.5})
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_normalisation_preserved(self):
        rng = np.random.default_rng(0)
        p = rng.random(16)
        p /= p.sum()
        out = apply_readout_errors(p, {0: 0.1, 2: 0.03, 3: 0.2})
        assert out.sum() == pytest.approx(1.0)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            apply_readout_errors(np.array([1.0, 0.0]), {0: 1.5})

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            apply_readout_errors(np.array([1.0, 0.0]), {3: 0.1})

    def test_non_power_of_two(self):
        with pytest.raises(ValueError):
            apply_readout_errors(np.array([0.5, 0.3, 0.2]), {0: 0.1})


class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def parts(self):
        problem = QaoaProblem(random_problem_graph(6, 0.4, seed=2))
        coupling = line(6)
        noise = NoiseModel(coupling, seed=5)
        compiled = compile_qaoa(coupling, problem.graph, noise=noise)
        return problem, noise, compiled

    def test_final_mapping_helper(self, parts):
        problem, _, compiled = parts
        final = layer_permutation(compiled.circuit, compiled.initial_mapping)
        report = compiled.validate(line(6), problem.graph)
        assert final.log_to_phys == report.final_mapping.log_to_phys

    def test_readout_reduces_signal(self, parts):
        problem, noise, compiled = parts
        clean = QaoaRunner(problem, compiled, noise=noise, seed=1)
        noisy = QaoaRunner(problem, compiled, noise=noise, seed=1,
                           include_readout=True)
        assert noisy.readout_rates
        p_clean = clean.noisy_probabilities(0.5, 0.4)
        p_noisy = noisy.noisy_probabilities(0.5, 0.4)
        ideal = clean.ideal_probabilities(0.5, 0.4)
        from repro.sim import tvd
        assert tvd(p_noisy, ideal) > tvd(p_clean, ideal)

    def test_readout_requires_noise_model(self, parts):
        problem, _, compiled = parts
        runner = QaoaRunner(problem, compiled, include_readout=True)
        assert runner.readout_rates == {}
