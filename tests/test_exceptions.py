"""Exception-surface tests: every failure mode raises the right type."""

import pytest

from repro.exceptions import (ArchitectureError, CompilationError,
                              JobTimeoutError, ReproError,
                              ResourceExhaustedError, SolverError,
                              SolverExhaustedError, TransientError,
                              ValidationError)


class TestHierarchy:
    @pytest.mark.parametrize("exc", [ValidationError, ArchitectureError,
                                     CompilationError, SolverError,
                                     TransientError,
                                     ResourceExhaustedError])
    def test_subclasses_of_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise ValidationError("boom")

    def test_transient_permanent_axis(self):
        # Timeouts are transient (the machine was busy, not the spec
        # wrong); validation/compilation failures are permanent.
        assert issubclass(JobTimeoutError, TransientError)
        assert not issubclass(ValidationError, TransientError)
        assert not issubclass(CompilationError, TransientError)

    def test_solver_exhaustion_is_both_solver_and_resource(self):
        # Catch sites keyed on SolverError (CLI) and the degradation
        # path keyed on ResourceExhaustedError both see budget blowups.
        assert issubclass(SolverExhaustedError, SolverError)
        assert issubclass(SolverExhaustedError, ResourceExhaustedError)


class TestRaisedFromRealPaths:
    def test_architecture_error_from_bad_edge(self):
        from repro.arch.coupling import CouplingGraph
        with pytest.raises(ArchitectureError):
            CouplingGraph(2, [(0, 5)])

    def test_architecture_error_from_disconnection(self):
        from repro.arch.coupling import CouplingGraph
        g = CouplingGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(ArchitectureError):
            g.distance(0, 3)

    def test_validation_error_from_validator(self):
        from repro.ir import Circuit, Mapping, Op, validate_compiled
        c = Circuit(2, [Op.cphase(0, 1)])
        with pytest.raises(ValidationError):
            validate_compiled(c, [(0, 1)], Mapping.trivial(2), [])

    def test_solver_error_from_budget(self):
        from repro.arch import line
        from repro.problems import clique
        from repro.solver import solve_depth_optimal
        with pytest.raises(SolverError):
            solve_depth_optimal(line(5), sorted(clique(5).edges),
                                max_nodes=2)

    def test_budget_blowup_is_specifically_exhaustion(self):
        from repro.arch import line
        from repro.problems import clique
        from repro.solver import solve_depth_optimal
        with pytest.raises(SolverExhaustedError):
            solve_depth_optimal(line(5), sorted(clique(5).edges),
                                max_nodes=2)
