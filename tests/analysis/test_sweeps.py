"""Tests for the programmatic sweep API."""

import pytest

from repro.analysis import run_sweep


COMPILERS = {"greedy": "greedy", "ata": "ata"}


class TestRunSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_sweep(["line", "grid"], [("rand", 8, 0.4)],
                         COMPILERS, seeds=(0, 1))

    def test_point_count(self, sweep):
        assert len(sweep.points) == 2 * 1 * 2  # arch x workload x compiler

    def test_lookup(self, sweep):
        point = sweep.get("line", "rand-8-0.4", "greedy")
        assert point.depth > 0
        assert point.n_seeds == 2

    def test_lookup_missing(self, sweep):
        with pytest.raises(KeyError):
            sweep.get("line", "rand-8-0.4", "magic")

    def test_compilers_order(self, sweep):
        assert [p.compiler for p in sweep.points] == ["greedy", "ata"] * 2

    def test_metrics_are_averages(self, sweep):
        singles = [run_sweep(["line"], [("rand", 8, 0.4)], COMPILERS,
                             seeds=(seed,)).get("line", "rand-8-0.4", "ata")
                   for seed in (0, 1)]
        assert [point.n_seeds for point in singles] == [1, 1]
        point = sweep.get("line", "rand-8-0.4", "ata")
        assert point.depth == (singles[0].depth + singles[1].depth) / 2
        assert point.cx == (singles[0].cx + singles[1].cx) / 2


class TestBatchedSweep:
    """Every sweep runs through the batch engine, serially or pooled."""

    def test_process_pool_matches_serial(self):
        args = (["line", "grid"], [("rand", 8, 0.4), ("reg", 8, 0.5)],
                COMPILERS)
        serial = run_sweep(*args, seeds=(0, 1))
        pooled = run_sweep(*args, seeds=(0, 1), workers=2)

        def cells(sweep):
            return [(p.arch, p.workload, p.compiler, p.depth, p.cx,
                     p.swaps, p.n_seeds) for p in sweep.points]

        assert cells(pooled) == cells(serial)
        assert len(serial.points) == 8

    def test_failed_cell_raises_with_job_name(self):
        with pytest.raises(RuntimeError, match="mumbai"):
            run_sweep(["mumbai"], [("rand", 100, 0.3)],
                      {"greedy": "greedy"})
