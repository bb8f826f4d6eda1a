"""The same --seed gives the same inputs; another seed changes them."""

from collections import Counter

import pytest

from bench.workloads import Dense, Methods, ServeMix, Sparse, instance_seed


def test_instance_seed_is_stable_and_keyed():
    assert instance_seed(11, "a", 0) == instance_seed(11, "a", 0)
    assert instance_seed(11, "a", 0) != instance_seed(12, "a", 0)
    assert instance_seed(11, "a", 0) != instance_seed(11, "a", 1)
    assert 0 <= instance_seed(11, "a", 0) < 2 ** 31


def _edges(workload, index):
    return [(cell, sorted(problem.edges))
            for cell, _, problem in workload.cells(index)]


def _prepared(cls, seed, tmp_path):
    workload = cls(seed, tmp_path)
    workload.prepare()
    return workload


@pytest.mark.parametrize("cls", [Sparse, Dense])
def test_compile_instances(cls, tmp_path):
    first = _prepared(cls, 11, tmp_path)
    again = _prepared(cls, 11, tmp_path)
    other = _prepared(cls, 12, tmp_path)
    assert _edges(first, 0) == _edges(again, 0)
    assert _edges(first, 3) == _edges(again, 3)
    assert _edges(first, 0) != _edges(other, 0)
    assert _edges(first, 0) != _edges(first, 1)


def test_method_jobs(tmp_path):
    first = _prepared(Methods, 11, tmp_path)
    again = _prepared(Methods, 11, tmp_path)
    other = _prepared(Methods, 12, tmp_path)
    assert first.jobs(0) == again.jobs(0)
    assert first.jobs(0) != other.jobs(0)
    assert first.jobs(0) != first.jobs(1)
    cycle = [job for index in range(3) for job in first.jobs(index)]
    # Each round runs every method once; three rounds cover every
    # (method, architecture) cell once, on one graph per architecture.
    for index in range(3):
        assert [job.method for job in first.jobs(index)] == \
            list(Methods.METHODS)
    assert Counter((job.method, job.arch) for job in cycle) == {
        (method, arch): 1 for method in Methods.METHODS
        for arch in Methods.ARCHS}
    assert len({(job.arch, job.seed) for job in cycle}) == len(Methods.ARCHS)
    assert {job.seed for job in first.jobs(3)}.isdisjoint(
        {job.seed for job in cycle})


def _plan(workload, rounds):
    return [[(tick.kind, tick.specs, tick.expected)
             for tick in workload.schedule(index)]
            for index in range(rounds)]


def test_serve_schedules(tmp_path):
    first = _prepared(ServeMix, 11, tmp_path)
    again = _prepared(ServeMix, 11, tmp_path)
    other = _prepared(ServeMix, 12, tmp_path)
    assert _plan(first, 3) == _plan(again, 3)
    assert _plan(first, 1) != _plan(other, 1)


def test_serve_schedule_shape(tmp_path):
    workload = _prepared(ServeMix, 11, tmp_path)
    completed = {repr(spec) for tick in workload._warm_ticks
                 for spec in tick.specs}
    cold = []
    for index in range(4):
        ticks = workload.schedule(index)
        assert Counter(tick.kind for tick in ticks) == {
            "cold+cold": 2, "cold+hit": 4, "dedupe": 1,
            "hit+hit": ServeMix.HIT_TICKS}
        for tick in ticks:
            for spec, served_from in zip(tick.specs, tick.expected):
                if served_from == "store":
                    assert repr(spec) in completed
                elif served_from == "compiled":
                    assert repr(spec) not in completed
                    cold.append(spec)
            completed.update(repr(spec) for spec, served_from
                             in zip(tick.specs, tick.expected)
                             if served_from == "compiled")
            if tick.kind == "dedupe":
                assert tick.specs[0] == tick.specs[1]
    # Two rounds compile every (arch, method) cell once, plus two dedupe
    # leaders; one cell in four asks for lint.
    cells = Counter((spec["arch"], spec["method"]) for spec in cold)
    assert len(cells) == len(ServeMix.ARCHS) * len(ServeMix.METHODS)
    assert len(cold) == 2 * 18
    assert sum(spec["lint"] for spec in cold) == 2 * 4
