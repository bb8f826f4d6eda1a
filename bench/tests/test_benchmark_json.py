"""BENCHMARK.json describes exactly what run.py emits."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench.layers import PER_LAYER_METRICS, TracedPhase, per_layer_metrics
from bench.run import END_TO_END_METRICS, measure, print_report
from bench.trace import Tracer
from bench.workloads import WORKLOADS, Op, Workload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_file_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["command"][:2] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in (
            "lower", "higher")
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_workload_names_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}


def test_metric_names_and_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        END_TO_END_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        PER_LAYER_METRICS


class _Fake(Workload):
    name = "fake"

    def run_round(self, index, phase, tracer):
        phase.ops.append(Op("fake", "fake", f"r{index}", 0.002, depth=3,
                            cx=4))
        return 0.002


def test_measure_emits_the_end_to_end_metrics_but_set_up_and_memory(
        tmp_path, capsys):
    report = measure(_Fake(1, tmp_path), seconds=0.001)
    assert set(report["metrics"]) | {"setup_s", "peak_rss_mb"} == \
        set(END_TO_END_METRICS)
    assert set(report["samples"]) == set(report["metrics"])
    report["metrics"].update(setup_s=1.0, peak_rss_mb=2.0)
    report["samples"].update(setup_s=3, peak_rss_mb=1)
    capsys.readouterr()
    print_report(report, END_TO_END_METRICS)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert list(last) == ["correct", "attempted", "failed", "metrics"]
    assert last["correct"] is True and last["attempted"] >= 1
    assert list(last["metrics"]) == list(END_TO_END_METRICS)
    assert all(set(value) == {"value", "unit"}
               for value in last["metrics"].values())


def test_per_layer_metrics_emits_exactly_the_declared_set():
    phase = TracedPhase(rounds=1, op_seconds=[1.0], traced_scaled=1.0,
                        untraced_scaled=1.0, slowdown=1.0, wall_s=1.0,
                        cache={})
    assert list(per_layer_metrics(Tracer(), phase)) == \
        list(PER_LAYER_METRICS)


def test_it_refuses_to_run_without_the_repository(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sparse-256",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60, env={"PATH": "/usr/bin:/bin"})
    assert out.returncode != 0
    assert "{" not in out.stdout
    assert "src" in out.stderr


@pytest.mark.parametrize("argv", [["--workload", "nope"],
                                  ["--workload", "sparse-256",
                                   "--trace", "2"]])
def test_bad_arguments_exit_non_zero(argv):
    out = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                          *argv], capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 2
