#!/usr/bin/env python3
"""Run one benchmark workload and report its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME [--seed N] [--seconds S]
                         [--trace 0|1] [--spans PATH]

``--trace 0`` (the default) measures the end-to-end metrics with tracing
off.  Set-up runs in a fresh process :data:`SETUP_SAMPLES` times, one
after another; the last of those processes goes on to measure whole
rounds for ``--seconds`` seconds.  ``setup_s`` is the median set-up.
Every timing reported, set-up included, is wall time scaled to nominal
machine speed by the probe of :mod:`bench.speed`; the raw wall times are
printed as ``detail`` lines.

``--trace 1`` runs rounds untraced for half of ``--seconds``, then
replays the same rounds with every call site of :mod:`bench.layers`
wrapped, and reports the per-layer metrics.  ``--spans PATH`` writes the
recorded spans there as JSON.

Every output is checked (see :mod:`bench.workloads`).  The report lists
each metric with its unit and sample count; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without the repository's ``src/repro`` the
benchmark exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not __package__:
    # Run as a script, sys.path[0] is bench/ itself, whose trace.py would
    # shadow the standard library's trace module.
    sys.path[:1] = [str(ROOT), str(SRC)]

from bench import speed  # noqa: E402
from bench.stats import (best_baseline_ratio, geomean,  # noqa: E402
                         median, percentile)
from bench.workloads import (WORKLOADS, Methods, Op, Phase,  # noqa: E402
                             ServeMix, Workload, round_indices)

#: End-to-end metric name -> unit, in report order.
END_TO_END_METRICS: Dict[str, str] = {
    "setup_s": "s",
    "round_s": "s",
    "latency_ms": "ms",
    "depth_geomean": "layers",
    "cx_geomean": "gates",
    "peak_rss_mb": "MB",
}

#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Seconds the whole invocation may take before its children are killed.
DEADLINE_S = 170.0

DEFAULT_SEED = 11
DEFAULT_SECONDS = 15.0

#: Speed probes run on each side of a set-up.
SETUP_PROBES = 4

#: Each invocation keeps its scratch files (result stores) in a fresh
#: directory here, inside the checkout, and removes it at the end.
SCRATCH = ROOT / ".bench_tmp"

READY = "@@ready"
PROBES = "@@probes "
RESULT = "@@result "


class ChildFailed(RuntimeError):
    """A measuring or set-up process did not finish cleanly."""


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and report its metrics.")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write the spans here as JSON")
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} is missing; run the benchmark from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        if args.trace:
            _, report = run_child("measure", args, deadline, scratch)
        else:
            setups = [run_child("setup", args, deadline, scratch)[0]
                      for _ in range(SETUP_SAMPLES - 1)]
            ready, report = run_child("measure", args, deadline, scratch)
            setups.append(ready)
            print("detail setup scaled s " + " ".join(
                f"{seconds:.3f}" for seconds in setups))
            report["metrics"]["setup_s"] = median(setups)
            report["samples"]["setup_s"] = len(setups)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another invocation is using it
    print_report(report, report["units"] if args.trace
                 else END_TO_END_METRICS)
    return 0


def run_child(kind: str, args: argparse.Namespace, deadline: float,
              scratch: str) -> Tuple[float, Dict[str, Any]]:
    """Run one set-up or measuring process with ``scratch`` as its
    temporary directory; return its set-up time (spawn to ready, as seen
    from here, scaled by the speed probes run here just before the spawn
    and in the child just after it is ready) and its report."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child", kind, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.spans:
        command += ["--spans", args.spans]
    env = dict(os.environ, TMPDIR=scratch)
    probes = [speed.probe() for _ in range(SETUP_PROBES)]
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               env=env, start_new_session=True)
    # Killing the session also stops the child's pool workers.
    timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                            _kill_session, (process,))
    timer.start()
    ready: Optional[float] = None
    report: Optional[Dict[str, Any]] = None
    try:
        assert process.stdout is not None
        for line in process.stdout:
            if line.startswith(READY) and ready is None:
                ready = time.perf_counter() - started
            elif line.startswith(PROBES):
                probes += json.loads(line[len(PROBES):])
            elif line.startswith(RESULT):
                report = json.loads(line[len(RESULT):])
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
        code = process.wait()
    finally:
        timer.cancel()
        if process.poll() is None:
            _kill_session(process)
            process.wait()
    if code != 0:
        raise ChildFailed(f"{kind} process for {args.workload} exited with "
                          f"status {code}")
    if ready is None or (kind == "measure" and report is None):
        raise ChildFailed(f"{kind} process for {args.workload} ended "
                          "without reporting")
    return ready / speed.slowdown(probes), report or {}


def _kill_session(process: "subprocess.Popen[str]") -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def child_main(args: argparse.Namespace) -> int:
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.child}-"))
    workload = WORKLOADS[args.workload](args.seed, scratch)
    try:
        workload.setup()
        print(READY, flush=True)
        print(PROBES + json.dumps([speed.probe()
                                   for _ in range(SETUP_PROBES)]),
              flush=True)
        if args.child == "setup":
            return 0
        if args.trace:
            report = measure_traced(workload, args.seconds, args.spans)
        else:
            report = measure(workload, args.seconds)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    if not args.trace:
        report["metrics"]["peak_rss_mb"] = peak_rss_mb()
        report["samples"]["peak_rss_mb"] = 1
    print(RESULT + json.dumps(report), flush=True)
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it has waited for
    (the serve pool's workers), in MB."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def _by_cell(ops: Sequence[Op], key: Any) -> Dict[str, List[Op]]:
    cells: Dict[str, List[Op]] = {}
    for op in ops:
        cells.setdefault(key(op), []).append(op)
    return cells


def measure(workload: Workload, seconds: float) -> Dict[str, Any]:
    """The end-to-end metrics of whole rounds run for ``seconds``.

    ``round_s`` is the median scaled round time.  ``latency_ms`` is the
    median over rounds of the geomean of the round's scaled operation
    latencies: a median over single operations that differ tenfold in
    cost lands in the gap between two of them and jumps from run to run.
    Output sizes are geomeans over cells of each cell's geomean over the
    first ``QUALITY_ROUNDS`` rounds, so every cell weighs the same and a
    seed always averages the same outputs.
    """
    phase = Phase()
    for index in round_indices(workload, seconds, workload.QUALITY_ROUNDS):
        phase.run_round(workload, index)
    rounds = _by_cell(phase.ops, lambda op: str(op.round))
    quality = _by_cell(workload.quality_ops(phase), lambda op: op.cell)
    print_details(workload, phase)
    return {
        "metrics": {
            "round_s": median(phase.scaled_rounds),
            "latency_ms": 1000.0 * median(
                [geomean(op.scaled for op in ops)
                 for ops in rounds.values()]),
            "depth_geomean": geomean(geomean(op.depth for op in ops)
                                     for ops in quality.values()),
            "cx_geomean": geomean(geomean(op.cx for op in ops)
                                  for ops in quality.values()),
        },
        "samples": {"round_s": len(phase.round_seconds),
                    "latency_ms": len(phase.ops),
                    "depth_geomean": sum(map(len, quality.values())),
                    "cx_geomean": sum(map(len, quality.values()))},
        **outcome(phase.ops),
    }


def measure_traced(workload: Workload, seconds: float,
                   spans_path: Optional[str]) -> Dict[str, Any]:
    """Each round twice, back to back, once untraced and once traced,
    the order alternating from round to round.  Pairing the rounds keeps
    a change in machine speed out of the overhead ratio; alternating
    keeps out whatever the second run of the same inputs gains."""
    from repro._telemetry import cache_delta, cache_info

    from bench.layers import (PER_LAYER_METRICS, SITES, TracedPhase,
                              per_layer_metrics)
    from bench.trace import Instrumentation, Tracer

    workload.signatures = True
    untraced, traced, tracer = Phase(), Phase(), Tracer()
    cache: Dict[str, Dict[str, int]] = {}

    def run_traced(index: int) -> None:
        workload.use_lane("traced")
        before = cache_info()
        with Instrumentation(tracer, SITES):
            traced.run_round(workload, index, tracer)
        cache.update(_summed_caches([cache,
                                     cache_delta(before, cache_info())]))

    for index in round_indices(workload, seconds):
        if index % 2:
            run_traced(index)
        workload.use_lane("untraced")
        untraced.run_round(workload, index)
        if not index % 2:
            run_traced(index)
    reference = {op.request: op.signature for op in untraced.ops}
    for op in traced.ops:
        if op.signature != reference.get(op.request):
            op.problems.append("traced output differs from the untraced "
                               "run of the same round")
    serve = isinstance(workload, ServeMix)
    if serve:
        cache = _summed_caches(op.cache for op in traced.ops)
    phase = TracedPhase(
        rounds=len(traced.round_seconds),
        op_seconds=[op.seconds for op in traced.ops],
        traced_scaled=sum(op.scaled for op in traced.ops),
        untraced_scaled=sum(op.scaled for op in untraced.ops),
        slowdown=median(traced.slowdowns),
        wall_s=sum(traced.round_seconds), cache=cache,
        requests=([(op.request, op.served_from, op.seconds)
                   for op in traced.ops] if serve else ()),
        failed_requests=(sum(not op.ok for op in traced.ops)
                         if serve else 0),
        workers=ServeMix.WORKERS if serve else 0)
    metrics = per_layer_metrics(tracer, phase)
    if spans_path:
        tracer.dump(spans_path)
    print_trace_details(tracer, metrics, phase)
    return {"metrics": metrics, "units": PER_LAYER_METRICS,
            "samples": {name: phase.rounds for name in metrics},
            **outcome(untraced.ops + traced.ops)}


def _summed_caches(caches: Any) -> Dict[str, Dict[str, int]]:
    totals: Dict[str, Dict[str, int]] = {}
    for cache in caches:
        for name, counts in (cache or {}).items():
            bucket = totals.setdefault(name, {"hits": 0, "misses": 0})
            bucket["hits"] += counts.get("hits", 0)
            bucket["misses"] += counts.get("misses", 0)
    return totals


def outcome(ops: Sequence[Op]) -> Dict[str, Any]:
    failures = [f"{op.request} {op.label}: {'; '.join(op.problems)}"
                for op in ops if not op.ok]
    for line in failures[:10]:
        print(f"FAILED {line}")
    return {"attempted": len(ops), "failed": len(failures)}


def print_details(workload: Workload, phase: Phase) -> None:
    """Per-instance rows, per-cell summaries and raw round times, for
    reading; not gated."""
    print("detail rounds wall s " + " ".join(
        f"{seconds:.3f}" for seconds in phase.round_seconds)
        + " | probe slowdown " + " ".join(
        f"{slowdown:.3f}" for slowdown in phase.slowdowns))
    if isinstance(workload, ServeMix):
        for served_from, ops in _by_cell(
                phase.ops, lambda op: str(op.served_from)).items():
            ms = [op.seconds * 1000.0 for op in ops]
            tails = ", ".join(f"p{q} {value:.3f}" for q in (90, 99)
                              for value in [percentile(ms, q)]
                              if value is not None)
            print(f"detail {served_from:9s} n={len(ms):5d} wall "
                  f"p50 {median(ms):.3f} ms" + (f", {tails} ms"
                                                if tails else ""))
        return
    for op in phase.ops:
        print(f"detail {op.label:48s} {op.seconds * 1000.0:9.1f} ms "
              f"depth {op.depth} cx {op.cx}"
              + (f" [{op.selected}]" if op.selected else ""))
    if isinstance(workload, Methods):
        rows = [row for row in phase.rows.values()
                if set(row["depth"]) == set(workload.METHODS)]
        for key in ("depth", "cx"):
            if rows:
                ratio = best_baseline_ratio([row[key] for row in rows],
                                            "hybrid", workload.BASELINES)
                print(f"detail {key}_vs_best_baseline {ratio:.4f} "
                      f"(hybrid / best of {', '.join(workload.BASELINES)}, "
                      f"geomean over {len(rows)} rows)")
    else:
        wins = [op for op in phase.ops if op.selected not in (None, "greedy")]
        print(f"detail ata_suffix_wins {len(wins)}/{len(phase.ops)}")


def print_trace_details(tracer: Any, metrics: Dict[str, float],
                        phase: Any) -> None:
    """Inclusive pass time, coverage, overhead, and per-call self time of
    every traced span, for reading."""
    from bench.layers import PASSES

    totals = tracer.totals()
    passes = sorted(((totals.get(f"pipeline.{name}", (0, 0.0, 0.0))[1]
                      / phase.rounds / phase.slowdown, name)
                     for name in PASSES), reverse=True)
    print("trace pass time per round, children included: "
          + ", ".join(f"{name} {seconds:.4f} s"
                      for seconds, name in passes))
    print(f"trace pass coverage {metrics['trace.pass_coverage']:.4f}, "
          f"overhead ratio {metrics['trace.overhead_ratio']:.4f}, "
          f"{phase.rounds} round(s)")
    per_call: Dict[str, List[float]] = {}
    for span, own in zip(tracer.spans, tracer.self_times()):
        per_call.setdefault(span.name, []).append(own * 1000.0)
    for name, ms in sorted(per_call.items()):
        print(f"trace span {name:36s} calls {len(ms):6d} "
              f"self p50 {median(ms):10.4f} ms  total {sum(ms):10.1f} ms")


def print_report(report: Dict[str, Any], units: Dict[str, str]) -> None:
    metrics, samples = report["metrics"], report["samples"]
    for name, unit in units.items():
        print(f"metric {name:36s} {metrics[name]:14.6f} {unit:9s} "
              f"n={samples[name]}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
