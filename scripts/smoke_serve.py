#!/usr/bin/env python
"""CI smoke: the serve daemon end to end (ISSUE 9).

Starts a real ``python -m repro serve --stdio`` subprocess with a fresh
result store and drives a mixed batch over it: distinct specs, repeats
(which must be served from the store without a worker dispatch), and an
identical back-to-back pair (which must dedupe in flight).  Asserts a
positive store hit-rate, byte-identical repeat payloads, no corrupt
store reads, and a clean shutdown.

Usage::

    python scripts/smoke_serve.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

JOBS = [
    {"arch": "grid", "qubits": 16, "method": "greedy", "seed": 0},
    {"arch": "heavyhex", "qubits": 16, "method": "hybrid", "seed": 1},
    {"arch": "line", "qubits": 8, "method": "ata", "workload": "reg"},
]


class Daemon:
    def __init__(self, store: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--stdio",
             "--store", str(store), "--executor", "process",
             "--workers", "2"],
            cwd=REPO_ROOT, env={"PYTHONPATH": str(REPO_ROOT / "src")},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.next_id = 0

    def send(self, request: dict) -> int:
        self.next_id += 1
        doc = {"id": self.next_id, **request}
        assert self.proc.stdin is not None
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()
        return self.next_id

    def read(self) -> dict:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("daemon closed stdout unexpectedly")
        return json.loads(line)

    def roundtrip(self, request: dict) -> dict:
        rid = self.send(request)
        response = self.read()
        assert response["id"] == rid, (rid, response)
        return response


def main() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        daemon = Daemon(Path(tmp) / "store")

        # Cold batch: every distinct spec compiles on the warm pool.
        cold = [daemon.roundtrip(job) for job in JOBS]
        for response in cold:
            print(f"cold  {response['job']}: "
                  f"served_from={response['served_from']} "
                  f"serve_ms={response['serve_ms']}")
            if not response["ok"] or response["served_from"] != "compiled":
                failures.append(f"cold request not compiled: {response}")

        # Repeats: byte-identical payloads straight from the store.
        for job, was in zip(JOBS[:2], cold):
            again = daemon.roundtrip(job)
            print(f"warm  {again['job']}: "
                  f"served_from={again['served_from']} "
                  f"serve_ms={again['serve_ms']}")
            if again["served_from"] != "store":
                failures.append(f"repeat not served from store: {again}")
            if json.dumps(again["result"], sort_keys=True) \
                    != json.dumps(was["result"], sort_keys=True):
                failures.append(f"store payload differs for {again['job']}")

        # An identical back-to-back pair dedupes to one execution.
        pair = {"arch": "grid", "qubits": 12, "method": "greedy",
                "seed": 7}
        daemon.send(pair)
        daemon.send(pair)
        served = sorted(daemon.read()["served_from"] for _ in range(2))
        if served != ["compiled", "inflight"]:
            failures.append(f"in-flight dedupe not observed: {served}")
        print(f"dedupe pair served_from={served}")

        stats = daemon.roundtrip({"op": "stats"})["stats"]
        print(f"stats: hit_rate={stats['store_hit_rate']:.2f} "
              f"compiled={stats['compiled']} "
              f"dedupe={stats['inflight_dedupe']} "
              f"entries={stats['store']['entries']} "
              f"corrupt_reads={stats['store']['corrupt_reads']}")
        if not stats["store_hit_rate"] > 0:
            failures.append(f"store hit-rate not positive: {stats}")
        if stats["inflight_dedupe"] != 1:
            failures.append(f"expected 1 in-flight dedupe: {stats}")
        if stats["store"]["corrupt_reads"] != 0:
            failures.append(f"store reads found corrupt entries: {stats}")

        ack = daemon.roundtrip({"op": "shutdown"})
        if ack != {"id": daemon.next_id, "ok": True, "op": "shutdown"}:
            failures.append(f"unexpected shutdown ack: {ack}")
        code = daemon.proc.wait(timeout=60)
        if code != 0:
            failures.append(f"daemon exited {code}")

    if failures:
        print("\nSMOKE FAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nserve smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
