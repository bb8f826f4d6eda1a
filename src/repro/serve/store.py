"""Content-addressed on-disk store of compiled results.

Every entry is one JSON document at ``root/<ff>/<fingerprint>.json``,
where the fingerprint is :func:`repro.resilience.journal.spec_fingerprint`
of the canonical job spec — the same canonicalization the crash-safe
journal uses, fixed in this PR precisely so it can key persistent state
(an unstable key is a silent cache miss; an aliasing key is a poisoned
result).  The two-hex-char shard level keeps directories small at
millions of entries.

Durability contract:

* **Writes are atomic**: temp file in the same shard, ``fsync``, rename
  over the final name, directory ``fsync``
  (:func:`repro.resilience.journal.atomic_write_bytes`).  A crash at any
  instant — including an injected ``serve.store_write`` kill — leaves
  either no entry or a complete one, never a truncated hybrid.
* **Reads are skeptical**: a corrupt, truncated, version-skewed or
  wrong-fingerprint document is treated as a miss (counted in
  :attr:`ResultStore.corrupt_reads`) rather than trusted or fatal, so a
  damaged store heals itself the next time the entry is recompiled.
* Only ``ok`` results are stored.  Failures are often environmental
  (timeout, injected fault, resource exhaustion); caching them would
  pin a transient outage into every future response.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from ..batch.jobs import BatchJob, JobResult
from ..resilience.faults import fault_point
from ..resilience.journal import (FINGERPRINT_VERSION, atomic_write_bytes,
                                  canonical_json, fsync_dir)

#: Bumped whenever the entry document changes shape.
STORE_VERSION = 1

__all__ = ["STORE_VERSION", "ResultStore"]


class ResultStore:
    """Fingerprint-keyed persistent result storage.

    The store is shared-nothing and lock-free: entries are immutable
    once published (same fingerprint => same content by construction),
    so concurrent daemons pointed at one directory can only ever race to
    write identical bytes, and the atomic rename makes the last one a
    no-op.

    The one mutable counter, :attr:`corrupt_reads`, needs no lock: the
    serve daemon reads the store only from its event loop.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        fsync_dir(self.root.parent)
        #: Entries found unreadable or inconsistent and served as misses.
        self.corrupt_reads = 0

    def path_for(self, fingerprint: str) -> Path:
        """Where an entry for ``fingerprint`` lives (existing or not)."""
        return self.root / fingerprint[:2] / f"{fingerprint}.json"

    # -- reading -----------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """The stored document for ``fingerprint``, or ``None``.

        Any unreadable or inconsistent entry degrades to a miss.
        """
        path = self.path_for(fingerprint)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            doc = json.loads(raw)
        except ValueError:
            doc = None
        if (not isinstance(doc, dict)
                or doc.get("version") != STORE_VERSION
                or doc.get("fingerprint_version") != FINGERPRINT_VERSION
                or doc.get("fingerprint") != fingerprint
                or not isinstance(doc.get("result"), dict)):
            self.corrupt_reads += 1
            return None
        return doc

    def get_result(self, job: BatchJob,
                   fingerprint: str) -> Optional[JobResult]:
        """Rebuild the stored :class:`JobResult` for ``job``, if any."""
        doc = self.get(fingerprint)
        if doc is None:
            return None
        result = doc["result"]
        assert isinstance(result, dict)
        return JobResult.from_json(job, result)

    # -- writing -----------------------------------------------------------

    def put(self, fingerprint: str, job: BatchJob,
            result: JobResult) -> bool:
        """Durably publish one ``ok`` result; returns whether stored.

        Failed results are refused (see the module docstring) — the
        caller treats that as a normal non-cachable outcome, not an
        error.
        """
        if not result.ok:
            return False
        doc: Dict[str, object] = {
            "version": STORE_VERSION,
            "fingerprint_version": FINGERPRINT_VERSION,
            "fingerprint": fingerprint,
            "job": job.name,
            "created_s": time.time(),
            "result": result.to_json(),
        }
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = (canonical_json(doc) + "\n").encode("utf-8")
        atomic_write_bytes(
            path, data,
            publish_hook=lambda: fault_point("serve.store_write",
                                             fingerprint))
        return True

    # -- inventory ---------------------------------------------------------

    def iter_fingerprints(self) -> Iterator[str]:
        """Every published fingerprint (temp/corrupt names excluded)."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob("*.json")):
                yield entry.stem

    def count_entries(self) -> int:
        """Published entries on disk.

        Deliberately not ``__len__``: an empty store must never be
        falsy (``if store`` guards mean "is a store configured").
        """
        return sum(1 for _ in self.iter_fingerprints())

    def sweep_temp_files(self) -> int:
        """Remove orphaned temp files from crashed writes; returns count.

        Safe whenever no writer is mid-publish on this machine (daemon
        startup): a ``*.tmp.<pid>`` name is only ever an unrenamed
        leftover.
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        for shard in self.root.iterdir():
            if not shard.is_dir():
                continue
            for leftover in shard.glob("*.tmp.*"):
                try:
                    os.unlink(leftover)
                    removed += 1
                except OSError:
                    continue
        return removed

    def stats(self) -> Dict[str, object]:
        """Plain-data inventory for the serve stats endpoint.

        One walk of the shards: an entry that vanishes between listing
        and ``stat`` counts in neither ``entries`` nor ``bytes``.
        """
        entries = size = 0
        for fingerprint in self.iter_fingerprints():
            try:
                size += self.path_for(fingerprint).stat().st_size
            except OSError:
                continue
            entries += 1
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": size,
            "corrupt_reads": self.corrupt_reads,
        }

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"
