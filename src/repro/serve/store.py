"""Content-addressed on-disk store of compiled results.

The store is the one persisted record of a compiled job: ``repro serve
--store DIR`` answers repeated requests from it, and ``repro batch
--store DIR`` (``compile_many(store=...)``) resumes a crashed or
repeated sweep from it.  This module also owns the rule for how a job
is keyed and written: the spec canonicalization behind
:func:`spec_fingerprint` and the durability helpers
:func:`atomic_write_bytes` and :func:`fsync_dir`.

Every entry is one JSON document at ``root/<ff>/<fingerprint>.json``,
where the fingerprint is :func:`spec_fingerprint` of the canonical job
spec (an unstable key is a silent cache miss; an aliasing key is a
poisoned result).  The two-hex-char shard level keeps directories small
at millions of entries.

Durability contract:

* **Writes are atomic**: temp file in the same shard, ``fsync``, rename
  over the final name, directory ``fsync`` (:func:`atomic_write_bytes`).
  A crash at any instant — including an injected ``serve.store_write``
  kill — leaves either no entry or a complete one, never a truncated
  hybrid.
* **Reads are skeptical**: a corrupt, truncated, version-skewed or
  wrong-fingerprint document is treated as a miss (counted in
  :attr:`ResultStore.corrupt_reads`) rather than trusted or fatal, so a
  damaged store heals itself the next time the entry is recompiled.
* Only ``ok`` results are stored.  Failures are often environmental
  (timeout, injected fault, resource exhaustion); caching them would
  pin a transient outage into every future response, and a resumed
  sweep recompiles them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import fields
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Union

from ..batch.jobs import BatchJob, JobResult
from ..resilience.faults import fault_point

#: Bumped whenever the entry document changes shape.
STORE_VERSION = 1

#: Bumped whenever :func:`canonical_job_spec` changes shape, so a store
#: keyed by an older canonicalization can never alias a new one (the
#: version is hashed into every fingerprint).
FINGERPRINT_VERSION = 2

__all__ = ["FINGERPRINT_VERSION", "STORE_VERSION", "ResultStore",
           "atomic_write_bytes", "canonical_job_spec", "canonical_json",
           "fsync_dir", "spec_fingerprint"]

#: 2**53: the largest magnitude at which every integer is exactly
#: representable as a float, so the integral-float -> int rewrite below
#: is loss-free.
_EXACT_INT_BOUND = 9007199254740992


def _canonical_value(value: object) -> object:
    """Recursively rewrite ``value`` into its canonical JSON-ready form.

    Two values that compare semantically equal must canonicalize
    identically — this is what makes the fingerprint usable as a
    persistent content-address (an unstable key silently misses the
    store; an aliasing one serves the wrong result):

    * ``-0.0`` collapses to ``0`` (``json.dumps`` would render the two
      equal floats differently);
    * integral floats collapse to ``int`` (``gamma=2`` and
      ``gamma=2.0`` specify the same compilation; the rewrite is bounded
      to the exactly-representable range);
    * non-finite floats get explicit string spellings (``json.dumps``
      would emit non-standard ``NaN``/``Infinity`` tokens);
    * tuples, lists and (frozen)sets of knob values all collapse to
      sorted-or-ordered lists — a knob built as ``(1, 2)`` by one caller
      and ``[1, 2]`` by another is the same knob;
    * dict contents are canonicalized recursively with string keys, so
      nested knob dicts hash by content, not insertion order.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "float:nan"
        if math.isinf(value):
            return "float:inf" if value > 0 else "float:-inf"
        if value == 0.0:
            return 0  # merges 0.0 and -0.0 (and int 0)
        if value.is_integer() and abs(value) < _EXACT_INT_BOUND:
            return int(value)
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        canonical = [_canonical_value(item) for item in value]
        return sorted(canonical,
                      key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(value, dict):
        return {str(key): _canonical_value(item)
                for key, item in value.items()}
    # Last resort for exotic knob objects: a type-prefixed repr, so two
    # different types can never alias through equal string forms.
    return f"{type(value).__name__}:{value!r}"


def canonical_job_spec(job: BatchJob) -> Dict[str, object]:
    """The canonical plain-data spec of one job.

    ``options`` becomes a content-keyed mapping (duplicate names
    last-wins, ordering irrelevant — exactly :meth:`BatchJob.with_options`
    semantics), and the presentation-only ``label`` is excluded: it
    changes how a job is *named*, never what gets compiled, so it must
    not force a store miss.
    """
    # Fields are read directly: ``asdict`` would deep-copy every value
    # on each store probe only to canonicalize the copies.
    canonical = {f.name: _canonical_value(getattr(job, f.name))
                 for f in fields(job) if f.name not in ("label", "options")}
    canonical["options"] = _canonical_value(dict(job.options))
    return canonical


def canonical_json(payload: object) -> str:
    """Deterministic compact JSON of an already-canonicalized value."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def spec_fingerprint(job: BatchJob) -> str:
    """SHA-256 content-address of a single job spec.

    This is the result-store key, for ``repro serve`` and
    ``repro batch --store`` alike: two
    semantically-identical jobs built by different code paths (tuple vs
    list knobs, ``-0.0`` vs ``0.0``, reordered knob dicts) produce the
    same digest, and any canonicalization change bumps
    :data:`FINGERPRINT_VERSION` into the hash.
    """
    payload = canonical_json([FINGERPRINT_VERSION,
                              canonical_job_spec(job)])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- durability helpers ---------------------------------------------------


def fsync_dir(path: Union[str, Path]) -> None:
    """Flush directory metadata so a just-created entry survives a crash.

    ``fsync`` on a file descriptor makes the *contents* durable; the
    file's very existence lives in the parent directory and needs its
    own fsync.  Platforms that refuse to open directories degrade to a
    no-op (the historic, non-durable behavior).
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Union[str, Path], data: bytes,
                       publish_hook: Optional[Callable[[], None]] = None,
                       ) -> None:
    """Durably publish ``data`` at ``path``: all-or-nothing.

    Writes to a same-directory temp file, fsyncs it, renames it over
    ``path`` (atomic on POSIX), then fsyncs the directory.  A crash at
    any instant leaves either the old content or the new — never a
    truncated hybrid — which is what lets :class:`ResultStore` treat
    any parseable entry as trustworthy.

    ``publish_hook`` runs between the temp-file fsync and the rename —
    the narrowest crash window.  It exists for fault injection (the
    store's ``serve.store_write`` site): a kill or raise there
    leaves an orphaned ``*.tmp.<pid>`` file and no entry, which is the
    exact on-disk state a real mid-publish crash produces.
    """
    target = Path(path)
    tmp = target.with_name(f"{target.name}.tmp.{os.getpid()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    if publish_hook is not None:
        publish_hook()
    try:
        os.replace(tmp, target)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(target.parent)


class ResultStore:
    """Fingerprint-keyed persistent result storage.

    The store is shared-nothing and lock-free: entries are immutable
    once published (same fingerprint => same content by construction),
    so concurrent daemons pointed at one directory can only ever race to
    write identical bytes, and the atomic rename makes the last one a
    no-op.

    The one mutable counter, :attr:`corrupt_reads`, needs no lock: the
    serve daemon reads the store only from its event loop, and
    ``compile_many`` only from its calling thread.
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
