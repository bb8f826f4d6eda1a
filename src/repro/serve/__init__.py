"""Compilation-as-a-service: a warm daemon over a content-addressed store.

The paper's own argument — modern quantum architectures are *regular*,
so compilation work repeats — holds at serve time too: real traffic
concentrates on a small set of hot (architecture, problem-class) pairs.
``python -m repro serve`` exploits that three ways:

* a **persistent worker pool** (:class:`repro.batch.PersistentPool`)
  created once, so the process-local distance-matrix and ATA-pattern
  caches stay warm across requests instead of dying with every
  ``compile_many`` call;
* a **content-addressed result store** (:class:`~repro.serve.store.ResultStore`)
  keyed by the canonical job fingerprint
  (:func:`repro.serve.store.spec_fingerprint`) — a repeated request is
  served byte-identically from disk with no worker dispatch (the same
  store lets ``repro batch --store`` resume a sweep);
* **in-flight dedupe** (:class:`~repro.serve.service.CompileService`) —
  N identical concurrent requests execute once and all N get the result.

See ``docs/serve.md`` for the protocol, store layout, fingerprint
canonicalization rules, and the telemetry table.
"""

from .daemon import ServeDaemon, serve_main
from .protocol import (OPS, PROTOCOL_VERSION, SERVED_FROM, error_response,
                       normalize_request, result_response)
from .service import CompileService, ServeStats
from .store import STORE_VERSION, ResultStore

__all__ = [
    "CompileService",
    "ServeStats",
    "ServeDaemon",
    "ResultStore",
    "serve_main",
    "normalize_request",
    "result_response",
    "error_response",
    "OPS",
    "SERVED_FROM",
    "PROTOCOL_VERSION",
    "STORE_VERSION",
]
