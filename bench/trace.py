"""An in-memory span tracer for the benchmark's traced run.

The benchmark records spans from its own files.  :class:`Instrumentation`
replaces the call sites listed in :mod:`bench.layers` with wrappers that
open a span around each call, and puts the originals back on exit;
nothing under ``src/`` changes.

A span has a name, a start and an end (``time.perf_counter``, which is
``CLOCK_MONOTONIC`` on Linux and so comparable across the processes of
one machine), the index of the span that was open when it started, and
the request it belongs to.  The open span and the request live in
context variables, so two requests interleaved on one event loop each
keep their own nesting.  Spans stay in memory until :meth:`Tracer.dump`
writes them out.

A span's self time is its duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

#: Index of the open span.  Module-level because context variables are
#: never freed; a process runs one tracer at a time.
_CURRENT: ContextVar[Optional[int]] = ContextVar("bench_span", default=None)
_REQUEST: ContextVar[Optional[str]] = ContextVar("bench_request",
                                                 default=None)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and event counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one span around the block; yields its index."""
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(),
                               parent=_CURRENT.get(),
                               request=_REQUEST.get()))
        token = _CURRENT.set(index)
        try:
            yield index
        finally:
            self.spans[index].end = time.perf_counter()
            _CURRENT.reset(token)

    @contextmanager
    def request(self, request_id: str) -> Iterator[None]:
        """Tag every span opened in the block with ``request_id``."""
        token = _REQUEST.set(request_id)
        try:
            yield
        finally:
            _REQUEST.reset(token)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def adopt(self, spans: Sequence[Span], counts: Dict[str, int]) -> None:
        """Graft spans recorded in another process under the open span."""
        parent, request = _CURRENT.get(), _REQUEST.get()
        offset = len(self.spans)
        for span in spans:
            self.spans.append(Span(
                span.name, span.start, span.end,
                parent if span.parent is None else span.parent + offset,
                request if span.request is None else span.request))
        for name, n in counts.items():
            self.count(name, n)

    def self_times(self) -> List[float]:
        """Per span: its duration minus the union of its children's
        intervals, each clipped to the span."""
        children: Dict[int, List[int]] = {}
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                children.setdefault(span.parent, []).append(index)
        out = []
        for index, span in enumerate(self.spans):
            intervals = sorted(
                (max(self.spans[c].start, span.start),
                 min(self.spans[c].end, span.end))
                for c in children.get(index, ()))
            covered, reach = 0.0, span.start
            for start, end in intervals:
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span.duration - covered)
        return out

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``{name: (calls, summed duration, summed self time)}``."""
        out: Dict[str, Tuple[int, float, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            calls, duration, self_s = out.get(span.name, (0, 0.0, 0.0))
            out[span.name] = (calls + 1, duration + span.duration,
                              self_s + own)
        return out

    def to_json(self) -> Dict[str, Any]:
        return {"spans": [asdict(span) for span in self.spans],
                "counts": dict(sorted(self.counts.items()))}

    def dump(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_json()) + "\n",
                              encoding="utf-8")


#: ``after(tracer, args, result)``: runs inside the span once the call
#: has returned, to record counts the call's result reveals.
AfterHook = Callable[[Tracer, Tuple[Any, ...], Any], None]


@dataclass(frozen=True)
class CallSite:
    """One call site to wrap: ``attr`` (``"func"`` or ``"Class.method"``)
    looked up in ``module``.

    ``label`` derives the span name from the call's arguments;
    ``count_only`` counts calls as ``<name>.calls`` without a span, so
    their time stays with the caller; ``replacement`` swaps in a
    module-level function instead of a wrapper (a worker process can
    unpickle it by name).
    """

    name: str
    module: str
    attr: str
    label: Optional[Callable[[Tuple[Any, ...]], str]] = None
    after: Optional[AfterHook] = None
    count_only: bool = False
    replacement: Optional[Callable[..., Any]] = None

    def resolve(self) -> Tuple[Any, str, Any]:
        """``(owner, attribute name, current value)``; raises
        ``AttributeError`` when the site no longer exists."""
        owner: Any = importlib.import_module(self.module)
        *path, leaf = self.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        if inspect.isclass(owner):
            if leaf not in vars(owner):
                raise AttributeError(
                    f"{self.module}.{self.attr} is not defined on "
                    f"{owner.__name__} itself")
            return owner, leaf, vars(owner)[leaf]
        return owner, leaf, getattr(owner, leaf)


def _wrap(tracer: Tracer, site: CallSite,
          original: Callable[..., Any]) -> Callable[..., Any]:
    if site.replacement is not None:
        return site.replacement
    if site.count_only:
        counter = f"{site.name}.calls"

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            tracer.count(counter)
            return original(*args, **kwargs)
        return counted

    def name_of(args: Tuple[Any, ...]) -> str:
        return site.label(args) if site.label is not None else site.name

    if inspect.iscoroutinefunction(original):
        @functools.wraps(original)
        async def traced_async(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name_of(args)):
                result = await original(*args, **kwargs)
                if site.after is not None:
                    site.after(tracer, args, result)
            return result
        return traced_async

    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name_of(args)):
            result = original(*args, **kwargs)
            if site.after is not None:
                site.after(tracer, args, result)
        return result
    return traced


class Instrumentation:
    """Wrap every site of a table while the ``with`` block runs."""

    def __init__(self, tracer: Tracer, sites: Sequence[CallSite]) -> None:
        self.tracer = tracer
        self.sites = tuple(sites)
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "Instrumentation":
        try:
            for site in self.sites:
                owner, attr, original = site.resolve()
                setattr(owner, attr, _wrap(self.tracer, site, original))
                self._saved.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
