"""Span tracing: nested timing records with Chrome/Perfetto export.

A :class:`Tracer` hands out :meth:`~Tracer.span` context managers; every
``with tracer.span("stage:atpg", scenario="a"):`` block becomes one
:class:`Span` with an id, a parent (the span that was open on the same
thread — or an explicit ``parent=`` id when the opener runs on a worker
thread), perf-counter start/end offsets and free-form attributes.  Finished
spans collect into a :class:`Trace`, exportable as JSON-lines (one span per
line) or as the Chrome ``chrome://tracing`` / Perfetto *trace event* format
(``{"traceEvents": [...]}``, ``"ph": "X"`` complete events, microsecond
timestamps) so a campaign run can be dropped straight into
https://ui.perfetto.dev.

Design constraints inherited from the engine:

* **thread-safe** — spans may open/close on executor worker threads; the
  current-span stack is thread-local and the finished list lock-guarded;
* **merge-friendly** — work that was timed elsewhere (jobs shipped to
  worker processes, diagnosis stages) is folded in *after the fact* with
  :meth:`Tracer.record`, called at the same seam that lands the results;
* **zero-dependency** — stdlib only, like everything under ``repro``.

The module-level :data:`NULL_TRACER` is the shared disabled instance: its
``span()`` returns one reusable no-op context manager, so instrumented code
never needs an ``if telemetry:`` guard on the hot path.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

__all__ = ["Span", "Trace", "Tracer", "NullTracer", "NULL_TRACER"]


def _json_safe(value: object) -> object:
    """Coerce one attribute value to something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _json_safe(val) for key, val in value.items()}
    return repr(value)


@dataclass
class Span:
    """One finished timing region.

    ``start``/``end`` are seconds relative to the owning tracer's epoch
    (taken from ``time.perf_counter()``), not wall-clock timestamps; the
    trace carries the wall-clock epoch separately.
    """

    id: int
    name: str
    parent: int | None
    start: float
    end: float
    thread: str = "main"
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, object]:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start": round(self.start, 9),
            "end": round(self.end, 9),
            "thread": self.thread,
            "attrs": {key: _json_safe(val) for key, val in self.attrs.items()},
        }


class Trace:
    """An ordered collection of finished spans plus export helpers."""

    def __init__(self, spans: list[Span], *, epoch_wall: float = 0.0) -> None:
        #: Spans sorted by (start, id): parents sort before their children
        #: (a child cannot start before its parent), so the order is stable
        #: no matter which thread finished first.
        self.spans = sorted(spans, key=lambda s: (s.start, s.id))
        self.epoch_wall = epoch_wall
        self._by_id = {span.id: span for span in self.spans}

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    # ------------------------------------------------------------- structure
    def get(self, span_id: int) -> Span | None:
        return self._by_id.get(span_id)

    def roots(self) -> list[Span]:
        return [span for span in self.spans if span.parent is None]

    def children(self, span_id: int) -> list[Span]:
        return [span for span in self.spans if span.parent == span_id]

    def find(self, prefix: str) -> list[Span]:
        """Every span whose name matches or starts with ``prefix``."""
        return [
            span for span in self.spans
            if span.name == prefix or span.name.startswith(prefix)
        ]

    def names(self) -> list[str]:
        return [span.name for span in self.spans]

    # --------------------------------------------------------------- exports
    def to_jsonl(self) -> str:
        """One JSON object per line, in stable (start, id) order."""
        return "".join(
            json.dumps(span.as_dict(), sort_keys=True) + "\n"
            for span in self.spans
        )

    def to_chrome(self) -> dict[str, object]:
        """The Chrome/Perfetto *trace event* document.

        Complete (``"ph": "X"``) events with microsecond ``ts``/``dur``,
        one synthetic ``pid`` and one ``tid`` per recording thread, plus
        the ``M`` metadata events that name them in the viewer's sidebar.
        """
        tids: dict[str, int] = {}
        for span in self.spans:
            tids.setdefault(span.thread, len(tids) + 1)
        events: list[dict[str, object]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "repro"},
            }
        ]
        for thread, tid in tids.items():
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": thread},
            })
        for span in self.spans:
            args: dict[str, object] = {
                key: _json_safe(val) for key, val in span.attrs.items()
            }
            args["span_id"] = span.id
            if span.parent is not None:
                args["parent"] = span.parent
            events.append({
                "name": span.name,
                "cat": span.name.split(":", 1)[0],
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(max(span.duration, 0.0) * 1e6, 3),
                "pid": 1,
                "tid": tids[span.thread],
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: "str | Path") -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_chrome(), indent=1, sort_keys=True) + "\n")
        return path


class _SpanHandle:
    """The live context manager for one open span."""

    __slots__ = ("_tracer", "id", "name", "parent", "_start", "attrs", "_rss0")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        name: str,
        parent: int | None,
        attrs: dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.id = span_id
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self._start = 0.0
        self._rss0 = 0

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        tracer._push(self.id)
        if tracer.profile:
            from repro.obs.profile import rss_kb

            self._rss0 = rss_kb()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        if tracer.profile:
            from repro.obs.profile import rss_kb

            rss = rss_kb()
            self.attrs["rss_kb"] = rss
            self.attrs["rss_kb_delta"] = rss - self._rss0
        tracer._pop(self.id)
        tracer._finish(
            Span(
                id=self.id,
                name=self.name,
                parent=self.parent,
                start=self._start - tracer._epoch_perf,
                end=end - tracer._epoch_perf,
                thread=threading.current_thread().name,
                attrs=self.attrs,
            )
        )


class _NullSpanHandle:
    """Shared no-op stand-in for the disabled path."""

    __slots__ = ()
    id = None

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpanHandle()


class Tracer:
    """Produces nested spans; thread-safe; one per :class:`~repro.obs.Telemetry`."""

    enabled = True

    def __init__(self, *, profile: bool = False) -> None:
        self.profile = profile
        self._epoch_perf = time.perf_counter()
        self._epoch_wall = time.time()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._next_id = 1
        self._local = threading.local()

    # ---------------------------------------------------------- span plumbing
    def _allocate(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span_id: int) -> None:
        self._stack().append(span_id)

    def _pop(self, span_id: int) -> None:
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()

    def _finish(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def current_id(self) -> int | None:
        """Id of the innermost open span on *this* thread (or ``None``)."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------- public API
    def span(
        self, name: str, *, parent: "int | None" = None, **attrs: object
    ) -> _SpanHandle:
        """Open a nested span; use as ``with tracer.span("stage:atpg"):``.

        ``parent`` overrides the thread-local nesting — pass the dispatching
        span's id when the block runs on a worker thread.
        """
        if parent is None:
            parent = self.current_id()
        return _SpanHandle(self, self._allocate(), name, parent, dict(attrs))

    def record(
        self,
        name: str,
        *,
        start: "float | None" = None,
        end: "float | None" = None,
        duration: "float | None" = None,
        parent: "int | None" = None,
        **attrs: object,
    ) -> int:
        """Fold in a span that was timed elsewhere (worker thread/process).

        ``start``/``end`` are ``time.perf_counter()`` readings from this
        process; a remote-process measurement passes ``duration`` (anchored
        at ``start`` when given, else ending now).  Called at the seams
        that land results, so recorded spans are as ordered as the results
        they describe.
        """
        now = time.perf_counter()
        if end is None:
            end = start + duration if (start is not None and duration is not None) else now
        if start is None:
            start = end - (duration if duration is not None else 0.0)
        if parent is None:
            parent = self.current_id()
        span_id = self._allocate()
        self._finish(
            Span(
                id=span_id,
                name=name,
                parent=parent,
                start=start - self._epoch_perf,
                end=end - self._epoch_perf,
                thread=threading.current_thread().name,
                attrs=dict(attrs),
            )
        )
        return span_id

    def trace(self) -> Trace:
        """A :class:`Trace` snapshot of every span finished so far."""
        with self._lock:
            spans = list(self._spans)
        return Trace(spans, epoch_wall=self._epoch_wall)

    def span_count(self) -> int:
        with self._lock:
            return len(self._spans)


class NullTracer:
    """Disabled tracer: every call is a cheap no-op returning shared objects."""

    enabled = False
    profile = False

    def span(self, name: str, *, parent: "int | None" = None, **attrs: object) -> _NullSpanHandle:
        return _NULL_SPAN

    def record(self, name: str, **kwargs: object) -> None:
        return None

    def current_id(self) -> None:
        return None

    def trace(self) -> Trace:
        return Trace([])

    def span_count(self) -> int:
        return 0


#: The shared disabled tracer (used by :data:`repro.obs.NULL_TELEMETRY`).
NULL_TRACER = NullTracer()
