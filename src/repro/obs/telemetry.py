"""The one object that carries tracing + metrics + profiling through a run.

Front doors thread a :class:`Telemetry` explicitly
(``TestSession.with_telemetry()`` / ``Campaign.with_telemetry()`` /
``Executor(telemetry=...)``); deep layers — the compiled kernel, the fault
scheduler, the cache, PODEM — pick up the *active* telemetry through
:func:`get_telemetry` / :func:`active_metrics` instead of growing a
``telemetry=`` parameter on every call.

Activation is a process-global stack (not a ``contextvars`` variable, on
purpose: executor worker *threads* must see the run's telemetry, and thread
pools do not inherit context).  Process workers start with an empty stack,
so their spans/counters are folded in at the existing merge seams (timed
shipped jobs, worker metric snapshots) rather than recorded remotely.

The disabled singleton :data:`NULL_TELEMETRY` is falsy and shared: the
default for every layer, with no measurable overhead — one list check per
instrumented call site.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.trace import NULL_TRACER, NullTracer, Trace, Tracer

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "coerce_telemetry",
    "get_telemetry",
    "active_metrics",
    "active_tracer",
]


class Telemetry:
    """Tracer + metrics registry + profiling flag, enabled or the shared no-op."""

    def __init__(
        self,
        tracer: "Tracer | NullTracer",
        metrics: "MetricsRegistry | NullMetrics",
        *,
        profile: bool = False,
        enabled: bool = True,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.profile = profile
        self._enabled = enabled

    def __bool__(self) -> bool:
        return self._enabled

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "on" if self._enabled else "off"
        return f"Telemetry({state}, spans={self.tracer.span_count()})"

    # ----------------------------------------------------------- construction
    @classmethod
    def on(cls, *, profile: bool = False) -> "Telemetry":
        """A fresh enabled telemetry (opt-in RSS sampling via ``profile``)."""
        return cls(Tracer(profile=profile), MetricsRegistry(), profile=profile)

    @classmethod
    def off(cls) -> "Telemetry":
        """The shared disabled instance (no allocation, no recording)."""
        return NULL_TELEMETRY

    # ------------------------------------------------------------- activation
    def activate(self) -> "_Activation":
        """Make this telemetry the ambient one for the ``with`` block.

        Reentrant and nestable; activating the disabled singleton is a
        no-op, so callers never branch on enabledness.
        """
        return _Activation(self if self._enabled else None)

    # ---------------------------------------------------------------- results
    def trace(self) -> Trace:
        return self.tracer.trace()

    def snapshot(self) -> dict[str, object]:
        """JSON-safe summary embedded in report metadata."""
        return {
            "enabled": self._enabled,
            "profile": self.profile,
            "span_count": self.tracer.span_count(),
            "metrics": self.metrics.snapshot(),
        }


#: The shared disabled telemetry — falsy, allocation-free, thread-safe.
NULL_TELEMETRY = Telemetry(NULL_TRACER, NULL_METRICS, enabled=False)


def coerce_telemetry(value: "Telemetry | bool | None") -> Telemetry:
    """Accept ``Telemetry`` | ``True`` (fresh enabled) | ``False``/``None``."""
    if isinstance(value, Telemetry):
        return value
    if value is True:
        return Telemetry.on()
    if value is False or value is None:
        return NULL_TELEMETRY
    raise TypeError(
        f"expected a Telemetry, bool or None, got {type(value).__name__}"
    )


# ---------------------------------------------------------------------------
# The ambient-telemetry stack
# ---------------------------------------------------------------------------
_STACK: list[Telemetry] = []
_STACK_LOCK = threading.Lock()


class _Activation:
    __slots__ = ("_telemetry",)

    def __init__(self, telemetry: "Telemetry | None") -> None:
        self._telemetry = telemetry

    def __enter__(self) -> "_Activation":
        if self._telemetry is not None:
            with _STACK_LOCK:
                _STACK.append(self._telemetry)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._telemetry is not None:
            with _STACK_LOCK:
                for index in range(len(_STACK) - 1, -1, -1):
                    if _STACK[index] is self._telemetry:
                        del _STACK[index]
                        break


def get_telemetry() -> Telemetry:
    """The innermost activated telemetry, else :data:`NULL_TELEMETRY`."""
    return _STACK[-1] if _STACK else NULL_TELEMETRY


def active_metrics() -> "MetricsRegistry | None":
    """Fast hot-path accessor: the active registry, or ``None`` when off.

    One list truthiness check when disabled — cheap enough for per-kernel-
    call counters (never use it per gate).
    """
    return _STACK[-1].metrics if _STACK else None


def active_tracer() -> "Tracer | NullTracer":
    """The active tracer, else the shared no-op tracer."""
    return _STACK[-1].tracer if _STACK else NULL_TRACER
