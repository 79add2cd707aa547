"""Counters and histograms behind one thread-safe registry.

Names are dotted strings grouped by subsystem (``engine.tape_passes``,
``cache.hits``, ``atpg.backtracks``, ``scheduler.spills``); values are plain
numbers so a :meth:`MetricsRegistry.snapshot` drops straight into report
JSON and round-trips losslessly.  :meth:`MetricsRegistry.merge` folds a
worker's snapshot into the parent registry (counters add, histograms
combine).

The shared :data:`NULL_METRICS` instance is the disabled path: every method
is a no-op, so hot code increments unconditionally through
:func:`repro.obs.telemetry.active_metrics` guards without branching twice.
"""

from __future__ import annotations

import threading

__all__ = ["MetricsRegistry", "NullMetrics", "NULL_METRICS"]


class MetricsRegistry:
    """One process-local home for every counter and histogram."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, "int | float"] = {}
        self._hists: dict[str, dict[str, "int | float"]] = {}

    # -------------------------------------------------------------- recording
    def inc(self, name: str, amount: "int | float" = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def observe(self, name: str, value: "int | float") -> None:
        """Record one sample into histogram ``name`` (count/total/min/max)."""
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                self._hists[name] = {
                    "count": 1, "total": value, "min": value, "max": value,
                }
            else:
                hist["count"] += 1
                hist["total"] += value
                hist["min"] = min(hist["min"], value)
                hist["max"] = max(hist["max"], value)

    # --------------------------------------------------------------- querying
    def counter(self, name: str) -> "int | float":
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, dict]:
        """A JSON-safe, sorted copy of every recorded metric."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "histograms": {
                    name: dict(hist)
                    for name, hist in sorted(self._hists.items())
                },
            }

    def merge(self, snapshot: dict[str, dict]) -> None:
        """Fold another registry's :meth:`snapshot` into this one."""
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, theirs in snapshot.get("histograms", {}).items():
                mine = self._hists.get(name)
                if mine is None:
                    self._hists[name] = dict(theirs)
                else:
                    mine["count"] += theirs["count"]
                    mine["total"] += theirs["total"]
                    mine["min"] = min(mine["min"], theirs["min"])
                    mine["max"] = max(mine["max"], theirs["max"])

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._hists.clear()


class NullMetrics:
    """Disabled registry: records nothing, snapshots empty."""

    enabled = False

    def inc(self, name: str, amount: "int | float" = 1) -> None:
        return None

    def observe(self, name: str, value: "int | float") -> None:
        return None

    def counter(self, name: str) -> int:
        return 0

    def snapshot(self) -> dict[str, dict]:
        return {"counters": {}, "histograms": {}}

    def merge(self, snapshot: dict[str, dict]) -> None:
        return None

    def clear(self) -> None:
        return None


#: The shared disabled registry (used by :data:`repro.obs.NULL_TELEMETRY`).
NULL_METRICS = NullMetrics()
