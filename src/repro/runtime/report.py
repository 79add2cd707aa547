"""The report shell every plan front door folds its landed jobs into.

A front door (``Campaign.run``/``diagnose``/``diagnose_volume``) folds a
plan's events into a report through :func:`repro.api.lowering.fold_events`:
one cell per landed job, appended with ``add_cell`` and put back in plan
order in ``report.cells``.  The campaign, diagnosis and volume reports
differ only in their cells, lookups and text; the container, the JSON
form and the backend-fallback record live here, once:

* :class:`PlanReport` — a ``campaign`` header plus ``cells`` of one
  ``cell_type`` (a :class:`~repro.records.JsonRecord`, whose JSON form is
  its dataclass fields), with ``to_json``/``from_json``;
* :class:`FallbackRecords` — ``backend_fallbacks``/``degraded`` and the
  ``NOTE:`` lines over a report's header (the session-level
  :class:`~repro.api.report.RunReport` keeps its own ``session`` header);
* :func:`mark_cache_hit` — the one rule for a diagnosis result the
  executor served from the cache.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, ClassVar, Iterator, Mapping

from repro.records import JsonRecord


class FallbackRecords:
    """Executor degradations recorded in a report's header dict."""

    def _header(self) -> Mapping[str, object]:
        raise NotImplementedError

    @property
    def backend_fallbacks(self) -> list[dict[str, str]]:
        """Execution degradations recorded by the runtime executor.

        Empty for healthy runs.  When a processes fan-out spilled to the
        threads backend (payload or result-transport failure), each record
        carries ``{"requested", "used", "reason"}`` — results are still
        bit-identical, but wall-clock expectations are not, so CI should
        check this instead of trusting the warning stream.
        """
        return list(self._header().get("backend_fallbacks") or [])  # type: ignore[arg-type]

    @property
    def degraded(self) -> bool:
        """True when the run did not execute on the requested backend."""
        return bool(self.backend_fallbacks)

    def fallback_notes(self) -> list[str]:
        """One ``NOTE:`` line per fallback record (none when healthy)."""
        return [
            f"NOTE: backend fallback {fb.get('requested', '?')} -> "
            f"{fb.get('used', '?')}: {fb.get('reason', 'unknown reason')}"
            for fb in self.backend_fallbacks
        ]


@dataclass
class PlanReport(FallbackRecords):
    """Cells of one ``cell_type`` under a ``campaign`` header dict.

    Cells are appended as jobs land (:meth:`add_cell`); the fold puts
    them back in plan order when the plan finishes.
    """

    cell_type: ClassVar[type[JsonRecord]]

    campaign: dict[str, object] = field(default_factory=dict)
    cells: list[Any] = field(default_factory=list)

    def _header(self) -> Mapping[str, object]:
        return self.campaign

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.cells)

    def add_cell(self, cell: Any) -> Any:
        self.cells.append(cell)
        return cell

    def cache_hits(self) -> int:
        return sum(1 for cell in self.cells if cell.cache_hit)

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "campaign": self.campaign,
            "cells": [cell.to_dict() for cell in self.cells],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> Any:
        payload = json.loads(text)
        return cls(
            campaign=dict(payload.get("campaign", {})),
            cells=[cls.cell_type.from_dict(item) for item in payload.get("cells", [])],
        )


def mark_cache_hit(result: Any, cache_hit: bool) -> Any:
    """Flag a landed diagnosis result the executor served from the cache
    (its job was skipped); returns the result."""
    if cache_hit:
        result.cache_hit = True
    return result
