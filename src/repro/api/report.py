"""Structured per-scenario results: the :class:`RunReport` of a test session.

A report is plain data — every field survives a ``to_json`` / ``from_json``
round trip losslessly, so reports can be archived next to benchmark output
and diffed across PRs.  ``table()`` renders the classic fixed-width table;
for the built-in Table 1 scenarios it renders the paper's Table 1 layout
(the same text ``format_table1`` prints for raw ATPG results).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.patterns.statistics import TableRow, format_table
from repro.records import JsonRecord
from repro.runtime.report import FallbackRecords


@dataclass
class ScenarioOutcome(JsonRecord):
    """Everything one scenario run produced, in JSON-safe form.

    Attributes:
        scenario: Registered scenario name.
        description: The scenario's configuration summary.
        fault_model: Fault model the scenario ran ("stuck-at", ...).
        test_coverage: Detected / (total - untestable), percent.
        fault_coverage: Detected / total, percent.
        atpg_effectiveness: Resolved / total, percent.
        pattern_count: Final number of committed patterns.
        cpu_seconds: Total wall time of the scenario's scenario pipeline.
        stage_seconds: Per-stage wall time, keyed by stage name.
        legacy_key: Paper experiment letter for Table 1 scenarios, else None.
        extras: Stage-specific data (EDT statistics, compaction deltas,
            per-model sub-results of mixed sweeps, export sizes, ...).
    """

    scenario: str
    description: str
    fault_model: str
    test_coverage: float
    fault_coverage: float
    atpg_effectiveness: float
    pattern_count: int
    cpu_seconds: float
    stage_seconds: dict[str, float] = field(default_factory=dict)
    legacy_key: str | None = None
    extras: dict[str, object] = field(default_factory=dict)

    @property
    def row_key(self) -> str:
        return self.legacy_key or self.scenario

    def table_row(self) -> TableRow:
        return TableRow(
            experiment=self.row_key,
            description=self.description,
            test_coverage=self.test_coverage,
            pattern_count=self.pattern_count,
        )

    def same_results(self, other: "ScenarioOutcome") -> bool:
        """Deterministic-field equality (ignores the timing measurements)."""
        return (
            self.scenario == other.scenario
            and self.fault_model == other.fault_model
            and self.test_coverage == other.test_coverage
            and self.fault_coverage == other.fault_coverage
            and self.atpg_effectiveness == other.atpg_effectiveness
            and self.pattern_count == other.pattern_count
            and self.extras == other.extras
        )


@dataclass
class RunReport(FallbackRecords):
    """Ordered per-scenario outcomes plus the session configuration.

    ``backend_fallbacks``/``degraded`` read the ``session`` header
    (:class:`~repro.runtime.report.FallbackRecords`).
    """

    session: dict[str, object] = field(default_factory=dict)
    outcomes: list[ScenarioOutcome] = field(default_factory=list)

    # ------------------------------------------------------------- collection
    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self) -> Iterator[ScenarioOutcome]:
        return iter(self.outcomes)

    def __getitem__(self, key: str) -> ScenarioOutcome:
        """Look up an outcome by scenario name or legacy experiment letter."""
        for outcome in self.outcomes:
            if key in (outcome.scenario, outcome.legacy_key):
                return outcome
        available = ", ".join(o.scenario for o in self.outcomes) or "<empty report>"
        raise KeyError(f"no outcome for {key!r}; report contains: {available}")

    def __contains__(self, key: str) -> bool:
        return any(key in (o.scenario, o.legacy_key) for o in self.outcomes)

    def scenarios(self) -> list[str]:
        return [outcome.scenario for outcome in self.outcomes]

    def _header(self) -> Mapping[str, object]:
        return self.session

    # ------------------------------------------------------------- formatting
    def table(
        self,
        title: str = "Table 1: Experimental Results",
        *,
        show_size: bool = False,
    ) -> str:
        """Fixed-width result table, rows sorted by their row key.

        For a report holding exactly the built-in Table 1 scenarios this is
        byte-for-byte the legacy ``format_table1`` output.  Degraded runs
        (see :attr:`backend_fallbacks`) append one NOTE line per fallback —
        healthy output stays byte-identical.  ``show_size=True`` appends a
        design-size NOTE line (scaling runs; opt-in so the default output
        stays byte-compatible).
        """
        rows = [
            outcome.table_row()
            for outcome in sorted(self.outcomes, key=lambda o: o.row_key)
        ]
        text = "\n".join([format_table(rows, title=title), *self.fallback_notes()])
        if show_size:
            size = self._design_size()
            if size:
                qualifier = "" if size.get("exact") else "~"
                text = (
                    f"{text}\nNOTE: design size {qualifier}"
                    f"{size.get('gates', '?')} gates, {qualifier}"
                    f"{size.get('flops', '?')} flops"
                    f" ({size.get('family', 'unknown')})"
                )
        return text

    def _design_size(self) -> "dict[str, object] | None":
        """The report's design-size metadata, from either metadata shape.

        Campaign-derived reports carry a per-design ``design_sizes`` map;
        session reports carry a single ``design_size`` entry.
        """
        sizes = self.session.get("design_sizes")
        design = self.session.get("design")
        if isinstance(sizes, dict) and isinstance(design, str) and design in sizes:
            entry = sizes[design]
            return dict(entry) if isinstance(entry, dict) else None
        size = self.session.get("design_size")
        return dict(size) if isinstance(size, dict) else None

    def summary(self) -> str:
        """One line per scenario, including CPU time (not in ``table()``)."""
        lines = []
        for outcome in self.outcomes:
            lines.append(
                f"{outcome.scenario:<28} {outcome.fault_model:<10} "
                f"TC={outcome.test_coverage:6.2f}%  "
                f"patterns={outcome.pattern_count:5d}  "
                f"cpu={outcome.cpu_seconds:7.2f}s"
            )
        return "\n".join(lines)

    # ---------------------------------------------------------- serialization
    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "session": self.session,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        payload = json.loads(text)
        return cls(
            session=dict(payload.get("session", {})),
            outcomes=[
                ScenarioOutcome.from_dict(item)
                for item in payload.get("outcomes", [])
            ],
        )

    # ------------------------------------------------------------- comparison
    def same_results(self, other: "RunReport") -> bool:
        """True when both reports carry identical deterministic results.

        Wall-clock measurements (``cpu_seconds``, ``stage_seconds``) are
        excluded — serial and parallel runs of the same session must compare
        equal under this predicate.
        """
        if self.scenarios() != other.scenarios():
            return False
        return all(
            mine.same_results(theirs)
            for mine, theirs in zip(self.outcomes, other.outcomes)
        )
