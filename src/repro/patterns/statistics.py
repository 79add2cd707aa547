"""Table 1 style reporting of cross-experiment coverage and pattern counts.

The functions here consume :class:`~repro.atpg.generator.AtpgResult` objects
(one per experiment) and produce the Table 1 rows and their text table; the
paper's qualitative relations between experiments are evaluated by
:func:`repro.core.results.compare_with_paper`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a package cycle)
    from repro.atpg.generator import AtpgResult


@dataclass(frozen=True)
class TableRow:
    """One row of the Table 1 reproduction."""

    experiment: str
    description: str
    test_coverage: float
    pattern_count: int

    def formatted(self) -> str:
        return (
            f"{self.experiment:<4} {self.description:<52} "
            f"{self.test_coverage:7.2f}% {self.pattern_count:9d}"
        )


def table_rows(results: Mapping[str, "AtpgResult"], descriptions: Mapping[str, str]) -> list[TableRow]:
    """Build Table 1 rows from per-experiment results."""
    rows: list[TableRow] = []
    for key in sorted(results):
        result = results[key]
        rows.append(
            TableRow(
                experiment=key,
                description=descriptions.get(key, result.setup_name),
                test_coverage=result.coverage.test_coverage,
                pattern_count=result.pattern_count,
            )
        )
    return rows


def format_table(rows: Sequence[TableRow], title: str = "Table 1: Experimental Results") -> str:
    """Render rows as a fixed-width text table."""
    header = f"{'Exp':<4} {'Configuration':<52} {'TC':>8} {'Patterns':>10}"
    lines = [title, "=" * len(header), header, "-" * len(header)]
    lines.extend(row.formatted() for row in rows)
    lines.append("=" * len(header))
    return "\n".join(lines)

