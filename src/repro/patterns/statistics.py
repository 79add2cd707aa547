"""Cross-experiment pattern/coverage statistics and Table 1 style reporting.

The functions here consume :class:`~repro.atpg.generator.AtpgResult` objects
(one per experiment) and produce the comparison artefacts the paper reports:
the Table 1 rows, the relative pattern-count factors, and the coverage deltas
between configurations.
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


@dataclass(frozen=True)
class ShapeChecks:
    """The qualitative relations the paper reports between experiments.

    Every field is a boolean outcome of one claim from Section 5.2 /
    the conclusions; the EXPERIMENTS.md document records these per run.
    """

    stuck_at_above_transition: bool
    transition_patterns_factor_over_stuck_at: float
    onchip_coverage_drop_vs_reference: float
    enhanced_cpf_recovers_coverage: bool
    constrained_external_below_reference: float
    onchip_pattern_factor_over_reference: float

    def as_dict(self) -> dict[str, object]:
        return dict(self.__dict__)


def shape_checks(results: Mapping[str, "AtpgResult"]) -> ShapeChecks:
    """Evaluate the paper's qualitative claims on a set of experiment results.

    Expects the raw results of the ``table1-a`` .. ``table1-e`` scenarios
    keyed by experiment letter "a".."e" (``TestSession.result_of``).
    """
    a, b, c, d, e = (results[k] for k in ("a", "b", "c", "d", "e"))
    stuck_cov = a.coverage.test_coverage
    ref_cov = b.coverage.test_coverage
    return ShapeChecks(
        stuck_at_above_transition=stuck_cov > ref_cov,
        transition_patterns_factor_over_stuck_at=(
            b.pattern_count / a.pattern_count if a.pattern_count else float("inf")
        ),
        onchip_coverage_drop_vs_reference=ref_cov - c.coverage.test_coverage,
        enhanced_cpf_recovers_coverage=d.coverage.test_coverage >= c.coverage.test_coverage,
        constrained_external_below_reference=ref_cov - e.coverage.test_coverage,
        onchip_pattern_factor_over_reference=(
            c.pattern_count / b.pattern_count if b.pattern_count else float("inf")
        ),
    )
