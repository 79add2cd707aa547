"""Result reporting: Table 1 reproduction and comparison against the paper.

The paper's Table 1 lists test coverage and pattern count per experiment; the
surrounding text states the qualitative relations (who wins, by roughly what
factor).  Because our device is a synthetic surrogate, the reproduction
targets those *relations*; this module formats the measured table and
evaluates each published claim against the measured numbers so that
EXPERIMENTS.md (and the benchmark output) can report paper-vs-measured side
by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.api.scenarios import TABLE1_DESCRIPTIONS
from repro.atpg.generator import AtpgResult
from repro.patterns.statistics import format_table, table_rows


@dataclass(frozen=True)
class ClaimCheck:
    """One qualitative claim from the paper evaluated on measured results."""

    claim: str
    paper: str
    measured: str
    holds: bool

    def formatted(self) -> str:
        status = "OK " if self.holds else "MISS"
        return f"[{status}] {self.claim}\n       paper: {self.paper}\n       measured: {self.measured}"


def format_table1(results: Mapping[str, AtpgResult]) -> str:
    """Render the measured Table 1 reproduction as text."""
    rows = table_rows(results, TABLE1_DESCRIPTIONS)
    return format_table(rows)


def compare_with_paper(results: Mapping[str, AtpgResult]) -> list[ClaimCheck]:
    """Evaluate the paper's Section 5.2 claims on measured results.

    Requires all five experiments ("a".."e") to be present.
    """
    required = {"a", "b", "c", "d", "e"}
    missing = required - set(results)
    if missing:
        raise KeyError(f"missing experiments for comparison: {sorted(missing)}")
    a, b, c, d, e = (results[k] for k in ("a", "b", "c", "d", "e"))
    checks: list[ClaimCheck] = []

    gap_ab = a.coverage.test_coverage - b.coverage.test_coverage
    checks.append(
        ClaimCheck(
            claim="Transition coverage is below stuck-at coverage even without "
            "multiple domains / on-chip clocking",
            paper="coverage gap (a)-(b) = 3.7%",
            measured=f"gap = {gap_ab:.2f}% (stuck-at {a.coverage.test_coverage:.2f}%, "
            f"transition {b.coverage.test_coverage:.2f}%)",
            holds=gap_ab > 0,
        )
    )

    factor_b = b.pattern_count / a.pattern_count if a.pattern_count else float("inf")
    checks.append(
        ClaimCheck(
            claim="Transition pattern count is several times the stuck-at count",
            paper="(b) is nearly five times (a)",
            measured=f"(b)/(a) = {factor_b:.2f} ({b.pattern_count} vs {a.pattern_count})",
            holds=factor_b > 1.5,
        )
    )

    drop_c = b.coverage.test_coverage - c.coverage.test_coverage
    checks.append(
        ClaimCheck(
            claim="Simple two-pulse on-chip clock generation reduces transition coverage",
            paper="more than 7% below the reference (b)",
            measured=f"(b)-(c) = {drop_c:.2f}%",
            holds=drop_c > 0,
        )
    )

    gain_d = d.coverage.test_coverage - c.coverage.test_coverage
    checks.append(
        ClaimCheck(
            claim="The enhanced CPF (more pulses + inter-domain test) recovers coverage",
            paper="(d) is 0.6% above (c)",
            measured=f"(d)-(c) = {gain_d:.2f}%",
            holds=gain_d >= 0,
        )
    )

    drop_e = b.coverage.test_coverage - e.coverage.test_coverage
    checks.append(
        ClaimCheck(
            claim="Even the most flexible on-chip clocking stays below the "
            "unconstrained reference (ATE constraints cost coverage)",
            paper="(e) is 6.6% below (b)",
            measured=f"(b)-(e) = {drop_e:.2f}%",
            # (e) should sit at or above (d) (it bounds "the most flexible CPF");
            # allow a small tolerance since abort noise can swap near-equal runs.
            holds=drop_e > 0
            and e.coverage.test_coverage >= d.coverage.test_coverage - 2.0,
        )
    )

    factor_c = c.pattern_count / b.pattern_count if b.pattern_count else float("inf")
    checks.append(
        ClaimCheck(
            claim="On-chip clock generation increases the pattern count over the reference",
            paper="(c)/(d) are more than a factor of two above (b)",
            measured=f"(c)/(b) = {factor_c:.2f} ({c.pattern_count} vs {b.pattern_count})",
            holds=factor_c > 1.0,
        )
    )

    ratio_e = e.pattern_count / d.pattern_count if d.pattern_count else float("inf")
    checks.append(
        ClaimCheck(
            claim="A more flexible clocking scheme reduces the pattern count",
            paper="(e) is more than 15% below (d)",
            measured=f"(e)/(d) = {ratio_e:.2f} ({e.pattern_count} vs {d.pattern_count})",
            holds=ratio_e < 1.0,
        )
    )
    return checks


def format_comparison(results: Mapping[str, AtpgResult]) -> str:
    """Paper-vs-measured report used by EXPERIMENTS.md and the benchmarks."""
    checks = compare_with_paper(results)
    lines = ["Paper claims versus measured results", "=" * 48]
    lines.extend(check.formatted() for check in checks)
    passed = sum(1 for check in checks if check.holds)
    lines.append("-" * 48)
    lines.append(f"{passed}/{len(checks)} qualitative claims reproduced")
    return "\n".join(lines)

