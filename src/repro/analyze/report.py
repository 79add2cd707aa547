"""Lint findings, waivers and the JSON-round-trippable :class:`LintReport`.

Every static analysis in :mod:`repro.analyze` — netlist DRC, scan-chain
audits, CDC extraction, EDT blockage checks, SCOAP hotspots, plan linting —
reports through the same three record types:

* :class:`Finding` — one violation (or informational observation) of one
  rule, anchored to a ``subject`` (a net, instance, chain, job id, ...);
* :class:`Waiver` — a per-design exemption matching findings by rule id and
  subject glob, carrying the reason the violation is accepted;
* :class:`LintReport` — the aggregate: findings, the rules that actually
  ran, and the waivers that were applied.  ``ok`` means "no unwaived
  ERROR-severity findings"; warnings and infos never gate.

Reports serialize losslessly to JSON (``to_dict``/``from_dict``) and render
as a fixed-width table (``format_table``) in the same spirit as the Table 1
renderer in :mod:`repro.patterns.statistics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fnmatch import fnmatchcase
from typing import Any, Iterable, Mapping

from repro.records import JsonRecord


class Severity(str, Enum):
    """Severity ladder of a finding.  Only ERROR gates (`LintReport.ok`)."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Sort key: most severe first."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]


class LintError(RuntimeError):
    """Raised when a flow refuses to proceed past ERROR-severity findings."""


@dataclass(frozen=True)
class Finding(JsonRecord):
    """One rule violation (or observation) at one subject.

    Attributes:
        rule: Stable rule id (see the registry in :mod:`repro.analyze.rules`).
        severity: Effective severity of *this* finding (rules may downgrade).
        message: Human-readable description of the defect.
        subject: The design object the finding anchors to (net, instance,
            chain, clock-domain pair, plan job id, ...).
        data: JSON-safe structured details (counts, member lists, costs).
        waived: True when a :class:`Waiver` matched; waived findings never
            count toward ``errors``/``warnings`` or gate a flow.
        waived_reason: The matching waiver's reason, for audit trails.
    """

    rule: str
    severity: Severity
    message: str
    subject: str = ""
    data: Mapping[str, Any] = field(default_factory=dict)
    waived: bool = False
    waived_reason: str = ""

    def __str__(self) -> str:
        tag = " [waived]" if self.waived else ""
        return f"[{self.severity.value}]{tag} {self.rule}: {self.message} ({self.subject})"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Finding":
        """Rebuild a finding; its JSON form holds the severity's value (a
        :class:`Severity` is a ``str``, so ``to_dict`` needs no override)."""
        return super().from_dict({**data, "severity": Severity(data["severity"])})


@dataclass(frozen=True)
class Waiver(JsonRecord):
    """A per-design exemption: ``rule`` and ``subject`` are glob patterns.

    ``Waiver("dangling-output", "dbg_*", reason="debug taps")`` waives every
    dangling-output finding whose subject starts with ``dbg_``;
    ``Waiver("edt-*")`` waives all EDT findings on any subject.
    """

    rule: str
    subject: str = "*"
    reason: str = ""

    def matches(self, finding: Finding) -> bool:
        return fnmatchcase(finding.rule, self.rule) and fnmatchcase(
            finding.subject, self.subject
        )



def apply_waivers(
    findings: Iterable[Finding], waivers: Iterable[Waiver]
) -> list[Finding]:
    """Return findings with ``waived``/``waived_reason`` set where one matches."""
    waiver_list = list(waivers)
    out: list[Finding] = []
    for finding in findings:
        matched = next((w for w in waiver_list if w.matches(finding)), None)
        if matched is not None and not finding.waived:
            finding = replace(finding, waived=True, waived_reason=matched.reason)
        out.append(finding)
    return out


@dataclass
class LintReport(JsonRecord):
    """Aggregated result of one lint run over one target.

    Attributes:
        target: Name of the linted object (design, netlist or plan name).
        findings: Every finding, waived or not, most severe first.
        rules_run: Ids of the rules that actually executed (rules whose
            required context was missing are *not* listed — an empty finding
            list only means "clean" for the rules in this tuple).
        waivers: The waivers that were in force during the run.
    """

    nested = {"findings": Finding, "waivers": Waiver}

    target: str
    findings: list[Finding] = field(default_factory=list)
    rules_run: tuple[str, ...] = ()
    waivers: tuple[Waiver, ...] = ()

    # ------------------------------------------------------------------ views
    def active(self) -> list[Finding]:
        """Findings not suppressed by a waiver."""
        return [f for f in self.findings if not f.waived]

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.active() if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.active() if f.severity is Severity.WARNING]

    @property
    def infos(self) -> list[Finding]:
        return [f for f in self.active() if f.severity is Severity.INFO]

    @property
    def waived(self) -> list[Finding]:
        return [f for f in self.findings if f.waived]

    @property
    def ok(self) -> bool:
        """True when no unwaived ERROR-severity finding exists."""
        return not self.errors

    def by_rule(self) -> dict[str, list[Finding]]:
        grouped: dict[str, list[Finding]] = {}
        for finding in self.findings:
            grouped.setdefault(finding.rule, []).append(finding)
        return grouped

    def counts(self) -> dict[str, int]:
        """Severity histogram over active findings (plus ``waived``)."""
        return {
            "error": len(self.errors),
            "warning": len(self.warnings),
            "info": len(self.infos),
            "waived": len(self.waived),
        }

    # ------------------------------------------------------------- composition
    def merged_with(self, other: "LintReport") -> "LintReport":
        """This report plus another's findings (rules/waivers unioned)."""
        merged = LintReport(
            target=self.target or other.target,
            findings=list(self.findings) + list(other.findings),
            rules_run=tuple(dict.fromkeys(self.rules_run + other.rules_run)),
            waivers=tuple(dict.fromkeys(self.waivers + other.waivers)),
        )
        merged.sort()
        return merged

    def sort(self) -> None:
        self.findings.sort(key=lambda f: (f.severity.rank, f.rule, f.subject))

    # ------------------------------------------------------------------ gating
    def raise_on_error(self) -> None:
        """Raise :class:`LintError` when unwaived ERROR findings exist."""
        if not self.ok:
            summary = "; ".join(str(f) for f in self.errors[:5])
            raise LintError(
                f"lint of {self.target!r} failed with "
                f"{len(self.errors)} error(s): {summary}"
            )

    # -------------------------------------------------------------- rendering
    def format_table(self) -> str:
        """Fixed-width text rendering (severity / rule / subject / message)."""
        headers = ("severity", "rule", "subject", "message")
        rows = [
            (
                f"{f.severity.value}{' (waived)' if f.waived else ''}",
                f.rule,
                f.subject,
                f.message,
            )
            for f in self.findings
        ]
        if not rows:
            rows = [("-", "-", "-", "no findings")]
        widths = [
            max(len(headers[col]), *(len(row[col]) for row in rows))
            for col in range(len(headers))
        ]
        lines = [f"Lint report: {self.target}"]
        lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        counts = self.counts()
        lines.append(
            f"{counts['error']} error(s), {counts['warning']} warning(s), "
            f"{counts['info']} info(s), {counts['waived']} waived "
            f"({len(self.rules_run)} rules run)"
        )
        return "\n".join(lines)
