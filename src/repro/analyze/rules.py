"""Rule registry and analysis context for the static analysis plane.

A :class:`Rule` packages one check: a stable id, a default severity, the
category it belongs to (``netlist``, ``scan``, ``clocking``, ``edt``,
``testability``, ``plan``) and the tuple of :class:`AnalysisContext`
attributes it *requires*.  :func:`run_rules` selects the applicable rules
for a context — a rule whose requirements are missing is silently skipped
and therefore absent from ``LintReport.rules_run`` — executes them in a
deterministic order and folds waivers into the resulting report.

Rules are registered at import time by the sibling ``*_rules`` modules via
the :func:`rule` decorator; custom project rules can register the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.analyze.report import Finding, LintReport, Severity, Waiver, apply_waivers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.atpg.config import TestSetup
    from repro.clocking.domains import ClockDomainMap
    from repro.dft.edt import EdtArchitecture
    from repro.dft.scan import ScanArchitecture
    from repro.netlist.netlist import Netlist
    from repro.simulation.model import CircuitModel

#: Every category a built-in rule may belong to, in report order.
CATEGORIES: tuple[str, ...] = (
    "netlist",
    "scan",
    "clocking",
    "edt",
    "testability",
    "plan",
)


@dataclass
class AnalysisContext:
    """Everything a rule may look at.  All fields optional — rules declare
    what they need via ``Rule.requires`` and are skipped when it is absent.

    Attributes:
        netlist: Editable netlist view of the design.
        model: Levelized :class:`CircuitModel` (structural analyses).
        scan: Scan architecture (chain rules).
        domain_map: Clock-domain assignment (CDC rules).
        edt: EDT compression hardware (blockage rules).
        setup: ATPG constraint environment — capture procedures, pin
            constraints, output strobing (CDC coverage, SCOAP, prover).
        plan: A runtime :class:`~repro.runtime.plan.Plan` *or* a plan-shaped
            mapping (``Plan.to_dict`` form); mappings allow linting job
            graphs that would not survive ``Plan`` construction.
        design: Label used as the report target and in findings.
        allow_floating_inputs: Downgrades ``undriven-net`` to WARNING.
        hotspot_threshold: Minimum finite SCOAP cost to report as a hotspot.
        hotspot_limit: Maximum number of hotspot findings.
    """

    netlist: "Netlist | None" = None
    model: "CircuitModel | None" = None
    scan: "ScanArchitecture | None" = None
    domain_map: "ClockDomainMap | None" = None
    edt: "EdtArchitecture | None" = None
    setup: "TestSetup | None" = None
    plan: Any | None = None
    design: str = ""
    allow_floating_inputs: bool = False
    hotspot_threshold: int = 50
    hotspot_limit: int = 10

    @classmethod
    def for_netlist(
        cls, netlist: "Netlist", *, allow_floating_inputs: bool = False
    ) -> "AnalysisContext":
        return cls(
            netlist=netlist,
            design=netlist.name,
            allow_floating_inputs=allow_floating_inputs,
        )

    @classmethod
    def for_prepared(
        cls, prepared: Any, setup: "TestSetup | None" = None
    ) -> "AnalysisContext":
        """Context over a :class:`~repro.api.design.PreparedDesign` bundle
        (duck-typed: anything exposing netlist/model/scan/domain_map/edt)."""
        netlist = getattr(prepared, "netlist", None)
        name = ""
        spec = getattr(prepared, "spec", None)
        if spec is not None:
            name = getattr(spec, "name", "")
        if not name and netlist is not None:
            name = netlist.name
        return cls(
            netlist=netlist,
            model=getattr(prepared, "model", None),
            scan=getattr(prepared, "scan", None),
            domain_map=getattr(prepared, "domain_map", None),
            edt=getattr(prepared, "edt", None),
            setup=setup,
            design=name,
        )

    @classmethod
    def for_plan(cls, plan: Any) -> "AnalysisContext":
        name = getattr(plan, "name", None)
        if name is None and isinstance(plan, dict):
            name = plan.get("name", "")
        return cls(plan=plan, design=str(name or "plan"))


#: A rule body: reads the context, yields findings.
CheckFn = Callable[[AnalysisContext], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered static check.

    Attributes:
        id: Stable identifier; findings carry it and waivers match on it.
        severity: Default severity (a check may emit a different one, e.g.
            ``undriven-net`` downgrades under ``allow_floating_inputs``).
        category: Grouping used for selection (see :data:`CATEGORIES`).
        description: One-line summary for the rule catalogue.
        check: The callable that produces findings.
        requires: Context attributes that must be non-``None`` for the rule
            to run.
    """

    id: str
    severity: Severity
    category: str
    description: str
    check: CheckFn
    requires: tuple[str, ...] = ("netlist",)

    def applicable(self, context: AnalysisContext) -> bool:
        return all(getattr(context, attr, None) is not None for attr in self.requires)


#: Global registry: rule id -> Rule.
RULES: dict[str, Rule] = {}


class RuleNotFound(KeyError):
    """Raised when a rule id is not registered."""


def register_rule(rule_obj: Rule) -> Rule:
    """Register a rule; ids must be unique and categories known strings."""
    if rule_obj.id in RULES:
        raise ValueError(f"rule id {rule_obj.id!r} is already registered")
    RULES[rule_obj.id] = rule_obj
    return rule_obj


def rule(
    id: str,
    *,
    severity: Severity,
    category: str,
    description: str,
    requires: Sequence[str] = ("netlist",),
) -> Callable[[CheckFn], CheckFn]:
    """Decorator form of :func:`register_rule`."""

    def _register(fn: CheckFn) -> CheckFn:
        register_rule(
            Rule(
                id=id,
                severity=severity,
                category=category,
                description=description,
                check=fn,
                requires=tuple(requires),
            )
        )
        return fn

    return _register


def get_rule(rule_id: str) -> Rule:
    try:
        return RULES[rule_id]
    except KeyError:
        raise RuleNotFound(
            f"no rule registered with id {rule_id!r} "
            f"(known: {sorted(RULES) or '<none>'})"
        ) from None


def all_rules(category: str | None = None) -> list[Rule]:
    """Registered rules, deterministically ordered (category, then id)."""
    selected = [
        r for r in RULES.values() if category is None or r.category == category
    ]
    order = {name: index for index, name in enumerate(CATEGORIES)}
    selected.sort(key=lambda r: (order.get(r.category, len(order)), r.id))
    return selected


def rule_catalogue() -> list[dict[str, str]]:
    """JSON-safe catalogue of every registered rule (docs, ``--list-rules``)."""
    return [
        {
            "id": r.id,
            "severity": r.severity.value,
            "category": r.category,
            "description": r.description,
            "requires": ", ".join(r.requires),
        }
        for r in all_rules()
    ]


def run_rules(
    context: AnalysisContext,
    *,
    rules: Sequence[str] | None = None,
    categories: Sequence[str] | None = None,
    waivers: Sequence[Waiver] = (),
    target: str = "",
) -> LintReport:
    """Run every applicable rule against ``context`` and build the report.

    Args:
        context: The analysis context.
        rules: Explicit rule ids to run (mutually exclusive with
            ``categories``; unknown ids raise :class:`RuleNotFound`).
        categories: Restrict to these categories (default: all).
        waivers: Waivers folded into the findings.
        target: Report target label (defaults to ``context.design``).

    Returns:
        The :class:`LintReport`; ``rules_run`` lists only the rules whose
        context requirements were satisfied.
    """
    if rules is not None and categories is not None:
        raise ValueError("pass either rules= or categories=, not both")
    if rules is not None:
        selected = [get_rule(rule_id) for rule_id in rules]
    else:
        wanted = set(categories) if categories is not None else None
        selected = [
            r for r in all_rules() if wanted is None or r.category in wanted
        ]
    findings: list[Finding] = []
    rules_run: list[str] = []
    for rule_obj in selected:
        if not rule_obj.applicable(context):
            continue
        rules_run.append(rule_obj.id)
        findings.extend(rule_obj.check(context))
    report = LintReport(
        target=target or context.design,
        findings=apply_waivers(findings, waivers),
        rules_run=tuple(rules_run),
        waivers=tuple(waivers),
    )
    report.sort()
    return report


__all__ = [
    "AnalysisContext",
    "CATEGORIES",
    "CheckFn",
    "Finding",
    "Rule",
    "RuleNotFound",
    "RULES",
    "all_rules",
    "get_rule",
    "register_rule",
    "rule",
    "rule_catalogue",
    "run_rules",
]
