"""Front-door lint entry points: netlist, prepared design, plan.

These wrap :func:`repro.analyze.rules.run_rules` with the right context and
category selection; the API layer (``TestSession.lint``, the design
pipeline's lint stage, the campaign pre-flight gate) calls through here.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.analyze.report import LintReport, Waiver
from repro.analyze.rules import AnalysisContext, run_rules
from repro.netlist.netlist import Netlist

#: Categories that apply to a design (everything except plan linting).
DESIGN_CATEGORIES: tuple[str, ...] = (
    "netlist",
    "scan",
    "clocking",
    "edt",
    "testability",
)


def lint_netlist(
    netlist: Netlist,
    *,
    allow_floating_inputs: bool = False,
    waivers: Sequence[Waiver] = (),
) -> LintReport:
    """Run the netlist-structure rules over one editable netlist."""
    context = AnalysisContext.for_netlist(
        netlist, allow_floating_inputs=allow_floating_inputs
    )
    return run_rules(context, categories=("netlist",), waivers=waivers)


def lint_design(
    prepared: Any,
    setup: Any | None = None,
    *,
    waivers: Sequence[Waiver] = (),
    categories: Sequence[str] | None = None,
) -> LintReport:
    """Full static analysis of a prepared design.

    Args:
        prepared: A :class:`~repro.api.design.PreparedDesign` (or anything
            exposing ``netlist``/``model``/``scan``/``domain_map``/``edt``).
        setup: Optional :class:`~repro.atpg.config.TestSetup`; without it
            the setup-dependent rules (CDC coverage, constraint-aware
            testability) run unconstrained or are skipped.
        waivers: Per-design exemptions.
        categories: Restrict to these rule categories (default: every
            design category).

    Returns:
        One merged :class:`LintReport` for the design.
    """
    context = AnalysisContext.for_prepared(prepared, setup=setup)
    return run_rules(
        context,
        categories=tuple(categories) if categories is not None else DESIGN_CATEGORIES,
        waivers=waivers,
    )


def lint_plan(plan: Any, *, waivers: Sequence[Waiver] = ()) -> LintReport:
    """Lint a runtime :class:`~repro.runtime.plan.Plan` or a plan-shaped
    mapping (``Plan.to_dict`` form)."""
    context = AnalysisContext.for_plan(plan)
    return run_rules(context, categories=("plan",), waivers=waivers)
