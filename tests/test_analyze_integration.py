"""Front-door integration of repro.analyze: TestSession.lint, linting a
prepared design, the campaign pre-flight gate, and plan linting."""

from __future__ import annotations

import pytest

from repro.analyze import LintError, LintReport, lint_design, lint_plan
from repro.api import Campaign, TestSession, prepare_design, prepare_from_spec
from repro.atpg import AtpgOptions
from repro.netlist import Gate, GateType
from repro.runtime import Job, Plan

CHEAP = AtpgOptions(
    random_pattern_batches=1, patterns_per_batch=8, backtrack_limit=4,
    max_patterns=4,
)


def _sabotage_with_loop(prepared):
    """Plant a combinational cycle in an already prepared design's netlist."""
    netlist = prepared.netlist
    inp = next(iter(netlist.inputs))
    netlist.add_gate(Gate("sab1", GateType.AND, (inp, "sab_n2"), "sab_n1"))
    netlist.add_gate(Gate("sab2", GateType.AND, ("sab_n1", inp), "sab_n2"))
    return prepared


# ---------------------------------------------------------------------------
# TestSession.lint
# ---------------------------------------------------------------------------
def test_session_lint_without_scenarios(tiny_prepared):
    report = TestSession.from_prepared(tiny_prepared, CHEAP).lint()
    assert isinstance(report, LintReport)
    assert report.ok, report.format_table()
    assert "x-source" in report.rules_run


def test_session_lint_uses_first_scenario_setup(tiny_prepared):
    session = TestSession.from_prepared(tiny_prepared, CHEAP).add_scenario("table1-a")
    report = session.lint()
    assert report.ok
    # With a setup bound, the setup-dependent rules execute too.
    assert "cdc-uncovered" in report.rules_run
    # The prover summary runs under the scenario's constraints.
    untestable = report.by_rule().get("untestable-faults", [])
    assert untestable and "provably untestable" in untestable[0].message


def test_session_lint_reports_seeded_error():
    prepared = _sabotage_with_loop(prepare_design(size=1, seed=7, num_chains=4))
    report = TestSession.from_prepared(prepared, CHEAP).lint()
    assert not report.ok
    assert any(f.rule == "combinational-loop" for f in report.errors)
    with pytest.raises(LintError):
        report.raise_on_error()


# ---------------------------------------------------------------------------
# Structural lint of a prepared design
# ---------------------------------------------------------------------------
def test_prepared_design_structural_lint():
    report = lint_design(
        prepare_from_spec("tiny"), categories=("netlist", "scan", "edt")
    )
    assert isinstance(report, LintReport)
    assert report.ok


# ---------------------------------------------------------------------------
# Campaign pre-flight gate
# ---------------------------------------------------------------------------
def test_campaign_lint_gate_passes_clean_design():
    campaign = Campaign(["tiny"], ["table1-a"], CHEAP).with_lint()
    report = campaign.run()
    assert len(report) == 1
    assert campaign.lint_reports["tiny"].ok


def test_campaign_lint_gate_fails_fast_on_error():
    prepared = _sabotage_with_loop(prepare_design(size=1, seed=9, num_chains=4))
    campaign = Campaign([prepared], ["table1-a"], CHEAP).with_lint()
    with pytest.raises(LintError, match="pre-flight lint failed"):
        campaign.run()
    # The gate fired before any cell executed.
    assert campaign.artifacts == {}
    assert campaign.report is None
    (lint_report,) = campaign.lint_reports.values()
    assert any(f.rule == "combinational-loop" for f in lint_report.errors)


def test_campaign_without_lint_gate_never_materializes_for_lint():
    campaign = Campaign(["tiny"], ["table1-a"], CHEAP)
    campaign.run()
    assert campaign.lint_reports == {}


# ---------------------------------------------------------------------------
# Plan linting and Plan.validate
# ---------------------------------------------------------------------------
def test_plan_validate_accepts_well_formed_graph():
    plan = Plan(
        name="good",
        jobs=(
            Job(id="a", kind="scenario"),
            Job(id="b", kind="scenario", deps=("a",)),
        ),
    )
    plan.validate()  # construction already ran it; idempotent and quiet
    assert lint_plan(plan).ok


def test_plan_construction_rejects_graph_defects():
    with pytest.raises(ValueError, match="duplicate job ids"):
        Plan(name="dupes", jobs=(Job(id="a", kind="k"), Job(id="a", kind="k")))
    with pytest.raises(ValueError, match="unknown job"):
        Plan(name="dangling", jobs=(Job(id="a", kind="k", deps=("ghost",)),))


def test_lint_plan_flags_graph_defects_on_plan_dicts():
    plan_dict = {
        "name": "broken",
        "jobs": [
            {"id": "a", "kind": "k", "deps": ["b"]},
            {"id": "b", "kind": "k", "deps": ["a"]},
            {"id": "b", "kind": "k", "deps": []},
            {"id": "c", "kind": "k", "deps": ["ghost"]},
        ],
    }
    report = lint_plan(plan_dict)
    rules = {f.rule for f in report.errors}
    assert rules == {"plan-duplicate-job", "plan-unknown-dep", "plan-cycle"}
    assert not report.ok


def test_lint_plan_flags_cache_key_collisions():
    plan = Plan(
        name="collide",
        jobs=(
            Job(id="a", kind="scenario", params={"design": "x"}, cache_key="K"),
            Job(id="b", kind="scenario", params={"design": "y"}, cache_key="K"),
            Job(id="c", kind="scenario", params={"design": "x"}, cache_key="other"),
        ),
    )
    report = lint_plan(plan)
    collisions = report.by_rule().get("plan-cache-collision", [])
    assert len(collisions) == 1
    assert "K" in collisions[0].message or collisions[0].subject == "K"


def test_session_plan_lints_clean(tiny_prepared):
    session = TestSession.from_prepared(tiny_prepared, CHEAP).add_scenario("table1-a")
    assert lint_plan(session.plan()).ok
