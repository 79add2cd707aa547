"""The static untestability prover: soundness, ATPG pruning, backend-
identical accounting, and agreement with the structural fault classifier."""

from __future__ import annotations

import pytest

from repro.analyze import cross_check_with_classifier, prove_untestable, prune_fault_list
from repro.api import TestSession, design_names, get_scenario, prepare_from_spec
from repro.atpg import AtpgOptions
from repro.atpg.stuck_at import StuckAtAtpg
from repro.engine.scheduler import BACKENDS
from repro.faults.classify import ClassifierContext, FaultClassifier
from repro.faults.fault_list import FaultList, FaultStatus
from repro.faults.models import all_stuck_at_faults, all_transition_faults
from repro.netlist import FlipFlop, Gate, GateType, Netlist
from repro.simulation import build_model

CHEAP = AtpgOptions(
    random_pattern_batches=2, patterns_per_batch=16, backtrack_limit=16,
)


def _setup_for(prepared, options=CHEAP):
    return get_scenario("table1-a").build_setup(prepared, options)


def _classifier_for(prepared, setup):
    context = ClassifierContext(
        netlist=prepared.netlist,
        model=prepared.model,
        domain_map=prepared.domain_map,
        at_speed_domains=setup.at_speed_domains,
        inter_domain_allowed=any(p.is_inter_domain for p in setup.procedures),
        observe_pos=setup.observe_pos,
        scan_enable_net=setup.scan_enable_net,
        scan_enable_constrained=setup.constrain_scan_enable,
        constrained_pins=setup.pin_constraints,
        max_pulses=setup.max_pulses,
    )
    return FaultClassifier(context)


# ---------------------------------------------------------------------------
# Proof production
# ---------------------------------------------------------------------------
def test_prover_finds_untestable_faults_on_scan_design(tiny_prepared):
    setup = _setup_for(tiny_prepared)
    report = prove_untestable(tiny_prepared.model, setup=setup)
    assert report.num_untestable > 0
    assert set(report.by_reason()) <= {"constant-line", "unobservable"}
    assert report.total_faults >= report.num_untestable
    # The scan-enable constraint makes scan-mux shift pins unobservable
    # during capture: at least one proof must be of that kind.
    assert report.by_reason().get("unobservable", 0) > 0


def test_prover_is_deterministic(tiny_prepared):
    setup = _setup_for(tiny_prepared)
    first = prove_untestable(tiny_prepared.model, setup=setup)
    second = prove_untestable(tiny_prepared.model, setup=setup)
    assert first.proven_faults() == second.proven_faults()
    assert [p.reason for p in first.proofs] == [p.reason for p in second.proofs]


def test_constant_line_redundancy_from_tie_cell():
    netlist = Netlist("tied")
    netlist.add_input("a")
    netlist.declare_clock("clk")
    netlist.add_gate(Gate("t0", GateType.TIE0, (), "zero"))
    netlist.add_gate(Gate("g", GateType.AND, ("a", "zero"), "y"))
    netlist.add_flop(FlipFlop(name="ff", d="y", q="q", clock="clk"))
    netlist.add_output("q")
    model = build_model(netlist)

    stuck = prove_untestable(model, all_stuck_at_faults(model))
    reasons = {p.reason for p in stuck.proofs}
    assert "constant-line" in reasons
    details = " | ".join(p.detail for p in stuck.proofs if p.reason == "constant-line")
    assert "'zero'" in details or "'y'" in details

    # A constant line of either polarity kills both transition directions.
    transition = prove_untestable(model, all_transition_faults(model))
    assert any(p.reason == "constant-line" for p in transition.proofs)


def test_prune_marks_faults_untestable_with_proof_group(tiny_prepared):
    setup = _setup_for(tiny_prepared)
    fault_list = FaultList(all_stuck_at_faults(tiny_prepared.model))
    report = prune_fault_list(fault_list, tiny_prepared.model, setup=setup)
    assert report.num_untestable > 0
    coverage = fault_list.coverage()
    assert coverage.untestable == report.num_untestable
    for proof in report.proofs:
        record = fault_list.record(proof.fault)
        assert record.status is FaultStatus.UNTESTABLE
        assert record.group == f"proven-{proof.reason}"
    # Untestable faults leave the test-coverage denominator.
    assert coverage.total_faults - coverage.untestable < coverage.total_faults


# ---------------------------------------------------------------------------
# Soundness: no proven fault is ever detected by real ATPG
# ---------------------------------------------------------------------------
def test_proofs_are_sound_against_unpruned_atpg(tiny_prepared):
    setup = _setup_for(tiny_prepared, AtpgOptions(
        random_pattern_batches=4, patterns_per_batch=32, backtrack_limit=32,
    ))
    proven = prove_untestable(tiny_prepared.model, setup=setup)
    result = StuckAtAtpg(
        tiny_prepared.model, tiny_prepared.domain_map, setup
    ).run()
    detected = set(result.fault_list.with_status(FaultStatus.DETECTED))
    # collapse maps the uncollapsed universe onto representatives; compare
    # on the representative set the generator actually targeted.
    overlap = detected & proven.proven_faults()
    assert overlap == set(), f"prover claimed detected faults untestable: {overlap}"


# ---------------------------------------------------------------------------
# ATPG integration: bit-identical accounting across every backend
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backends", [BACKENDS])
def test_pruned_coverage_bit_identical_across_backends(backends):
    results = {}
    for backend in backends:
        options = AtpgOptions(
            prune_untestable=True, sim_backend=backend,
            random_pattern_batches=2, patterns_per_batch=16, backtrack_limit=16,
        )
        session = TestSession.for_design("tiny", options=options).add_scenario(
            "table1-a"
        )
        session.run()
        result = session.artifacts["table1-a"].result
        assert result.stats.proven_untestable > 0
        results[backend] = (
            result.coverage.as_dict(),
            result.pattern_count,
            result.stats.proven_untestable,
        )
    reference = results[backends[0]]
    for backend in backends[1:]:
        assert results[backend] == reference, (
            f"{backend} accounting diverged from {backends[0]}"
        )


def test_prune_option_defaults_off(tiny_prepared):
    setup = _setup_for(tiny_prepared)
    assert setup.options.prune_untestable is False
    generator = StuckAtAtpg(tiny_prepared.model, tiny_prepared.domain_map, setup)
    assert generator.stats.proven_untestable == 0
    assert not generator.fault_list.with_status(FaultStatus.UNTESTABLE)


# ---------------------------------------------------------------------------
# Classifier agreement over the whole design registry
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", design_names())
def test_classifier_agrees_on_registry_design(name):
    prepared = prepare_from_spec(name)
    setup = _setup_for(prepared)
    report = prove_untestable(prepared.model, setup=setup)
    classifier = _classifier_for(prepared, setup)
    histogram = cross_check_with_classifier(report, classifier)
    # Every proven fault lands in a classifier group — the prover never
    # proves a fault the classifier has no structural explanation for.
    assert sum(histogram.values()) == report.num_untestable
    assert all(isinstance(group, str) and group for group in histogram)


def test_some_registry_design_has_nonempty_prune_set():
    totals = {}
    for name in design_names():
        prepared = prepare_from_spec(name)
        report = prove_untestable(prepared.model, setup=_setup_for(prepared))
        totals[name] = report.num_untestable
    assert any(count > 0 for count in totals.values()), totals
