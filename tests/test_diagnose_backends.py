"""Diagnosis acceptance: rank-1 recovery on every registry design, and
bit-identical candidate rankings across both engine backends.

For each registered design and each defect family (stuck-at, transition,
inter-domain) a single defect is injected, its fail log captured, and the
Table 1 scenario's pattern set diagnosed on every engine backend
(``repro.engine.scheduler.BACKENDS``) — every backend must produce the
identical ranking, with the injected defect at rank 1.
"""

from __future__ import annotations

import pytest

from repro.api import TestSession
from repro.api.design import design_names
from repro.api.scenarios import table1_scenario
from repro.atpg import AtpgOptions
from repro.diagnose import DefectSpec, DiagnosisSpec, capture_fail_log, run_diagnosis
from repro.engine.scheduler import BACKENDS as ALL_BACKENDS
from repro.faults.fault_list import FaultStatus

#: Minimal ATPG effort: diagnosis needs a *detected* defect, not coverage.
ULTRA = AtpgOptions(
    random_pattern_batches=1, patterns_per_batch=16, backtrack_limit=8,
    max_patterns=24,
)

#: Table 1 scenario exercising each defect family: stuck-at patterns for
#: stuck-at defects, the simple-CPF transition scenario for gross delay
#: defects, the enhanced-CPF scenario (the only one with inter-domain
#: launch/capture procedures) for inter-domain delay defects.
SCENARIO_OF_KIND = {"stuck-at": "a", "transition": "c", "inter-domain": "d"}

_ENVS: dict[tuple[str, str], tuple] = {}
_SESSIONS: dict[str, TestSession] = {}


def scenario_env(design: str, letter: str):
    """One executed (design, Table 1 scenario) cell, cached for the module."""
    key = (design, letter)
    if key not in _ENVS:
        session = _SESSIONS.get(design)
        if session is None:
            session = _SESSIONS[design] = TestSession.for_design(design, options=ULTRA)
        spec = table1_scenario(letter)
        if spec.name not in session.artifacts:
            session.run_scenario(spec)
        run = session.artifacts[spec.name]
        setup = spec.build_setup(session.prepared, ULTRA)
        _ENVS[key] = (session, spec, run, setup)
    return _ENVS[key]


def pick_defect(kind: str, session, spec, run, setup) -> DefectSpec:
    """A defect of the given family the pattern set provably exposes."""
    prepared = session.prepared
    result = session.result_of(spec.name)
    detected = result.fault_list.with_status(FaultStatus.DETECTED)
    assert detected, f"nothing detected on {prepared.netlist.name}/{spec.name}"
    # Start mid-list for variety; wrap around so a fail-log-visible defect is
    # always found.  Inter-domain defects stay silent unless an inter-domain
    # pattern exposes them, so faults whose recorded detecting pattern used an
    # inter-domain launch/capture procedure are probed first.
    start = len(detected) // 2
    ordered = detected[start:] + detected[:start]
    if kind == "inter-domain":
        patterns = run.patterns.patterns()
        fault_list = result.fault_list

        def detected_inter_domain(fault) -> bool:
            index = fault_list.record(fault).detected_by
            return (
                index is not None
                and index < len(patterns)
                and patterns[index].procedure.is_inter_domain
            )

        ordered = [f for f in ordered if detected_inter_domain(f)] + ordered
    for fault in ordered[:64]:
        defect = DefectSpec.from_fault(
            prepared.model, fault, inter_domain=(kind == "inter-domain")
        )
        log = capture_fail_log(
            prepared.model, prepared.domain_map, prepared.scan, setup,
            run.patterns, defect,
        )
        if log.num_fails:
            return defect
    raise AssertionError(f"no {kind} defect visible on {prepared.netlist.name}")


@pytest.mark.parametrize("design", design_names())
@pytest.mark.parametrize("kind", sorted(SCENARIO_OF_KIND))
def test_injected_defect_rank_1_on_all_backends(design, kind):
    session, spec, run, setup = scenario_env(design, SCENARIO_OF_KIND[kind])
    defect = pick_defect(kind, session, spec, run, setup)
    results = {}
    for backend in ALL_BACKENDS:
        results[backend] = run_diagnosis(
            session.prepared, setup, run.patterns,
            DiagnosisSpec(scenario=spec.name, defect=defect, backend=backend),
            options=ULTRA,
        )
    reference = results["compiled"]
    assert reference.rank_of_defect == 1, (
        f"{design}/{kind}: {defect.describe()} recovered at rank "
        f"{reference.rank_of_defect}"
    )
    top = reference.candidates[0]
    assert top.misses == 0 and top.false_alarms == 0
    for backend, result in results.items():
        assert result.rank_of_defect == 1, f"{design}/{kind}/{backend}"
        # Bit-identical syndrome scores, not merely the same rank order.
        assert result.same_ranking(reference), f"{design}/{kind}/{backend}"


def test_syndrome_batch_consistent_with_detect_batch():
    """Engine-level contract: OR of syndrome_batch == detect_batch, on every
    backend, for both fault models."""
    from repro.engine import FaultSimScheduler
    from repro.fault_sim import FrameSimulator
    from repro.faults import all_stuck_at_faults, all_transition_faults

    session, spec, run, setup = scenario_env("tiny", "c")
    model = session.prepared.model
    procedure = run.patterns[0].procedure
    batch = [p for p in run.patterns if p.procedure.name == procedure.name][:16]
    stuck = all_stuck_at_faults(model)[::37][:20]
    transition = all_transition_faults(model)[::37][:20]
    reference = None
    for backend in ALL_BACKENDS:
        scheduler = FaultSimScheduler(model, backend=backend)
        frames_sim = FrameSimulator(model, session.prepared.domain_map, setup, scheduler)
        frames = frames_sim.frame_values_packed(batch, procedure)
        launch = frames[procedure.launch_frame]
        final = frames[procedure.capture_frame]
        observation = frames_sim.observation_nodes(procedure)
        outcome = []
        for faults, launch_planes in ((stuck, None), (transition, launch)):
            syndromes = scheduler.syndrome_batch(
                final, faults, observation, launch=launch_planes
            )
            detects = scheduler.detect_batch(
                final, faults, observation, launch=launch_planes
            )
            for masks, detect in zip(syndromes, detects):
                merged = 0
                for mask in masks:
                    merged |= mask
                assert merged == detect
            outcome.append(syndromes)
        if reference is None:
            reference = outcome
        else:
            assert outcome == reference, backend
