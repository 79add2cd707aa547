"""Volume-BP acceptance: single-defect rank-1 parity with the legacy
ranking on every registry design, bit-identical BP verdicts across both
engine backends, and multi-defect set recovery.

Mirrors ``tests/test_diagnose_backends.py``: one defect per family is
injected per design, its fail log captured, and the BP diagnosis must put
it at rank 1 (matching or beating the classical ranking) with an identical
candidate table on every engine backend (``repro.engine.scheduler.BACKENDS``).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import TestSession
from repro.api.design import design_names
from repro.api.scenarios import table1_scenario
from repro.atpg import AtpgOptions
from repro.diagnose import DefectSpec, DiagnosisSpec, capture_fail_log, run_diagnosis
from repro.engine.scheduler import BACKENDS as ALL_BACKENDS
from repro.faults.fault_list import FaultStatus
from repro.runtime import Executor
from repro.serve import ServeClient, ServeServer
from repro.volume import (
    FailLogStore,
    VolumeSpec,
    execute_volume_plan,
    run_bp_diagnosis,
    submit_volume,
    volume_plan,
)

#: Minimal ATPG effort: diagnosis needs a *detected* defect, not coverage.
ULTRA = AtpgOptions(
    random_pattern_batches=1, patterns_per_batch=16, backtrack_limit=8,
    max_patterns=24,
)

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


def visible_defects(kind: str, session, spec, run, setup, count=1):
    """``count`` distinct defects of the family the patterns provably expose."""
    prepared = session.prepared
    result = session.result_of(spec.name)
    detected = result.fault_list.with_status(FaultStatus.DETECTED)
    assert detected, f"nothing detected on {prepared.netlist.name}/{spec.name}"
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
    found: list[DefectSpec] = []
    for fault in ordered[:96]:
        defect = DefectSpec.from_fault(
            prepared.model, fault, inter_domain=(kind == "inter-domain")
        )
        if any(defect == seen for seen in found):
            continue
        log = capture_fail_log(
            prepared.model, prepared.domain_map, prepared.scan, setup,
            run.patterns, defect,
        )
        if log.num_fails:
            found.append(defect)
        if len(found) == count:
            return found
    raise AssertionError(
        f"only {len(found)}/{count} {kind} defects visible on "
        f"{prepared.netlist.name}"
    )


@pytest.mark.parametrize("design", design_names())
@pytest.mark.parametrize("kind", sorted(SCENARIO_OF_KIND))
def test_bp_single_defect_rank_1_on_all_backends(design, kind):
    """BP matches or beats the legacy ranking and is backend-invariant."""
    session, spec, run, setup = scenario_env(design, SCENARIO_OF_KIND[kind])
    (defect,) = visible_defects(kind, session, spec, run, setup)
    legacy = run_diagnosis(
        session.prepared, setup, run.patterns,
        DiagnosisSpec(scenario=spec.name, defect=defect, backend="compiled"),
        options=ULTRA,
    )
    results = {}
    for backend in ALL_BACKENDS:
        results[backend] = run_bp_diagnosis(
            session.prepared, setup, run.patterns,
            DiagnosisSpec(scenario=spec.name, defect=defect, backend=backend),
            options=ULTRA,
        )
    reference = results["compiled"]
    assert reference.rank_of_defect == 1, (
        f"{design}/{kind}: {defect.describe()} at BP rank "
        f"{reference.rank_of_defect}"
    )
    assert legacy.rank_of_defect is not None
    assert reference.rank_of_defect <= legacy.rank_of_defect
    assert reference.converged, f"{design}/{kind}: BP diverged"
    # The injected defect's row must be part of the selected cover (possibly
    # through its syndrome-equivalence class).
    assert reference.recovered_all_defects(), f"{design}/{kind}"
    for backend, result in results.items():
        assert result.rank_of_defect == 1, f"{design}/{kind}/{backend}"
        assert result.same_ranking(reference), f"{design}/{kind}/{backend}"
        assert result.ambiguous_pairs == reference.ambiguous_pairs


def test_bp_multi_defect_selects_both_true_defects():
    """Two injected defects, one two-defect capture: both true defects must
    land in the selected set with confidence at least that of the best
    *non-selected* candidate.

    The comparison is against non-SELECTED candidates on purpose: the best
    non-injected candidate overall can be a syndrome equivalent of a true
    defect (identical hit set and false alarms under the applied patterns).
    Such a candidate is indistinguishable in principle — selection reports
    the whole equivalence class and adaptive ATPG owns the split — so it
    cannot be required to score below the truth it mirrors.
    """
    session, spec, run, setup = scenario_env("tiny", SCENARIO_OF_KIND["stuck-at"])
    d1, d2 = visible_defects("stuck-at", session, spec, run, setup, count=2)
    result = run_bp_diagnosis(
        session.prepared, setup, run.patterns,
        DiagnosisSpec(scenario=spec.name, backend="compiled"),
        defects=[d1, d2],
        options=ULTRA,
    )
    assert result.defects == [d1, d2]
    assert result.recovered_all_defects()
    assert result.unexplained == 0
    true_rows = [
        next(row for row in result.candidates if row.matches(spec_))
        for spec_ in (d1, d2)
    ]
    non_selected = [row for row in result.candidates if not row.selected]
    if non_selected:
        floor = max(row.confidence for row in non_selected)
        for spec_, row in zip((d1, d2), true_rows):
            assert row.confidence >= floor, spec_.describe()
    # Backend equivalence holds for multi-defect inference too.
    serial = run_bp_diagnosis(
        session.prepared, setup, run.patterns,
        DiagnosisSpec(scenario=spec.name, backend="serial"),
        defects=[d1, d2],
        options=ULTRA,
    )
    assert serial.same_ranking(result)


# --------------------------------------------------------------------------
# Syndrome dictionaries in plan resources
# --------------------------------------------------------------------------
def _volume_store(tmp_path, name, prepared, spec, setup, patterns, defects):
    """Two single-defect logs and one two-defect log on ``patterns``."""
    store = FailLogStore(tmp_path / f"{name}.sqlite")
    for index, group in enumerate([defects[:1], defects[1:2], defects[:2]]):
        log = capture_fail_log(
            prepared.model, prepared.domain_map, prepared.scan, setup,
            patterns, group, design_name="tiny",
        )
        store.add(f"{name}-{index}", log, scenario=spec.name)
    return store


@pytest.fixture(scope="module")
def two_pattern_sets(tmp_path_factory):
    """tiny/table1-a under two ATPG seeds, each with its own fail-log store."""
    tmp_path = tmp_path_factory.mktemp("volume-dictionaries")
    session = TestSession.for_design("tiny", options=ULTRA)
    spec = table1_scenario("a")
    rows = []
    for seed in (ULTRA.random_seed, ULTRA.random_seed + 1):
        options = replace(ULTRA, random_seed=seed)
        session.with_options(options).run_scenario(spec)
        run = session.artifacts[spec.name]
        setup = spec.build_setup(session.prepared, options)
        defects = visible_defects("stuck-at", session, spec, run, setup, count=2)
        store = _volume_store(
            tmp_path, f"seed{seed}", session.prepared, spec, setup,
            run.patterns, defects,
        )
        rows.append((options, store))
    assert list(rows[0][1].records()) != list(rows[1][1].records())
    return session.prepared, spec, rows


def test_syndrome_dictionaries_are_keyed_by_pattern_set_and_batch_size(
    two_pattern_sets,
):
    """Two pattern sets and two batch sizes through one resources dict:
    each plan gets its own dictionary and the report of a fresh one."""
    prepared, spec, rows = two_pattern_sets
    shared: dict = {}
    for options, store in rows:
        for batch_size in (8, 256):
            def plan(memos):
                return volume_plan(
                    store, {"tiny": prepared}, {spec.name: spec},
                    VolumeSpec(scenario=spec.name, batch_size=batch_size),
                    options=options, memos=memos,
                )

            fresh = execute_volume_plan(plan(None))
            report = execute_volume_plan(plan({"_syndromes": shared}))
            assert report.same_results(fresh), (options.random_seed, batch_size)
    assert len(shared) == 4
    assert len({key[0] for key in shared}) == 2


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_volume_plan_reports_identical_on_executor_backends(two_pattern_sets, backend):
    """serial, threads and processes executors fill their own dictionaries
    (process workers one each) and produce identical reports."""
    prepared, spec, rows = two_pattern_sets
    options, store = rows[0]

    def report(executor):
        plan = volume_plan(
            store, {"tiny": prepared}, {spec.name: spec},
            VolumeSpec(scenario=spec.name, batch_size=8), options=options,
        )
        return execute_volume_plan(plan, executor=executor)

    serial = report(Executor(backend="serial"))
    other = report(Executor(backend=backend, max_workers=2))
    assert other.same_results(serial)
    assert len(other) == len(store)


def test_repeated_log_reports_identical_on_backends_and_served(two_pattern_sets, tmp_path):
    """A store with one log under two die names: the duplicate coalesces
    onto its first copy, and every executor backend and a served run give
    the same report, one cell per die."""
    prepared, spec, rows = two_pattern_sets
    options, source = rows[0]
    records = list(source.records())
    store = FailLogStore(tmp_path / "repeated.sqlite")
    for record in records:
        store.add(record.name, record.log, scenario=record.scenario)
    store.add("repeat-of-0", records[0].log, scenario=records[0].scenario)

    def plan():
        return volume_plan(
            store, {"tiny": prepared}, {spec.name: spec},
            VolumeSpec(scenario=spec.name, batch_size=8), options=options,
        )

    serial = execute_volume_plan(plan(), executor=Executor(backend="serial"))
    logs = [record.name for record in records] + ["repeat-of-0"]
    assert [cell.log for cell in serial] == logs
    assert {**serial.cells[0].deterministic_dict(), "log": "repeat-of-0"} == (
        serial.cells[-1].deterministic_dict()
    )
    assert serial.cache_hits() == 0
    for backend in ("threads", "processes"):
        other = execute_volume_plan(
            plan(), executor=Executor(backend=backend, max_workers=2)
        )
        assert other.same_results(serial), backend

    server = ServeServer(tmp_path / "serve", poll_seconds=0.02).start()
    try:
        served = submit_volume(ServeClient(server.address), plan()).report(timeout=120)
    finally:
        server.stop()
    assert served.same_results(serial)
