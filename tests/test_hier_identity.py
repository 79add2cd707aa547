"""Hierarchical-kernel admission suite: flat and hierarchical lowerings of
a ≥10⁴-gate SoC must be bit-identical, on every backend.

The hierarchical compiler (:mod:`repro.hier.compile`) is only admissible
because it changes *where* closures are built, never *what* they compute.
This suite holds it to that bar at ``hier-soc-10k`` scale for fault
simulation, legacy diagnosis and one volume BP diagnosis — hier versus the
flat reference (``model.without_hierarchy()``), every engine backend.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.analyze import lint_design
from repro.api import get_scenario
from repro.api.design import prepare_from_spec
from repro.atpg import AtpgOptions
from repro.atpg.random_fill import random_pattern_batch
from repro.diagnose import DefectSpec, DiagnosisSpec, capture_fail_log, run_diagnosis
from repro.engine.compile import compile_circuit
from repro.engine.scheduler import BACKENDS as ALL_BACKENDS
from repro.fault_sim import StuckAtFaultSimulator, TransitionFaultSimulator
from repro.faults import (
    FaultSite,
    StuckAtFault,
    TransitionFault,
    TransitionKind,
    all_stuck_at_faults,
    all_transition_faults,
    collapse_faults,
)
from repro.hier.compile import HierCompiledCircuit
from repro.hier.designs import HIER_SOC_10K, register_hier_designs
from repro.logic import Logic
from repro.patterns.pattern import PatternSet
from repro.simulation.model import NodeKind
from repro.simulation.parallel_sim import pack_patterns
from repro.volume import run_bp_diagnosis

from grading_oracle import keyed_detections

#: Diagnosis needs a detected defect, not coverage.
ULTRA = AtpgOptions(
    random_pattern_batches=1, patterns_per_batch=16, backtrack_limit=8,
    max_patterns=24,
)

_STATE: dict[str, object] = {}


def env():
    """The prepared 10⁴-gate design plus sampled faults/patterns, built once."""
    if not _STATE:
        prepared = prepare_from_spec(HIER_SOC_10K)
        model = prepared.model
        assert model.hierarchy is not None, "scale design lost its hierarchy"
        universe = collapse_faults(model, all_stuck_at_faults(model)).representatives
        rng = random.Random(7)
        faults = [
            universe[i] for i in sorted(rng.sample(range(len(universe)), 150))
        ]
        patterns = []
        sources = model.pi_nodes + model.ppi_nodes
        for _ in range(16):
            assignment = {}
            for idx in sources:
                roll = rng.random()
                assignment[idx] = (
                    Logic.ONE if roll < 0.45
                    else Logic.ZERO if roll < 0.9
                    else Logic.X
                )
            patterns.append(assignment)
        _STATE["prepared"] = prepared
        _STATE["faults"] = faults
        _STATE["patterns"] = patterns
    return _STATE["prepared"], _STATE["faults"], _STATE["patterns"]


def flat_prepared(prepared):
    """The same prepared design forced through the flat reference compile."""
    return dataclasses.replace(prepared, model=prepared.model.without_hierarchy())


def _expected_detections():
    if "expected" not in _STATE:
        prepared, faults, patterns = env()
        flat = prepared.model.without_hierarchy()
        simulator = StuckAtFaultSimulator(flat, batch_size=8, backend="compiled")
        _STATE["expected"] = simulator.simulate(patterns, faults).detections
    return _STATE["expected"]


def test_design_is_at_least_ten_thousand_gates():
    prepared, _faults, _patterns = env()
    assert len(prepared.netlist.gates) >= 10_000


def test_design_lints_clean():
    prepared, _faults, _patterns = env()
    setup = get_scenario("table1-a").build_setup(prepared, ULTRA)
    report = lint_design(prepared, setup)
    assert report.ok, report.format_table()


def test_hier_model_compiles_through_shared_kernels():
    prepared, _faults, _patterns = env()
    from repro.engine.compile import compile_circuit

    compiled = compile_circuit(prepared.model)
    assert isinstance(compiled, HierCompiledCircuit)
    stats = compiled.hier_stats()
    assert stats["instances_bound"] == HIER_SOC_10K.hier_cores
    # Sublinear sharing: far fewer kernels than instances.  (One extra
    # kernel beyond the declared core kinds is expected — a scan-chain
    # boundary landing inside a core changes its external aliasing, which
    # the verified fingerprint correctly refuses to share.)
    assert stats["unique_core_kernels"] <= HIER_SOC_10K.hier_core_kinds + 1
    assert stats["unique_core_kernels"] < stats["instances_bound"]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_fault_sim_detections_identical_to_flat(backend):
    prepared, faults, patterns = env()
    expected = _expected_detections()
    simulator = StuckAtFaultSimulator(prepared.model, batch_size=8, backend=backend)
    result = simulator.simulate(patterns, faults)
    assert result.detections == expected, f"{backend} diverged from flat"


def test_full_transition_universe_identical_to_serial():
    """Every collapsed transition fault of ``hier-soc-1k`` under scenario
    (d)'s capture procedures, with and without fault dropping: the stem
    kernel, grading all procedures in one window, detects exactly what the
    per-fault serial reference does, and exactly what the per-procedure
    keyed loop does."""
    register_hier_designs()
    prepared = prepare_from_spec("hier-soc-1k")
    model = prepared.model
    setup = get_scenario("table1-d").build_setup(prepared, ULTRA)
    faults = collapse_faults(model, all_transition_faults(model)).representatives
    constrained = setup.effective_pin_constraints()
    patterns = random_pattern_batch(
        list(setup.procedures),
        [e.name for e in model.state_elements if e.flop.is_scan],
        [model.nodes[i].net for i in model.pi_nodes
         if model.nodes[i].net not in constrained],
        32, random.Random(19),
        hold_pis=setup.hold_pis, observe_pos=setup.observe_pos,
    )
    assert len(faults) == 6676
    simulators = {
        backend: TransitionFaultSimulator(
            model, prepared.domain_map, setup, backend=backend
        )
        for backend in ALL_BACKENDS
    }
    for drop_detected in (True, False):
        results = {
            backend: simulator.simulate(
                patterns, faults, drop_detected=drop_detected
            ).detections
            for backend, simulator in simulators.items()
        }
        assert any(results["serial"].values())
        for backend in ALL_BACKENDS[1:]:
            assert results[backend] == results["serial"], f"{backend} diverged"
        keyed = keyed_detections(
            simulators["compiled"], patterns, faults, drop_detected, True
        )
        assert results["compiled"] == keyed, "the windowed loop diverged from the keyed loop"


# ------------------------------------------------------- wide stem sweeps
def _wide_kernel_env():
    """``hier-soc-1k``: hier and flat kernels, X-heavy launch and final
    planes, and a two-group lane window whose groups observe different
    nodes (group B also observes internal stems of closed instances)."""
    if "wide" not in _STATE:
        register_hier_designs()
        model = prepare_from_spec("hier-soc-1k").model
        hier = compile_circuit(model)
        flat = compile_circuit(model.without_hierarchy())
        assert isinstance(hier, HierCompiledCircuit)
        assert not isinstance(flat, HierCompiledCircuit)
        rng = random.Random(5)
        sources = model.pi_nodes + model.ppi_nodes

        def frame():
            patterns = [
                {idx: rng.choice((Logic.ZERO, Logic.ONE, Logic.ONE, Logic.X))
                 for idx in sources}
                for _ in range(48)
            ]
            return flat.simulate(pack_patterns(model, patterns))

        launch, final = frame(), frame()
        group_a, group_b = (1 << 24) - 1, ((1 << 24) - 1) << 24
        default = model.observation_nodes()
        # Member gates with fanout: observed stems whose sweep goes on.
        inner = [
            node.index for node in model.nodes
            if node.kind is NodeKind.GATE and len(set(model.fanout[node.index])) > 1
            and hier._wide_sites[node.index] is not None
        ][::7]
        observation = default[::2] + default + inner
        lanes = (
            [group_a] * len(default[::2]) + [group_b] * len(default)
            + [group_b] * len(inner)
        )
        _STATE["wide"] = (model, hier, flat, launch, final, observation, lanes)
    return _STATE["wide"]


def _wide_cases(model, hier, observation):
    """Output-fault sites, a few per case the instance-parallel stem pass
    must get right.  Each wide case comes with a *sibling*, a stem at the
    same template site in another instance, so that the site's sweep is
    shared (a stem that shares none of its sweeps is swept flat)."""
    wide = hier._wide_sites
    observed = set(observation)
    bindings = hier._bindings
    used: set[int] = set()

    def stem(index):
        return hier._ffr_next[index] < 0 and model.fanout[index]

    def instances(index):
        return len(wide[index]) // 2

    def siblings(index):
        """Wide stems at the template site of ``index``'s first instance."""
        slot, local = wide[index][0], wide[index][1]
        for other, (template, trans) in enumerate(bindings):
            sibling = trans[local]
            if (other != slot and template is bindings[slot][0]
                    and sibling not in used and sibling != index
                    and wide[sibling] is not None and stem(sibling)):
                yield sibling

    def with_sibling(candidates, count, prefer=lambda sibling: True):
        """Up to ``count`` unused candidates, each followed by a sibling
        (one that ``prefer`` accepts, if there is one)."""
        picked: list[int] = []
        for index in candidates:
            if index in used:
                continue
            found = sorted(siblings(index), key=lambda sibling: not prefer(sibling))
            if found:
                picked += [index, found[0]]
                used.update(picked[-2:])
            if len(picked) >= 2 * count:
                break
        return picked

    by_template: dict[int, list[list[int]]] = {}
    for template, trans in bindings:
        by_template.setdefault(id(template), []).append(trans)
    shared = max(by_template.values(), key=len)
    assert len(shared) >= 3
    num_internal = next(
        template.num_internal for template, trans in bindings if trans is shared[0]
    )
    internal = [local for local in range(num_internal) if stem(shared[0][local])]
    # Neighbouring sites of one template, live in different instance sets:
    # {0, 2}, then {1, 2} (so instance 1 joins reads gathered without it),
    # then {1} alone (a stem that shares no sweep, swept flat).
    partial = [shared[i][local] for i in (0, 2) for local in internal[0:6:2]]
    partial += [shared[i][local] for i in (1, 2) for local in internal[1:6:2]]
    partial.append(shared[1][internal[6]])
    used.update(partial)
    cases = {
        "template site live in some instances": partial,
        "external input read by one instance": with_sibling(
            [node.index for node in model.nodes
             if node.kind is not NodeKind.GATE and wide[node.index] is not None
             and instances(node.index) == 1 and stem(node.index)], 2,
        ),
        # A sibling read by one instance leaves the PPI's other instance
        # a group of its own, swept wide because the PPI shares a sweep.
        "PPI feeding several closed instances": with_sibling(
            [index for index in model.ppi_nodes
             if wide[index] is not None and instances(index) > 1], 3,
            prefer=lambda sibling: instances(sibling) == 1,
        ),
        "stem reaching residual glue": [
            node.index for node in model.nodes
            if wide[node.index] is None and stem(node.index)
        ][:6],
        "observed stem with fanout": with_sibling(
            [index for index in sorted(observed)
             if wide[index] is not None and model.fanout[index]], 3,
        ),
    }
    for case, nodes in cases.items():
        assert nodes, f"hier-soc-1k has no {case}"
    return [index for nodes in cases.values() for index in nodes]


def _sparse_faults(nodes):
    faults = []
    for index in nodes:
        site = FaultSite(index)
        faults += [StuckAtFault(site, 0), StuckAtFault(site, 1)]
    return faults


def _sparse_transitions(nodes):
    faults = []
    for index in nodes:
        site = FaultSite(index)
        faults += [TransitionFault(site, TransitionKind.SLOW_TO_RISE),
                   TransitionFault(site, TransitionKind.SLOW_TO_FALL)]
    return faults


@pytest.mark.parametrize("universe", ["sparse", "full"])
def test_wide_stem_pass_matches_the_flat_kernel(universe):
    """The hier kernel's wide stem sweeps (one per template site across
    every instance sharing it) give the flat kernel's masks and syndrome
    rows, mask for mask, on a lane-grouped window: stuck-at and transition
    faults, a handful at chosen stems (``sparse``: few instances per
    sweep, lazily gathered) and every collapsed fault (``full``)."""
    model, hier, flat, launch, final, observation, lanes = _wide_kernel_env()
    if universe == "sparse":
        nodes = _wide_cases(model, hier, observation)
        batches = ((_sparse_faults(nodes), None), (_sparse_transitions(nodes), launch))
    else:
        batches = (
            (collapse_faults(model, all_stuck_at_faults(model)).representatives, None),
            (collapse_faults(model, all_transition_faults(model)).representatives, launch),
        )
    for faults, frame in batches:
        masks = hier.detect_batch(final, faults, observation, frame, lanes=lanes)
        assert masks == flat.detect_batch(final, faults, observation, frame, lanes=lanes)
        assert sum(1 for mask in masks if mask) > len(faults) // 4
        rows = hier.syndrome_batch(final, faults, observation, frame, lanes=lanes)
        assert rows == flat.syndrome_batch(final, faults, observation, frame, lanes=lanes)


# ---------------------------------------------------------------- diagnosis
def _scan_pattern_set():
    """A committed-shaped pattern set for the fail-log/diagnosis paths."""
    if "pattern_set" not in _STATE:
        prepared, _faults, _patterns = env()
        setup = _setup()
        rng = random.Random(11)
        scan_flops = [
            e.name for e in prepared.model.state_elements if e.flop.is_scan
        ]
        constraints = setup.effective_pin_constraints()
        free_inputs = [
            prepared.model.nodes[i].net
            for i in prepared.model.pi_nodes
            if prepared.model.nodes[i].net not in constraints
        ]
        batch = random_pattern_batch(
            setup.procedures, scan_flops, free_inputs, 24, rng
        )
        _STATE["pattern_set"] = PatternSet(iter(batch))
    return _STATE["pattern_set"]


def _setup():
    """The stuck-at Table 1 scenario's constraint environment at 10⁴ gates."""
    if "setup" not in _STATE:
        from repro.api import get_scenario

        prepared, _faults, _patterns = env()
        _STATE["setup"] = get_scenario("table1-a").build_setup(prepared, ULTRA)
    return _STATE["setup"]


def _visible_defect():
    if "defect" not in _STATE:
        prepared, faults, _patterns = env()
        setup = _setup()
        patterns = _scan_pattern_set()
        for fault in faults:
            defect = DefectSpec.from_fault(prepared.model, fault)
            log = capture_fail_log(
                prepared.model, prepared.domain_map, prepared.scan, setup,
                patterns, defect,
            )
            if log.num_fails:
                _STATE["defect"] = defect
                break
        else:  # pragma: no cover - 150 sampled faults, 24 patterns
            raise AssertionError("no visible defect in the fault sample")
    return _STATE["defect"]


def test_diagnosis_identical_flat_vs_hier_on_all_backends():
    prepared, _faults, _patterns = env()
    setup = _setup()
    patterns = _scan_pattern_set()
    defect = _visible_defect()
    reference = run_diagnosis(
        flat_prepared(prepared), setup, patterns,
        DiagnosisSpec(scenario="hier-identity", defect=defect,
                      backend="compiled"),
        options=ULTRA,
    )
    assert reference.rank_of_defect is not None
    for backend in ALL_BACKENDS:
        result = run_diagnosis(
            prepared, setup, patterns,
            DiagnosisSpec(scenario="hier-identity", defect=defect,
                          backend=backend),
            options=ULTRA,
        )
        assert result.same_ranking(reference), f"hier/{backend} diverged"


def test_bp_diagnosis_identical_flat_vs_hier():
    prepared, _faults, _patterns = env()
    setup = _setup()
    patterns = _scan_pattern_set()
    defect = _visible_defect()
    reference = run_bp_diagnosis(
        flat_prepared(prepared), setup, patterns,
        DiagnosisSpec(scenario="hier-identity", defect=defect,
                      backend="compiled"),
        options=ULTRA,
    )
    for backend in ALL_BACKENDS:
        result = run_bp_diagnosis(
            prepared, setup, patterns,
            DiagnosisSpec(scenario="hier-identity", defect=defect,
                          backend=backend),
            options=ULTRA,
        )
        assert result.same_ranking(reference), f"hier BP/{backend} diverged"
        assert result.ambiguous_pairs == reference.ambiguous_pairs
