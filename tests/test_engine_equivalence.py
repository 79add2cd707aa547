"""Engine/legacy equivalence: every backend must produce identical results.

The compiled kernels are only admissible because they change *how* the
arithmetic runs, never *what* it computes.  This suite holds them to that
bar on randomized circuits and on the SoC session flow: identical detection
masks fault by fault, identical coverage and pattern counts, regardless of
engine or executor backend.
"""

from __future__ import annotations

import random

import pytest

from repro.api import TestSession, get_scenario
from repro.api.design import prepare_from_spec
from repro.atpg import AtpgOptions, TestSetup
from repro.atpg.random_fill import random_pattern_batch
from repro.circuits import random_sequential
from repro.clocking import ClockDomain, ClockDomainMap, external_clock_procedures
from repro.dft import insert_scan
from repro.engine.scheduler import BACKENDS as ALL_BACKENDS
from repro.engine.scheduler import FaultSimScheduler
from repro.fault_sim import StuckAtFaultSimulator, TransitionFaultSimulator
from repro.fault_sim.transition import PatternWindow
from repro.faults import (
    FaultSite,
    StuckAtFault,
    all_stuck_at_faults,
    all_transition_faults,
    collapse_faults,
)
from repro.logic import Logic
from repro.netlist import GateType, NetlistBuilder
from repro.runtime import Executor
from repro.simulation import build_model
from repro.simulation.model import NodeKind
from repro.simulation.parallel_sim import pack_patterns

from grading_oracle import keyed_detections


def _random_design(seed):
    """A random scan-inserted sequential circuit plus its test environment."""
    netlist = random_sequential(6, 10, 80, 4, seed=seed)
    netlist, _scan = insert_scan(netlist, num_chains=2)
    model = build_model(netlist)
    domain_map = ClockDomainMap.from_netlist(
        netlist, [ClockDomain("clk", "clk", 100.0)]
    )
    setup = TestSetup(
        name=f"equivalence-{seed}",
        procedures=external_clock_procedures(["clk"], max_pulses=3),
        observe_pos=True,
        scan_enable_net="scan_en",
    )
    return model, domain_map, setup


def _pattern_batch(model, setup, seed, count=24):
    rng = random.Random(seed)
    scan_flops = [e.name for e in model.state_elements if e.flop.is_scan]
    constraints = setup.effective_pin_constraints()
    free_inputs = [
        model.nodes[i].net
        for i in model.pi_nodes
        if model.nodes[i].net not in constraints
    ]
    return random_pattern_batch(
        setup.procedures, scan_flops, free_inputs, count, rng
    )


def _flat_patterns(model, seed, count=24):
    """Node-index keyed flat assignments for the stuck-at simulator."""
    rng = random.Random(seed)
    sources = model.pi_nodes + model.ppi_nodes
    patterns = []
    for _ in range(count):
        assignment = {}
        for idx in sources:
            roll = rng.random()
            assignment[idx] = (
                Logic.ONE if roll < 0.45 else Logic.ZERO if roll < 0.9 else Logic.X
            )
        patterns.append(assignment)
    return patterns


@pytest.mark.parametrize("seed", [2, 9, 31])
def test_stuck_at_detection_masks_identical_across_backends(seed):
    model, _domain_map, _setup = _random_design(seed)
    faults = collapse_faults(model, all_stuck_at_faults(model)).representatives
    patterns = _flat_patterns(model, seed)
    reference = None
    for backend in ALL_BACKENDS:
        simulator = StuckAtFaultSimulator(model, batch_size=8, backend=backend)
        result = simulator.simulate(patterns, faults, drop_detected=True)
        if reference is None:
            reference = result.detections
        else:
            assert result.detections == reference, f"{backend} diverged (seed {seed})"
    assert reference and any(hits for hits in reference.values())


@pytest.mark.parametrize("seed", [4, 17])
def test_transition_detections_identical_across_backends(seed):
    model, domain_map, setup = _random_design(seed)
    faults = collapse_faults(model, all_transition_faults(model)).representatives
    patterns = _pattern_batch(model, setup, seed)
    results = {}
    for backend in ALL_BACKENDS:
        simulator = TransitionFaultSimulator(
            model, domain_map, setup, batch_size=8, backend=backend
        )
        results[backend] = simulator.simulate(
            patterns, faults, drop_detected=True
        ).detections
    for backend in ALL_BACKENDS[1:]:
        assert results[backend] == results["serial"], f"{backend} diverged"
    assert any(hits for hits in results["serial"].values())


def test_multi_frame_stuck_at_identical_across_backends():
    model, domain_map, setup = _random_design(13)
    faults = collapse_faults(model, all_stuck_at_faults(model)).representatives
    patterns = _pattern_batch(model, setup, 13)
    reference = None
    for backend in ALL_BACKENDS:
        simulator = TransitionFaultSimulator(model, domain_map, setup, backend=backend)
        detections = simulator.simulate_stuck_at(patterns, faults)
        if reference is None:
            reference = detections
        else:
            assert detections == reference, f"{backend} diverged"


def _uneven_table1_d():
    """``tiny`` under scenario (d)'s ten capture procedures (fast-domain and
    slow-domain ones observe different scan cells) and a pattern set whose
    procedures have uneven pattern counts: 12 for the first, 3 for each of
    the other nine."""
    prepared = prepare_from_spec("tiny")
    setup = get_scenario("table1-d").build_setup(prepared, AtpgOptions(
        random_pattern_batches=1, patterns_per_batch=16, backtrack_limit=8,
    ))
    model = prepared.model
    procedures = list(setup.procedures)
    constrained = setup.effective_pin_constraints()
    patterns = random_pattern_batch(
        procedures[:1] * 4 + procedures[1:],
        [e.name for e in model.state_elements if e.flop.is_scan],
        [model.nodes[i].net for i in model.pi_nodes
         if model.nodes[i].net not in constrained],
        39, random.Random(4),
        hold_pis=setup.hold_pis, observe_pos=setup.observe_pos,
    )
    return prepared, setup, patterns


def _window_shapes(simulator, patterns):
    """Per window, the procedure of each of its lane groups."""
    return [
        [patterns[window.patterns[group.bit_length() - 1]].procedure.name
         for group in window.groups]
        for window in simulator.frames.iter_windows(patterns, simulator.batch_size)
    ]


@pytest.mark.parametrize("drop_detected", [True, False])
def test_position_indexed_grading_matches_the_keyed_loop(drop_detected):
    """Same keys, key order and lists as the keyed loop, for a fault list
    with repeats (a repeated fault shares one list of both positions' hits)
    graded over windows of several procedures' batches at three batch
    sizes: all ten procedures in one window (64), a procedure split across
    windows next to windows of several groups (5), and one pattern per
    window (1)."""
    prepared, setup, patterns = _uneven_table1_d()
    model = prepared.model
    fault_lists = {
        True: collapse_faults(model, all_transition_faults(model)).representatives,
        False: collapse_faults(model, all_stuck_at_faults(model)).representatives,
    }
    for batch_size in (64, 5, 1):
        simulator = TransitionFaultSimulator(
            model, prepared.domain_map, setup, batch_size=batch_size
        )
        shapes = _window_shapes(simulator, patterns)
        if batch_size == 64:
            assert [len(names) for names in shapes] == [10]
        elif batch_size == 5:
            first = patterns[0].procedure.name
            assert sum(first in names for names in shapes) > 1
            assert any(len(names) > 1 for names in shapes)
        else:
            assert len(shapes) == len(patterns)
        for transition, faults in fault_lists.items():
            once = keyed_detections(simulator, patterns, faults, False, transition)
            hit = [fault for fault, hits in once.items() if hits]
            listed = faults[::-1] + hit[:5] + hit[2:4]
            expected = keyed_detections(
                simulator, patterns, listed, drop_detected, transition
            )
            if transition:
                got = simulator.simulate(patterns, listed, drop_detected).detections
            else:
                got = simulator.simulate_stuck_at(patterns, listed, drop_detected)
            assert list(got) == list(expected), batch_size
            assert got == expected, batch_size
            assert all(len(got[fault]) > len(set(got[fault])) for fault in hit[:5])


def _stem_corner_model(seed):
    """A random combinational circuit with every fanout-free-region corner:
    tie cells, gates that read one net on two pins, reconvergent fanout
    branches and an observed internal node with a single consumer."""
    rng = random.Random(seed)
    builder = NetlistBuilder(f"stems-{seed}")
    nets = builder.inputs("a", 6) + [builder.tie0(), builder.tie1()]
    two_input = [GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
                 GateType.XOR, GateType.XNOR]
    for _ in range(60):
        roll = rng.random()
        if roll < 0.1:
            net = builder.inv(rng.choice(nets))
        elif roll < 0.2:
            net = builder.mux(*rng.sample(nets, 3))
        elif roll < 0.3:
            # A fanout-free net read on two pins of its only consumer.
            shared = builder.gate(rng.choice(two_input), rng.sample(nets, 2))
            net = builder.gate(rng.choice(two_input), [shared, shared, rng.choice(nets)])
        else:
            net = builder.gate(rng.choice(two_input), rng.sample(nets, 2))
        nets.append(net)
    for index, net in enumerate(nets[-6:]):
        builder.output_from(net, f"y{index}")
    model = build_model(builder.build())
    single = [
        node.index for node in model.nodes
        if node.kind is NodeKind.GATE and len(set(model.fanout[node.index])) == 1
    ]
    observation = sorted(set(model.observation_nodes()) | set(rng.sample(single, 3)))
    return model, observation


def _x_heavy_frame(model, rng, count=48):
    sources = model.pi_nodes + model.ppi_nodes
    patterns = [
        {idx: rng.choice((Logic.ZERO, Logic.ONE, Logic.X)) for idx in sources}
        for _ in range(count)
    ]
    return FaultSimScheduler(model).simulate_good(pack_patterns(model, patterns))


@pytest.mark.parametrize("seed", [3, 8, 27])
def test_stem_kernel_matches_serial_on_corner_cases(seed):
    model, observation = _stem_corner_model(seed)
    rng = random.Random(seed)
    launch, final = _x_heavy_frame(model, rng), _x_heavy_frame(model, rng)
    serial = FaultSimScheduler(model, backend="serial")
    compiled = FaultSimScheduler(model, backend="compiled")
    for faults, frame in (
        (all_stuck_at_faults(model), None),
        (all_transition_faults(model), launch),
    ):
        assert any(f.site.pin is not None and len(model.fanout[
            model.nodes[f.site.node].fanin[f.site.pin]]) > 1 for f in faults)
        masks = compiled.detect_batch(final, faults, observation, frame)
        assert masks == serial.detect_batch(final, faults, observation, frame)
        assert any(masks)
        rows = compiled.syndrome_batch(final, faults, observation, frame)
        assert rows == serial.syndrome_batch(final, faults, observation, frame)
        for mask, row in zip(masks, rows):
            merged = 0
            for node_mask in row:
                merged |= node_mask
            assert merged == mask


def test_lane_group_counts_only_the_nodes_it_observes():
    """An internal node with one consumer, observed by one lane group only:
    the fault region is cut there for every lane, but a lane of the other
    group counts a detection only where its own observation node (the
    output behind the consumer) sees one."""
    builder = NetlistBuilder("lanes")
    a, b, c = builder.inputs("x", 3)
    inner = builder.gate(GateType.AND, [a, b])
    out = builder.gate(GateType.OR, [inner, c])
    builder.output_from(out, "y")
    model = build_model(builder.build())
    node = model.node_of_net
    assert len(model.fanout[node[inner]]) == 1
    # Every lane complements ``inner`` under ``a`` stuck-at-0; ``c`` blocks
    # the output on lanes 0-2 and opens it on lane 3.
    patterns = [
        {node[a]: Logic.ONE, node[b]: Logic.ONE, node[c]: value}
        for value in (Logic.ONE, Logic.ONE, Logic.ONE, Logic.ZERO)
    ]
    final = FaultSimScheduler(model).simulate_good(pack_patterns(model, patterns))
    fault = StuckAtFault(FaultSite(node[a]), 0)
    observation = [node[inner], node[out]]
    lanes = [0b0011, 0b1100]
    for backend in ALL_BACKENDS:
        scheduler = FaultSimScheduler(model, backend=backend)
        assert scheduler.detect_batch(final, [fault], observation) == [0b1111]
        assert scheduler.detect_batch(
            final, [fault], observation, lanes=lanes
        ) == [0b1011], backend


@pytest.mark.parametrize("seed", [3, 8, 27])
def test_window_lanes_match_per_group_batches(seed):
    """Two lane groups of different widths packed into one window, the
    second observing none of the single-consumer internal nodes the first
    observes: the window's masks, on either backend, are the two groups'
    own masks shifted into their lanes."""
    model, observation = _stem_corner_model(seed)
    internal = {n for n in observation if len(set(model.fanout[n])) == 1}
    assert internal
    rng = random.Random(seed)
    groups = []
    for count, observed in ((24, observation),
                            (40, [n for n in observation if n not in internal])):
        groups.append((_x_heavy_frame(model, rng, count),
                       _x_heavy_frame(model, rng, count), observed))
    window = PatternWindow()
    for launch, final, observed in groups:
        start = len(window.patterns)
        window.add(range(start, start + final.num_patterns), observed, launch, final)
    window_observation, lanes = window.observed()
    compiled = FaultSimScheduler(model, backend="compiled")
    for faults, transition in (
        (all_stuck_at_faults(model), False),
        (all_transition_faults(model), True),
    ):
        expected = [0] * len(faults)
        offset = 0
        for launch, final, observed in groups:
            masks = compiled.detect_batch(
                final, faults, observed, launch if transition else None
            )
            expected = [got | (mask << offset) for got, mask in zip(expected, masks)]
            offset += final.num_patterns
        assert any(mask >> 24 for mask in expected)
        launch = window.launch if transition else None
        for backend in ALL_BACKENDS:
            scheduler = FaultSimScheduler(model, backend=backend)
            masks = scheduler.detect_batch(
                window.final, faults, window_observation, launch, lanes=lanes
            )
            assert masks == expected, backend
        rows = compiled._compiled.syndrome_batch(
            window.final, faults, window_observation, launch, lanes
        )
        for mask, row in zip(expected, rows):
            merged = 0
            for node_mask in row:
                merged |= node_mask
            assert merged == mask


class TestSessionLevelEquivalence:
    """Coverage numbers and pattern counts agree across every fan-out."""

    OPTIONS = AtpgOptions(
        random_pattern_batches=2,
        patterns_per_batch=16,
        backtrack_limit=10,
        max_patterns=20,
    )

    def _run(self, run_backend, sim_backend="compiled"):
        session = (
            TestSession.for_soc(size=1)
            .with_options(self.OPTIONS)
            .with_options(sim_backend=sim_backend)
            .add_scenarios("table1-a", "table1-c")
        )
        report = session.run(executor=Executor(backend=run_backend))
        return [
            (o.scenario, round(o.test_coverage, 6), round(o.fault_coverage, 6),
             o.pattern_count)
            for o in report.outcomes
        ]

    def test_thread_and_process_fanout_match_serial(self):
        serial = self._run("serial")
        assert self._run("threads") == serial
        assert self._run("processes") == serial

    def test_sim_backends_match_reference_end_to_end(self):
        reference = self._run("serial", sim_backend="serial")
        assert self._run("serial", sim_backend="compiled") == reference

    def test_rng_seed_override_is_reproducible_across_backends(self):
        def run_with_seed(sim_backend):
            session = (
                TestSession.for_soc(size=1)
                .with_options(self.OPTIONS)
                .with_options(sim_backend=sim_backend)
                .add_scenario("table1-a", rng_seed=1234)
            )
            outcome = session.run().outcomes[0]
            return (round(outcome.test_coverage, 6), outcome.pattern_count)

        assert run_with_seed("serial") == run_with_seed("compiled")
