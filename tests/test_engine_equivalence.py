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
from repro.clocking import (
    CapturePulse,
    ClockDomain,
    ClockDomainMap,
    NamedCaptureProcedure,
    external_clock_procedures,
)
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
from repro.simulation.parallel_sim import PackedPatterns, mask_to_indices, pack_patterns

from grading_oracle import keyed_detections, reference_frames


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


def _shifted_into_lanes(groups):
    """One window's planes: each group's planes shifted above the lanes of
    the groups before it."""
    offset, can0, can1 = 0, None, None
    for group in groups:
        shifted0 = [value << offset for value in group.can0]
        shifted1 = [value << offset for value in group.can1]
        if can0 is None:
            can0, can1 = shifted0, shifted1
        else:
            can0 = [a | b for a, b in zip(can0, shifted0)]
            can1 = [a | b for a, b in zip(can1, shifted1)]
        offset += group.num_patterns
    return PackedPatterns(num_patterns=offset, can0=can0, can1=can1)


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
        window.add_group(range(start, start + final.num_patterns), None, observed)
    window.launch = _shifted_into_lanes([launch for launch, _, _ in groups])
    window.final = _shifted_into_lanes([final for _, final, _ in groups])
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


def _framer_design():
    """Two clock domains under 1-, 2-, 3- and 4-pulse procedures, with a
    non-scan cell that powers up to 1, a cell with no D input that powers
    up to 0, and a pin constraint on an input the patterns also drive."""
    builder = NetlistBuilder("framer")
    pis = builder.inputs("a", 4)
    clk_a, clk_b = builder.clock("clk_a"), builder.clock("clk_b")
    q = [builder.flop(pis[i], clk_a if i % 2 else clk_b) for i in range(4)]
    mixed = builder.gate(GateType.XOR, [q[0], q[1]])
    q.append(builder.flop(mixed, clk_a, name="held", scannable=False, init=1))
    q.append(builder.flop("floating", clk_b, name="no_d", scannable=False, init=0))
    feedback = [
        builder.gate(GateType.NAND, [q[4], q[2]]),
        builder.gate(GateType.OR, [q[5], pis[0]]),
        builder.gate(GateType.AND, [q[3], pis[1]]),
    ]
    for i, net in enumerate(feedback):
        q.append(builder.flop(net, clk_a if i % 2 else clk_b))
    builder.output_from(builder.gate(GateType.XOR, q[-3:]), "y")
    netlist, _scan = insert_scan(builder.build(), num_chains=2)
    model = build_model(netlist)
    domain_map = ClockDomainMap.from_netlist(
        netlist, [ClockDomain("A", "clk_a", 100.0), ClockDomain("B", "clk_b", 50.0)]
    )
    pulses = {"A": CapturePulse.of("A"), "B": CapturePulse.of("B"),
              "AB": CapturePulse.of("A", "B")}
    procedures = [
        NamedCaptureProcedure(name, tuple(pulses[p] for p in sequence))
        for name, sequence in (
            ("one", ["AB"]), ("two", ["A", "B"]), ("three", ["B", "AB", "A"]),
            ("four", ["A", "B", "B", "AB"]), ("four-b", ["B", "A", "A", "B"]),
        )
    ]
    setup = TestSetup(
        name="framer", procedures=procedures, observe_pos=True, hold_pis=False,
        pin_constraints={"a_2": Logic.ONE}, scan_enable_net="scan_en",
    )
    rng = random.Random(5)
    patterns = random_pattern_batch(
        procedures[:1] * 3 + procedures[1:2] * 5 + procedures[2:],
        [e.name for e in model.state_elements if e.flop.is_scan],
        pis, 23, rng, hold_pis=False,
    )
    for index, pattern in enumerate(patterns):
        for name in rng.sample(sorted(pattern.scan_load), 1):
            del pattern.scan_load[name]
        pattern.pi_frames[0]["a_3"] = Logic.X
        if index % 3 == 0:
            pattern.pi_frames = pattern.pi_frames[:1]
    return model, domain_map, setup, patterns


def _reference_window(simulator, window, patterns):
    """The window's launch and capture planes from its groups framed one
    by one by the reference framer, shifted into their lanes."""
    launch, final = [], []
    for group, procedure in zip(window.groups, window.procedures):
        lanes = mask_to_indices(group)
        frames = reference_frames(
            simulator, [patterns[window.patterns[lane]] for lane in lanes], procedure
        )
        launch.append(frames[procedure.launch_frame])
        final.append(frames[procedure.capture_frame])
    return _shifted_into_lanes(launch), _shifted_into_lanes(final)


def _assert_past_capture_lanes_hold(simulator, window, patterns):
    """A group past its capture frame holds its state: its lanes run on
    through the longer groups' frames, but no pulse clocks them."""
    groups = list(zip(window.groups, window.procedures))
    batch = [patterns[i] for i in window.patterns]
    q_nodes = [element.q_node for element in simulator.model.state_elements]
    previous = None
    for frame, planes in enumerate(simulator.frames._frames(batch, groups)):
        held = 0
        for group, procedure in groups:
            if frame >= procedure.num_frames:
                held |= group
        for q in q_nodes if held else ():
            assert planes.can0[q] & held == previous.can0[q] & held
            assert planes.can1[q] & held == previous.can1[q] & held
        previous = planes
    return held


def _assert_framer_matches_reference(simulator, patterns):
    """Window and batch framing equal the reference framer; returns the
    lanes of the last window that ran past their capture frame."""
    held = 0
    for window in simulator.frames.iter_windows(patterns, simulator.batch_size):
        held = _assert_past_capture_lanes_hold(simulator, window, patterns)
        launch, final = _reference_window(simulator, window, patterns)
        assert window.launch.num_patterns == launch.num_patterns
        assert (window.launch.can0, window.launch.can1) == (launch.can0, launch.can1)
        assert (window.final.can0, window.final.can1) == (final.can0, final.can1)
    for procedure, _, chunk, batch, launch, final in simulator.frames.iter_batches(
        patterns, simulator.batch_size
    ):
        frames = reference_frames(simulator, batch, procedure)
        got = simulator.frames.frame_values_packed(batch, procedure)
        assert [(f.can0, f.can1) for f in got] == [(f.can0, f.can1) for f in frames]
        for plane, reference in ((launch, frames[procedure.launch_frame]),
                                 (final, frames[procedure.capture_frame])):
            assert (plane.can0, plane.can1) == (reference.can0, reference.can1)
    return held


@pytest.mark.parametrize("batch_size", [64, 5, 1])
def test_window_framer_matches_the_reference_framer(batch_size):
    """Window-wide launch and capture planes, lane for lane, equal each
    group framed on its own by the per-pattern reference framer, at three
    batch sizes: one window of 1-, 2-, 3- and 4-pulse procedures (64), a
    procedure split across windows (5), and one pattern per window (1)."""
    model, domain_map, setup, patterns = _framer_design()
    simulator = TransitionFaultSimulator(
        model, domain_map, setup, batch_size=batch_size
    )
    shapes = _window_shapes(simulator, patterns)
    if batch_size == 64:
        assert [len(names) for names in shapes] == [5]
    elif batch_size == 5:
        assert sum("two" in names for names in shapes) > 1
        assert any(len(names) > 1 for names in shapes)
    else:
        assert len(shapes) == len(patterns)
    assert any(len(p.pi_frames) < p.procedure.num_frames for p in patterns)
    held = _assert_framer_matches_reference(simulator, patterns)
    assert held if batch_size == 64 else True

    # The corner cases are exercised, not vacuous.
    node = model.node_of_net
    window = next(simulator.frames.iter_windows(patterns, 64))
    final = window.final
    constrained = node["a_2"]
    assert any(p.pi_frames[-1].get("a_2") is Logic.ZERO for p in patterns)
    assert (final.can0[constrained], final.can1[constrained]) == (0, final.full_mask)
    by_name = {e.name: e for e in model.state_elements}
    no_d, held = by_name["no_d"], by_name["held"]
    assert no_d.d_node is None and held.flop.init == 1 and not held.flop.is_scan
    unknown = final.can0[no_d.q_node] & final.can1[no_d.q_node]
    pulsed = 0
    for group, procedure in zip(window.groups, window.procedures):
        if any("B" in pulse.domains for pulse in procedure.pulses[:-1]):
            pulsed |= group
    assert unknown == pulsed and 0 < pulsed < final.full_mask
    assert final.can0[no_d.q_node] == final.full_mask


def test_framer_holds_a_constrained_procedure_set_on_tiny():
    """The window framer equals the reference framer on ``tiny`` under
    scenario (d)'s ten procedures, at the three grading batch sizes."""
    prepared, setup, patterns = _uneven_table1_d()
    for batch_size in (64, 5, 1):
        simulator = TransitionFaultSimulator(
            prepared.model, prepared.domain_map, setup, batch_size=batch_size
        )
        _assert_framer_matches_reference(simulator, patterns)


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
