"""Tests for random pattern generation and path-delay fault support."""

import random

import pytest

from repro.atpg import (
    AtpgOptions,
    PathDelayAtpg,
    TestSetup,
    fill_pattern,
    random_pattern,
    random_pattern_batch,
    select_critical_paths,
)
from repro.clocking import external_clock_procedures
from repro.fault_sim import PathDelaySensitizationChecker
from repro.faults import PathDelayFault
from repro.logic import Logic
from repro.obs import Telemetry


@pytest.fixture()
def pipeline_env(scanned_pipeline):
    netlist, scan, model, domain_map = scanned_pipeline
    setup = TestSetup(
        name="pd",
        procedures=external_clock_procedures(["clk"], max_pulses=2),
        observe_pos=True,
        scan_enable_net="scan_en",
        options=AtpgOptions(backtrack_limit=30),
    )
    return netlist, scan, model, domain_map, setup


class TestRandomPatterns:
    def test_random_pattern_is_fully_specified(self, pipeline_env):
        _, scan, model, domain_map, setup = pipeline_env
        rng = random.Random(0)
        cells = [c for chain in scan.chains for c in chain.cells]
        pattern = random_pattern(setup.procedures[0], cells, ["d_0", "d_1"], rng)
        assert all(v.is_known for v in pattern.scan_load.values())
        assert all(v.is_known for frame in pattern.pi_frames for v in frame.values())

    def test_hold_pis_repeats_vector(self, pipeline_env):
        _, scan, _, _, setup = pipeline_env
        rng = random.Random(0)
        pattern = random_pattern(setup.procedures[0], ["ff0"], ["d_0"], rng, hold_pis=True)
        assert pattern.pi_frames[0] == pattern.pi_frames[1]

    def test_batch_cycles_procedures(self, pipeline_env):
        _, scan, _, _, setup = pipeline_env
        rng = random.Random(0)
        batch = random_pattern_batch(setup.procedures, ["ff0"], ["d_0"], 6, rng)
        assert len(batch) == 6
        assert {p.procedure.name for p in batch} == {p.name for p in setup.procedures[:1]} or len(
            {p.procedure.name for p in batch}
        ) >= 1

    def test_fill_modes(self, pipeline_env):
        _, scan, _, _, setup = pipeline_env
        from repro.patterns import TestPattern

        pattern = TestPattern(procedure=setup.procedures[0], scan_load={"ff0": Logic.X})
        assert fill_pattern(pattern, random.Random(0), fill="zero").scan_load["ff0"] is Logic.ZERO
        assert fill_pattern(pattern, random.Random(0), fill="one").scan_load["ff0"] is Logic.ONE
        assert fill_pattern(pattern, random.Random(0)).scan_load["ff0"].is_known


class TestPathDelay:
    def test_select_critical_paths_structure(self, pipeline_env):
        _, _, model, _, _ = pipeline_env
        paths = select_critical_paths(model, count=5)
        assert 0 < len(paths) <= 5
        for fault in paths:
            assert len(fault.nodes) >= 2
            # Each node is in the previous node's fanout.
            for a, b in zip(fault.nodes, fault.nodes[1:]):
                assert b in model.fanout[a]

    def test_path_fault_validation(self):
        with pytest.raises(ValueError):
            PathDelayFault(nodes=(1,), rising=True)

    def test_generate_and_check_sensitization(self, pipeline_env):
        netlist, scan, model, domain_map, setup = pipeline_env
        paths = select_critical_paths(model, count=4)
        atpg = PathDelayAtpg(model, domain_map, setup)
        checker = PathDelaySensitizationChecker(model, domain_map, setup)
        tests = atpg.generate_all(paths)
        assert len(tests) == len(paths)
        generated = [t for t in tests if t.pattern is not None]
        # At least something should be testable, and every generated pattern
        # must really sensitize its path per the independent checker.
        for test in generated:
            filled = fill_pattern(test.pattern, random.Random(1))
            assert checker.sensitizes(filled, test.fault)

    def test_generation_reports_podem_telemetry(self, pipeline_env):
        _, _, model, domain_map, setup = pipeline_env
        telemetry = Telemetry.on()
        with telemetry.activate():
            PathDelayAtpg(model, domain_map, setup).generate_all(
                select_critical_paths(model, count=4)
            )
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["atpg.decisions"] > 0
