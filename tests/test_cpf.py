"""Gate-level CPF tests: the Figure 3 schematic and Figure 4 waveform claims."""

import pytest

from repro.analyze import lint_netlist
from repro.clocking import (
    build_cpf,
    build_enhanced_cpf,
    check_cpf_waveform,
    enhanced_cpf_config,
    insert_cpf,
    simulate_cpf_capture,
)
from repro.circuits import two_domain_crossing
from repro.logic import Logic
from repro.netlist import area_report
from repro.simulation import EventSimulator, clock_stimulus


class TestSimpleCpf:
    def test_structure_is_about_ten_gates(self):
        block = build_cpf()
        assert block.gate_count <= 20
        assert block.shift_register_length == 5
        report = lint_netlist(block.netlist, allow_floating_inputs=True)
        assert report.ok

    def test_exactly_two_pulses_no_glitches(self):
        block = build_cpf()
        wave, timing = simulate_cpf_capture(block)
        report = check_cpf_waveform(
            wave, block.ports.clk_out, block.ports.pll_clk, block.ports.scan_clk,
            timing.trigger_time, timing.window_end, timing.pll_period,
            expected_pulses=2,
            shift_window=(timing.shift_start, timing.shift_end),
        )
        assert report.pulse_count_correct
        assert report.glitch_free
        assert report.ok

    def test_three_pll_cycle_latency(self):
        block = build_cpf()
        wave, timing = simulate_cpf_capture(block)
        report = check_cpf_waveform(
            wave, block.ports.clk_out, block.ports.pll_clk, block.ports.scan_clk,
            timing.trigger_time, timing.window_end, timing.pll_period,
        )
        assert report.latency_pll_cycles is not None
        assert 2.5 <= report.latency_pll_cycles <= 4.5

    def test_clk_out_follows_scan_clk_during_shift(self):
        block = build_cpf()
        wave, timing = simulate_cpf_capture(block, num_shift_cycles=5)
        report = check_cpf_waveform(
            wave, block.ports.clk_out, block.ports.pll_clk, block.ports.scan_clk,
            timing.trigger_time, timing.window_end, timing.pll_period,
            shift_window=(timing.shift_start, timing.shift_end),
        )
        assert report.shift_pulses_passed >= 4

    def test_functional_mode_passes_pll_clock(self):
        """The CGC must be permanently enabled when test_mode is 0."""
        block = build_cpf()
        sim = EventSimulator(block.netlist)
        sim.initialize({
            block.ports.scan_clk: Logic.ZERO,
            block.ports.pll_clk: Logic.ZERO,
            block.ports.scan_en: Logic.ZERO,
            block.ports.test_mode: Logic.ZERO,
        })
        sim.apply_stimulus({block.ports.pll_clk: clock_stimulus(1000.0, 12, start=500.0)})
        wave = sim.run(14_000.0)
        # All PLL pulses reach clk_out in functional mode.
        assert wave[block.ports.clk_out].count_pulses(0.0, 13_000.0) >= 10


class TestEnhancedCpf:
    @pytest.mark.parametrize("pulses", [2, 3, 4])
    def test_programmable_pulse_count(self, pulses):
        block = build_enhanced_cpf()
        wave, timing = simulate_cpf_capture(block, config_values=enhanced_cpf_config(pulses))
        report = check_cpf_waveform(
            wave, block.ports.clk_out, block.ports.pll_clk, block.ports.scan_clk,
            timing.trigger_time, timing.window_end, timing.pll_period,
            expected_pulses=pulses,
        )
        assert report.pulses_in_window == pulses
        assert report.glitch_free

    def test_delay_configuration_staggers_window(self):
        block = build_enhanced_cpf()
        normal_wave, timing = simulate_cpf_capture(
            block, config_values=enhanced_cpf_config(2, delayed=False)
        )
        delayed_block = build_enhanced_cpf(name="ecpf2")
        delayed_wave, timing2 = simulate_cpf_capture(
            delayed_block, config_values=enhanced_cpf_config(2, delayed=True)
        )
        first_normal = normal_wave[block.ports.clk_out].pulses(timing.trigger_time,
                                                               timing.window_end)[0].start
        first_delayed = delayed_wave[delayed_block.ports.clk_out].pulses(
            timing2.trigger_time, timing2.window_end)[0].start
        assert first_delayed - timing2.trigger_time > first_normal - timing.trigger_time

    def test_invalid_pulse_count_rejected(self):
        with pytest.raises(ValueError):
            enhanced_cpf_config(5)


class TestCpfInsertion:
    def test_insert_cpf_reclocks_domain(self):
        netlist = two_domain_crossing(4)
        record = insert_cpf(
            netlist, "a", pll_clk_net="clk_a", scan_clk_net="scan_clk",
            scan_en_net="scan_en", test_mode_net="test_mode",
        )
        new_clock = record.ports.clk_out
        domain_a_flops = [f for f in netlist.flops.values() if f.name.startswith(("a_ff", "ba_ff"))]
        assert domain_a_flops
        for flop in domain_a_flops:
            assert flop.clock == new_clock
        # CPF instances were merged with the given prefix.
        assert any(name.startswith(record.instance_prefix) for name in netlist.flops)
        assert "scan_clk" in netlist.inputs
        assert lint_netlist(netlist).ok

    def test_cpf_area_overhead_is_small(self):
        netlist = two_domain_crossing(8)
        before = area_report(netlist).total
        insert_cpf(netlist, "a", "clk_a", "scan_clk", "scan_en", "test_mode")
        insert_cpf(netlist, "b", "clk_b", "scan_clk", "scan_en", "test_mode")
        after = area_report(netlist).total
        # Each CPF is a handful of cells; the absolute overhead is bounded and
        # becomes negligible on any real-size domain.
        assert after - before < 2 * 80.0  # NAND2-equivalents for two CPFs
