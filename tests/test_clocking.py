"""Unit tests for clock domains, PLL model and named capture procedures."""

import pytest

from repro.circuits import two_domain_crossing
from repro.clocking import (
    CapturePulse,
    ClockDomain,
    ClockDomainMap,
    NamedCaptureProcedure,
    Pll,
    enhanced_cpf_procedures,
    external_clock_procedures,
    simple_cpf_procedures,
    stuck_at_procedure,
    stuck_at_procedures,
)


class TestClockDomains:
    def test_period_conversion(self):
        domain = ClockDomain(name="fast", clock_net="clk_f", frequency_mhz=150.0)
        assert domain.period_ns == pytest.approx(6.6667, rel=1e-3)
        assert domain.period_ps == pytest.approx(6666.7, rel=1e-3)

    def test_map_from_netlist(self):
        netlist = two_domain_crossing(4)
        mapping = ClockDomainMap.from_netlist(
            netlist,
            [ClockDomain("a", "clk_a", 150.0), ClockDomain("b", "clk_b", 75.0)],
        )
        assert mapping.domain_of("a_ff_0") == "a"
        assert mapping.domain_of("b_ff_0") == "b"
        assert mapping.domain_of("ba_ff_0") == "a"
        assert mapping.summary()["a"] + mapping.summary()["b"] == len(netlist.flops)

    def test_unassigned_flops(self):
        netlist = two_domain_crossing(4)
        mapping = ClockDomainMap.from_netlist(netlist, [ClockDomain("a", "clk_a", 150.0)])
        assert mapping.domain_of("b_ff_0") is None
        assert 0 < mapping.summary()["a"] < len(netlist.flops)

    def test_duplicate_domain_rejected(self):
        with pytest.raises(ValueError):
            ClockDomainMap([ClockDomain("a", "x", 1.0), ClockDomain("a", "y", 2.0)])


class TestPll:
    def test_outputs_and_multiplication(self):
        pll = Pll(reference_mhz=25.0)
        pll.add_output("clk_fast", 150.0)
        pll.add_output("clk_slow", 75.0)
        assert pll.output("clk_fast").frequency_mhz / pll.reference_mhz == pytest.approx(6.0)
        with pytest.raises(ValueError):
            pll.add_output("clk_fast", 100.0)
        with pytest.raises(KeyError):
            pll.output("missing")

    def test_stimulus_generation(self):
        pll = Pll(reference_mhz=25.0, lock_time_ps=500.0)
        pll.add_output("clk", 100.0)  # 10 ns period
        changes = pll.stimulus("clk", duration_ps=50_000.0)
        rising = [t for t, v in changes if str(v) == "1"]
        assert rising[0] == pytest.approx(500.0)
        assert rising[1] - rising[0] == pytest.approx(10_000.0)


class TestNamedCaptureProcedures:
    def test_framing_of_two_pulse_procedure(self):
        procedure = NamedCaptureProcedure(
            name="p", pulses=(CapturePulse.of("a"), CapturePulse.of("a"))
        )
        assert procedure.num_frames == 2
        assert procedure.launch_frame == 0
        assert procedure.capture_frame == 1
        assert not procedure.is_inter_domain
        assert procedure.is_at_speed

    def test_inter_domain_detection(self):
        procedure = NamedCaptureProcedure(
            name="x", pulses=(CapturePulse.of("a"), CapturePulse.of("b"))
        )
        assert procedure.is_inter_domain
        assert procedure.launch_domains == frozenset({"a"})
        assert procedure.capture_domains == frozenset({"b"})

    def test_stuck_at_procedure_is_slow(self):
        procedure = stuck_at_procedure(["a", "b"])
        assert procedure.num_pulses == 1
        assert not procedure.is_at_speed

    def test_stuck_at_procedures_family(self):
        procedures = stuck_at_procedures(["a"], max_pulses=3)
        assert [p.num_pulses for p in procedures] == [1, 2, 3]

    def test_external_clock_family(self):
        procedures = external_clock_procedures(["a", "b"], max_pulses=4)
        assert [p.num_pulses for p in procedures] == [2, 3, 4]
        for procedure in procedures:
            assert procedure.all_domains == frozenset({"a", "b"})

    def test_simple_cpf_family(self):
        procedures = simple_cpf_procedures(["a", "b"])
        assert len(procedures) == 2
        for procedure in procedures:
            assert procedure.num_pulses == 2
            assert len(procedure.all_domains) == 1

    def test_enhanced_cpf_family(self):
        procedures = enhanced_cpf_procedures(["a", "b"], max_pulses=4, inter_domain=True)
        pulse_counts = {p.num_pulses for p in procedures}
        assert pulse_counts == {2, 3, 4}
        assert any(p.is_inter_domain for p in procedures)
        no_inter = enhanced_cpf_procedures(["a", "b"], max_pulses=4, inter_domain=False)
        assert not any(p.is_inter_domain for p in no_inter)

    def test_describe_mentions_every_pulse(self):
        procedure = NamedCaptureProcedure(
            name="p", pulses=(CapturePulse.of("a"), CapturePulse.of("b"))
        )
        text = procedure.describe()
        assert "P1" in text and "P2" in text and "a" in text and "b" in text

    def test_empty_procedure_rejected(self):
        with pytest.raises(ValueError):
            NamedCaptureProcedure(name="bad", pulses=())
