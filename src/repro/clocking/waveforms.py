"""Clocking waveforms: driving the CPF in timing simulation (Figure 4) and
rendering the chip-level delay-test clocking picture (Figure 2).

Two levels of abstraction are provided:

* :func:`simulate_cpf_capture` applies the real tester protocol (shift cycles,
  scan-enable drop, trigger pulse, wait) to a gate-level CPF block with the
  event-driven timing simulator and returns the resulting waveform together
  with the key time stamps needed by the Figure 4 checks;
* :func:`figure2_waveform` builds the idealized cycle-level picture of a full
  delay-test pattern on a two-domain device — slow shift clock, scan enable,
  and per-domain launch/capture bursts at different functional frequencies —
  which is what the paper's Figure 2 sketches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.clocking.cpf import CpfBlock
from repro.clocking.domains import ClockDomain
from repro.simulation.event_sim import EventSimulator, clock_stimulus
from repro.logic import Logic
from repro.simulation.waveform import Waveform


@dataclass
class CpfSimulationTiming:
    """Key time stamps of one CPF capture simulation."""

    shift_start: float
    shift_end: float
    trigger_time: float
    window_end: float
    pll_period: float
    scan_period: float
    end_time: float


def simulate_cpf_capture(
    block: CpfBlock,
    pll_period: float = 1000.0,
    scan_period: float = 8000.0,
    num_shift_cycles: int = 4,
    config_values: dict[str, int] | None = None,
    settle_cycles: int = 12,
) -> tuple[Waveform, CpfSimulationTiming]:
    """Run the full shift-then-capture protocol on a CPF block.

    Args:
        block: A CPF block built by :mod:`repro.clocking.cpf`.
        pll_period: PLL clock period in picoseconds (1000ps = 1 GHz-ish).
        scan_period: External scan clock period in picoseconds.
        num_shift_cycles: Scan-clk cycles to apply while scan_en is high.
        config_values: Enhanced-CPF configuration values (ignored for the
            simple CPF).
        settle_cycles: Extra PLL cycles simulated after the expected burst.

    Returns:
        ``(waveform, timing)``.
    """
    ports = block.ports
    simulator = EventSimulator(block.netlist)

    shift_start = scan_period
    shift_end = shift_start + num_shift_cycles * scan_period
    # scan_en drops half a scan period after the last shift pulse, the trigger
    # pulse follows one scan period later ("relaxed timing").
    scan_en_drop = shift_end + 0.5 * scan_period
    trigger_time = scan_en_drop + scan_period
    window_end = trigger_time + (block.shift_register_length + settle_cycles) * pll_period
    end_time = window_end + 2 * scan_period

    total_pll_cycles = int(end_time / pll_period) + 2
    stimulus: dict[str, list[tuple[float, Logic]]] = {
        ports.pll_clk: clock_stimulus(pll_period, total_pll_cycles, start=pll_period / 2),
        ports.scan_clk: (
            clock_stimulus(scan_period, num_shift_cycles, start=shift_start)
            + clock_stimulus(scan_period, 1, start=trigger_time, initial_low=False)
        ),
        ports.scan_en: [(0.0, Logic.ONE), (scan_en_drop, Logic.ZERO), (end_time - scan_period, Logic.ONE)],
        ports.test_mode: [(0.0, Logic.ONE)],
    }
    for net in ports.config:
        value = (config_values or {}).get(net, 0)
        stimulus[net] = [(0.0, Logic.from_int(value))]

    initial = {ports.scan_clk: Logic.ZERO, ports.pll_clk: Logic.ZERO,
               ports.scan_en: Logic.ONE, ports.test_mode: Logic.ONE}
    for net in ports.config:
        initial[net] = Logic.from_int((config_values or {}).get(net, 0))
    simulator.initialize(initial)
    simulator.apply_stimulus(stimulus)
    waveform = simulator.run(end_time)

    timing = CpfSimulationTiming(
        shift_start=shift_start,
        shift_end=shift_end,
        trigger_time=trigger_time,
        window_end=window_end,
        pll_period=pll_period,
        scan_period=scan_period,
        end_time=end_time,
    )
    return waveform, timing


def figure2_waveform(
    domains: Sequence[ClockDomain],
    shift_cycles: int = 6,
    pulses_per_domain: int = 2,
    scan_period: float = 8.0,
) -> Waveform:
    """Idealized delay-test clocking for a multi-domain device (Figure 2).

    The picture shows: the slow ``scan_clk`` active during shift with
    ``scan_en`` high, then — with ``scan_en`` low — each domain's clock
    emitting its launch/capture burst at its own functional period, then shift
    resuming.

    Args:
        domains: The functional clock domains (frequencies set pulse spacing).
        shift_cycles: Number of shift clock cycles drawn before the capture.
        pulses_per_domain: At-speed pulses per domain (2 = launch/capture).
        scan_period: Scan clock period in arbitrary display units.

    Returns:
        A :class:`~repro.simulation.waveform.Waveform` with ``scan_clk``,
        ``scan_en`` and one ``clk_<domain>`` trace per domain.
    """
    waveform = Waveform(time_unit="ns")
    shift_end = (shift_cycles + 0.5) * scan_period
    capture_start = shift_end + scan_period
    slowest_period = max(domain.period_ns for domain in domains) if domains else 1.0
    capture_end = capture_start + (pulses_per_domain + 2) * slowest_period
    resume = capture_end + scan_period
    end_time = resume + shift_cycles * scan_period

    waveform.record("scan_en", 0.0, Logic.ONE)
    waveform.record("scan_en", shift_end, Logic.ZERO)
    waveform.record("scan_en", capture_end + 0.5 * scan_period, Logic.ONE)

    waveform.record("scan_clk", 0.0, Logic.ZERO)
    for cycle in range(shift_cycles):
        rise = (cycle + 0.25) * scan_period
        waveform.record("scan_clk", rise, Logic.ONE)
        waveform.record("scan_clk", rise + scan_period / 2, Logic.ZERO)
    # Trigger pulse with relaxed timing after scan_en dropped.
    trigger = shift_end + 0.5 * scan_period
    waveform.record("scan_clk", trigger, Logic.ONE)
    waveform.record("scan_clk", trigger + scan_period / 2, Logic.ZERO)
    for cycle in range(shift_cycles):
        rise = resume + (cycle + 0.25) * scan_period
        waveform.record("scan_clk", rise, Logic.ONE)
        waveform.record("scan_clk", rise + scan_period / 2, Logic.ZERO)

    for domain in domains:
        clk = f"clk_{domain.name}"
        waveform.record(clk, 0.0, Logic.ZERO)
        period = domain.period_ns
        for pulse in range(pulses_per_domain):
            rise = capture_start + pulse * period
            waveform.record(clk, rise, Logic.ONE)
            waveform.record(clk, rise + period / 2, Logic.ZERO)
    waveform.end_time = end_time
    return waveform
