"""Behavioral model of the functional PLL used as the at-speed clock source.

The paper's scheme relies on the functional PLL being locked and free-running
during the entire delay test; the CPF then *filters* pulses out of the PLL
output.  For simulation purposes the PLL is a frequency multiplier: it takes a
slow reference (the external tester clock) and produces one free-running
high-speed output per clock domain.  The model produces stimulus waveforms
for the event-driven simulator and period information for the clocking
schemes; it also tracks a simple lock time so tests can assert that no test
clock pulses are requested before the PLL is locked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.simulation.event_sim import clock_stimulus
from repro.logic import Logic


@dataclass(frozen=True)
class PllOutput:
    """One PLL output clock."""

    name: str
    frequency_mhz: float

    @property
    def period_ps(self) -> float:
        return 1_000_000.0 / self.frequency_mhz


@dataclass
class Pll:
    """A multi-output PLL.

    Attributes:
        reference_mhz: Frequency of the external reference (tester) clock.
        outputs: The high-speed output clocks, one per functional domain.
        lock_time_ps: Time after power-up before the outputs are stable.
    """

    reference_mhz: float
    outputs: list[PllOutput] = field(default_factory=list)
    lock_time_ps: float = 0.0

    def add_output(self, name: str, frequency_mhz: float) -> PllOutput:
        if any(o.name == name for o in self.outputs):
            raise ValueError(f"PLL output {name!r} already defined")
        output = PllOutput(name=name, frequency_mhz=frequency_mhz)
        self.outputs.append(output)
        return output

    def output(self, name: str) -> PllOutput:
        for out in self.outputs:
            if out.name == name:
                return out
        raise KeyError(f"no PLL output named {name!r}")

    def stimulus(
        self,
        name: str,
        duration_ps: float,
        start_ps: float | None = None,
        duty: float = 0.5,
    ) -> list[tuple[float, Logic]]:
        """Free-running clock stimulus for one output over a time window.

        The first rising edge is placed after the PLL lock time (or at
        ``start_ps`` when given); the clock then runs until ``duration_ps``.
        """
        out = self.output(name)
        start = self.lock_time_ps if start_ps is None else start_ps
        num_cycles = max(0, int((duration_ps - start) / out.period_ps) + 1)
        return clock_stimulus(period=out.period_ps, num_cycles=num_cycles, start=start, duty=duty)
