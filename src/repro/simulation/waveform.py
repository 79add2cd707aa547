"""Waveform storage, querying and text rendering.

The event-driven timing simulator records every value change of every traced
net into a :class:`Waveform`.  The waveform API is what the CPF verification
(:mod:`repro.clocking.waveform_check`) uses to prove the Figure 4 properties:
"exactly two PLL pulses reach ``clk_out``", "no glitches or spikes", "the
enable window opens three PLL cycles after the scan-clk trigger".
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable

from repro.logic import Logic


@dataclass(frozen=True)
class Edge:
    """A single value change on a signal."""

    time: float
    old: Logic
    new: Logic

    @property
    def is_rising(self) -> bool:
        return self.old is Logic.ZERO and self.new is Logic.ONE

    @property
    def is_falling(self) -> bool:
        return self.old is Logic.ONE and self.new is Logic.ZERO


@dataclass(frozen=True)
class Pulse:
    """A positive pulse: a rising edge followed by the next falling edge."""

    start: float
    end: float

    @property
    def width(self) -> float:
        return self.end - self.start


class SignalTrace:
    """Value history of one signal."""

    def __init__(self, name: str, initial: Logic = Logic.X, start_time: float = 0.0) -> None:
        self.name = name
        self._times: list[float] = [start_time]
        self._values: list[Logic] = [initial]

    def record(self, time: float, value: Logic) -> None:
        """Append a value change (ignored if the value does not change)."""
        if value is self._values[-1]:
            return
        if time < self._times[-1]:
            raise ValueError(f"time must be monotonic on {self.name!r}")
        if time == self._times[-1]:
            # Same-instant overwrite (delta-cycle collapse).
            self._values[-1] = value
            if len(self._values) >= 2 and self._values[-1] is self._values[-2]:
                self._times.pop()
                self._values.pop()
            return
        self._times.append(time)
        self._values.append(value)

    def value_at(self, time: float) -> Logic:
        """Signal value at (just after) ``time``."""
        idx = bisect_right(self._times, time) - 1
        if idx < 0:
            return Logic.X
        return self._values[idx]

    def edges(self) -> list[Edge]:
        """All value changes in time order."""
        result = []
        for i in range(1, len(self._times)):
            result.append(Edge(time=self._times[i], old=self._values[i - 1], new=self._values[i]))
        return result

    def rising_edges(self, start: float = float("-inf"), end: float = float("inf")) -> list[float]:
        return [e.time for e in self.edges() if e.is_rising and start <= e.time <= end]

    def falling_edges(self, start: float = float("-inf"), end: float = float("inf")) -> list[float]:
        return [e.time for e in self.edges() if e.is_falling and start <= e.time <= end]

    def pulses(self, start: float = float("-inf"), end: float = float("inf")) -> list[Pulse]:
        """Positive pulses fully contained in the window."""
        pulses: list[Pulse] = []
        rise: float | None = None
        for edge in self.edges():
            if edge.is_rising:
                rise = edge.time
            elif edge.is_falling and rise is not None:
                if start <= rise and edge.time <= end:
                    pulses.append(Pulse(start=rise, end=edge.time))
                rise = None
        return pulses

    def count_pulses(self, start: float = float("-inf"), end: float = float("inf")) -> int:
        return len(self.pulses(start, end))

    def has_glitch(self, min_width: float) -> bool:
        """True if any positive or negative pulse is narrower than ``min_width``."""
        edges = self.edges()
        for i in range(1, len(edges)):
            prev, cur = edges[i - 1], edges[i]
            narrow = (cur.time - prev.time) < min_width
            opposite = (prev.is_rising and cur.is_falling) or (prev.is_falling and cur.is_rising)
            if narrow and opposite:
                return True
        return False

    def changes(self) -> list[tuple[float, Logic]]:
        return list(zip(self._times, self._values))


class Waveform:
    """A collection of signal traces produced by one simulation run."""

    def __init__(self, time_unit: str = "ps") -> None:
        self.time_unit = time_unit
        self._traces: dict[str, SignalTrace] = {}
        self.end_time: float = 0.0

    def trace(self, name: str) -> SignalTrace:
        if name not in self._traces:
            self._traces[name] = SignalTrace(name)
        return self._traces[name]

    def __contains__(self, name: str) -> bool:
        return name in self._traces

    def __getitem__(self, name: str) -> SignalTrace:
        return self._traces[name]

    def signals(self) -> list[str]:
        return sorted(self._traces)

    def record(self, name: str, time: float, value: Logic) -> None:
        self.trace(name).record(time, value)
        self.end_time = max(self.end_time, time)

    def to_ascii(
        self,
        signals: Iterable[str] | None = None,
        start: float = 0.0,
        end: float | None = None,
        step: float | None = None,
        width: int = 72,
    ) -> str:
        """Render a textual waveform (one row per signal) for reports.

        ``1`` is drawn as ``▔``, ``0`` as ``▁`` and X/Z as ``░`` so the
        launch/capture pulse bursts of Figures 2 and 4 are recognizable in a
        terminal.
        """
        names = list(signals) if signals is not None else self.signals()
        end = end if end is not None else self.end_time
        if end <= start:
            end = start + 1.0
        step = step if step is not None else (end - start) / width
        rows = []
        for name in names:
            trace = self._traces.get(name)
            chars = []
            t = start
            while t < end:
                value = trace.value_at(t) if trace else Logic.X
                chars.append({Logic.ONE: "▔", Logic.ZERO: "▁"}.get(value, "░"))
                t += step
            rows.append(f"{name:>16} {''.join(chars)}")
        return "\n".join(rows)

