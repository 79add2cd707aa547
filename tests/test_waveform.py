"""Unit tests for waveform storage, querying and export."""

import pytest

from repro.logic import Logic
from repro.simulation import SignalTrace, Waveform


def make_clock_trace(period=10.0, cycles=3):
    trace = SignalTrace("clk", initial=Logic.ZERO)
    for cycle in range(cycles):
        trace.record(cycle * period + 2.0, Logic.ONE)
        trace.record(cycle * period + 7.0, Logic.ZERO)
    return trace


class TestSignalTrace:
    def test_value_at(self):
        trace = make_clock_trace()
        assert trace.value_at(0.0) is Logic.ZERO
        assert trace.value_at(3.0) is Logic.ONE
        assert trace.value_at(8.0) is Logic.ZERO

    def test_edges_and_pulses(self):
        trace = make_clock_trace(cycles=4)
        assert len(trace.rising_edges()) == 4
        assert len(trace.falling_edges()) == 4
        pulses = trace.pulses()
        assert len(pulses) == 4
        assert pulses[0].width == pytest.approx(5.0)

    def test_pulse_window(self):
        trace = make_clock_trace(cycles=5)
        assert trace.count_pulses(start=10.0, end=30.0) == 2

    def test_duplicate_value_ignored(self):
        trace = SignalTrace("s", initial=Logic.ZERO)
        trace.record(1.0, Logic.ZERO)
        trace.record(2.0, Logic.ONE)
        trace.record(3.0, Logic.ONE)
        assert len(trace.edges()) == 1

    def test_non_monotonic_time_rejected(self):
        trace = SignalTrace("s", initial=Logic.ZERO)
        trace.record(5.0, Logic.ONE)
        with pytest.raises(ValueError):
            trace.record(1.0, Logic.ZERO)

    def test_same_instant_collapse(self):
        trace = SignalTrace("s", initial=Logic.ZERO)
        trace.record(5.0, Logic.ONE)
        trace.record(5.0, Logic.ZERO)  # glitch collapsed away at same instant
        assert trace.value_at(6.0) is Logic.ZERO
        assert len(trace.edges()) == 0

    def test_glitch_detection(self):
        trace = SignalTrace("s", initial=Logic.ZERO)
        trace.record(10.0, Logic.ONE)
        trace.record(10.5, Logic.ZERO)  # 0.5-wide spike
        assert trace.has_glitch(min_width=1.0)
        assert not trace.has_glitch(min_width=0.1)


class TestWaveform:
    def test_record_and_query(self):
        wave = Waveform()
        wave.record("a", 0.0, Logic.ZERO)
        wave.record("a", 5.0, Logic.ONE)
        wave.record("b", 3.0, Logic.ONE)
        assert wave.signals() == ["a", "b"]
        assert wave["a"].value_at(4.0) is Logic.ZERO
        assert wave["a"].value_at(6.0) is Logic.ONE
        assert wave.end_time == 5.0

    def test_ascii_rendering(self):
        wave = Waveform()
        wave.record("clk", 0.0, Logic.ZERO)
        wave.record("clk", 50.0, Logic.ONE)
        art = wave.to_ascii(["clk"], end=100.0, width=20)
        assert "clk" in art
        assert "▁" in art and "▔" in art

    def test_contains_and_getitem(self):
        wave = Waveform()
        wave.record("x", 0.0, Logic.ONE)
        assert "x" in wave and "y" not in wave
        assert wave["x"].value_at(1.0) is Logic.ONE
