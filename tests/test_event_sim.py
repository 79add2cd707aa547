"""Unit tests for the event-driven timing simulator."""

import pytest

from repro.logic import Logic
from repro.netlist import NetlistBuilder
from repro.simulation import EventSimulator, clock_stimulus


def inverter_chain(length=3):
    builder = NetlistBuilder("chain")
    a = builder.input("a")
    net = a
    for i in range(length):
        net = builder.inv(net, output=f"n{i}")
    builder.output_from(net, "y")
    return builder.build()


def test_combinational_propagation_delay():
    netlist = inverter_chain(3)
    sim = EventSimulator(netlist)
    sim.initialize({"a": 0})
    sim.apply_stimulus({"a": [(1000.0, Logic.ONE)]})
    wave = sim.run(3000.0)
    edges = wave["n2"].edges()
    assert edges, "output must eventually change"
    # Three inverter delays after the input edge.
    assert edges[-1].time == pytest.approx(1000.0 + 3 * 20.0)
    assert sim.value("n2") is Logic.ZERO  # odd number of inversions of 1


def test_dff_captures_on_rising_edge():
    builder = NetlistBuilder("ff")
    d = builder.input("d")
    clk = builder.clock("clk")
    q = builder.flop(d, clk, q="q", name="ff0")
    builder.output_from(q)
    sim = EventSimulator(builder.build())
    sim.initialize({"d": 1, "clk": 0})
    sim.apply_stimulus({"clk": clock_stimulus(period=1000.0, num_cycles=2, start=500.0)})
    wave = sim.run(3000.0)
    assert sim.value("q") is Logic.ONE
    # Q changes only after the first rising edge plus clk->q delay.
    first_change = wave["q"].edges()[0].time
    assert first_change == pytest.approx(500.0 + 120.0)


def test_dff_async_reset():
    builder = NetlistBuilder("ffr")
    d = builder.input("d")
    rst = builder.input("rst")
    clk = builder.clock("clk")
    builder.flop(d, clk, q="q", name="ff0", reset=rst)
    builder.output_from("q")
    sim = EventSimulator(builder.build())
    sim.initialize({"d": 1, "clk": 0, "rst": 0})
    sim.apply_stimulus({"clk": clock_stimulus(1000.0, 1, start=500.0),
                        "rst": [(2000.0, Logic.ONE)]})
    sim.run(3000.0)
    assert sim.value("q") is Logic.ZERO


def test_latch_transparent_low():
    builder = NetlistBuilder("lat")
    d = builder.input("d")
    en = builder.input("en")
    builder.latch(d, en, q="q", name="lat0", active_level=0)
    builder.output_from("q")
    sim = EventSimulator(builder.build())
    sim.initialize({"d": 0, "en": 0})
    sim.apply_stimulus(
        {
            "d": [(1000.0, Logic.ONE), (5000.0, Logic.ZERO)],
            "en": [(3000.0, Logic.ONE)],
        }
    )
    sim.run(7000.0)
    # While en=0 the latch is transparent (q follows d=1); once en=1 it holds.
    assert sim.value("q") is Logic.ONE


def test_scan_mux_capture_behavior():
    builder = NetlistBuilder("scanff")
    d = builder.input("d")
    builder.input("si")
    builder.input("se")
    clk = builder.clock("clk")
    from dataclasses import replace

    builder.flop(d, clk, q="q", name="ff0")
    netlist = builder.build()
    netlist.replace_flop("ff0", replace(netlist.flops["ff0"], scan_in="si", scan_enable="se"))
    sim = EventSimulator(netlist)
    sim.initialize({"d": 0, "si": 1, "se": 1, "clk": 0})
    sim.apply_stimulus({"clk": clock_stimulus(1000.0, 1, start=500.0)})
    sim.run(2000.0)
    assert sim.value("q") is Logic.ONE  # captured from scan path


def test_clock_stimulus_shape():
    changes = clock_stimulus(period=10.0, num_cycles=3, start=5.0)
    rising = [t for t, v in changes if v is Logic.ONE]
    assert rising == [5.0, 15.0, 25.0]
    assert changes[0] == (0.0, Logic.ZERO)


def test_rejects_ram():
    builder = NetlistBuilder("ram")
    clk = builder.clock("clk")
    we = builder.input("we")
    builder.ram(clk, we, builder.inputs("a", 1), builder.inputs("d", 1))
    with pytest.raises(ValueError):
        EventSimulator(builder.build())


def test_past_event_rejected():
    netlist = inverter_chain(1)
    sim = EventSimulator(netlist)
    sim.initialize({"a": 0})
    sim.apply_stimulus({"a": [(100.0, Logic.ONE)]})
    sim.run(200.0)
    with pytest.raises(ValueError):
        sim.schedule("a", Logic.ZERO, 50.0)
