"""Unit tests for the cycle-based sequential simulator."""

from repro.circuits import loadable_counter, s27
from repro.dft import insert_scan
from repro.logic import Logic
from repro.netlist import NetlistBuilder
from repro.simulation import SequentialSimulator


def test_counter_counts():
    sim = SequentialSimulator(loadable_counter(width=4))
    sim.load_state({f"cnt_ff_{i}": 0 for i in range(4)})
    sim.set_inputs({"load": 0, "enable": 1, "d_0": 0, "d_1": 0, "d_2": 0, "d_3": 0})
    for _ in range(5):
        sim.pulse(["clk"])
    value = sum(sim.state[f"cnt_ff_{i}"].to_int() << i for i in range(4))
    assert value == 5


def test_counter_hold_when_disabled():
    sim = SequentialSimulator(loadable_counter(width=4))
    sim.load_state({f"cnt_ff_{i}": (3 >> i) & 1 for i in range(4)})
    sim.set_inputs({"load": 0, "enable": 0})
    sim.pulse(["clk"])
    value = sum(sim.state[f"cnt_ff_{i}"].to_int() << i for i in range(4))
    assert value == 3


def test_counter_synchronous_load():
    sim = SequentialSimulator(loadable_counter(width=4))
    sim.load_state({f"cnt_ff_{i}": 0 for i in range(4)})
    sim.set_inputs({"load": 1, "enable": 0} | {f"d_{i}": (9 >> i) & 1 for i in range(4)})
    sim.pulse(["clk"])
    value = sum(sim.state[f"cnt_ff_{i}"].to_int() << i for i in range(4))
    assert value == 9


def test_only_named_clocks_pulse():
    sim = SequentialSimulator(loadable_counter(width=2))
    sim.load_state({"cnt_ff_0": 0, "cnt_ff_1": 0})
    sim.set_inputs({"load": 0, "enable": 1})
    sim.pulse(["some_other_clock"])
    assert all(v is Logic.ZERO for v in sim.state.values())


def test_reset_state_uses_init_values():
    builder = NetlistBuilder("init")
    clk = builder.clock("clk")
    d = builder.input("d")
    builder.flop(d, clk, q="q", name="ff0", init=1)
    builder.output_from("q")
    sim = SequentialSimulator(builder.build())
    assert sim.state["ff0"] is Logic.ONE
    sim.pulse(["clk"])  # d is X
    assert sim.state["ff0"] is Logic.X
    sim.reset_state()
    assert sim.state["ff0"] is Logic.ONE


def test_scan_shift_through_chain():
    netlist, scan = insert_scan(s27(), num_chains=1)
    sim = SequentialSimulator(netlist)
    chain = scan.chains[0]
    bits = [Logic.ONE, Logic.ZERO, Logic.ONE]
    sim.set_inputs({f"G{i}": 0 for i in range(4)})
    sim.scan_shift([list(chain.cells)], [bits], scan.scan_enable, ["clk"])
    # After 3 shift cycles the first bit shifted in sits in the last cell.
    assert sim.state[chain.cells[-1]] is bits[0]
    assert sim.state[chain.cells[0]] is bits[-1]


def test_scan_unload_returns_previous_contents():
    netlist, scan = insert_scan(s27(), num_chains=1)
    sim = SequentialSimulator(netlist)
    chain = scan.chains[0]
    sim.load_state({cell: Logic.ONE for cell in chain.cells})
    sim.set_inputs({f"G{i}": 0 for i in range(4)})
    out = sim.scan_shift(
        [list(chain.cells)],
        [[Logic.ZERO] * len(chain.cells)],
        scan.scan_enable,
        ["clk"],
    )
    assert all(bit is Logic.ONE for bit in out[0])


def test_ram_write_then_read():
    builder = NetlistBuilder("ramtest")
    clk = builder.clock("clk")
    we = builder.input("we")
    addr = builder.inputs("a", 2)
    din = builder.inputs("d", 2)
    dout = builder.ram(clk, we, addr, din, name="ram0")
    for i, net in enumerate(dout):
        builder.output_from(net, f"q_{i}")
    sim = SequentialSimulator(builder.build())
    sim.set_inputs({"we": 1, "a_0": 1, "a_1": 0, "d_0": 1, "d_1": 0})
    sim.pulse(["clk"])  # write 0b01 at address 0b01 and read it back
    outs = sim.outputs()
    assert outs["q_0"] is Logic.ONE
    assert outs["q_1"] is Logic.ZERO
    # Read from an unwritten address -> X
    sim.set_inputs({"we": 0, "a_0": 0, "a_1": 1})
    sim.pulse(["clk"])
    assert sim.outputs()["q_0"] is Logic.X


def test_ram_unknown_address_corrupts():
    builder = NetlistBuilder("ramx")
    clk = builder.clock("clk")
    we = builder.input("we")
    addr = builder.inputs("a", 1)
    din = builder.inputs("d", 1)
    builder.ram(clk, we, addr, din, name="ram0")
    sim = SequentialSimulator(builder.build())
    sim.set_inputs({"we": 1, "d_0": 1})  # address left X
    sim.pulse(["clk"])
    assert sim.rams["ram0"].corrupted
