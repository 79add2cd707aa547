"""Unit tests for the netlist builder and its composite structures."""

import pytest

from repro.analyze import lint_netlist
from repro.logic import Logic
from repro.netlist import GateType, NetlistBuilder
from repro.simulation import build_model, simulate_by_net


def eval_comb(netlist, assignments):
    model = build_model(netlist)
    return simulate_by_net(model, assignments)


class TestBuilderBasics:
    def test_gate_and_output(self):
        b = NetlistBuilder("t")
        a, c = b.input("a"), b.input("c")
        y = b.and_([a, c], output="y")
        b.output_from(y)
        netlist = b.build()
        assert netlist.outputs == ("y",)
        assert lint_netlist(netlist).ok

    def test_output_from_with_rename_inserts_buffer(self):
        b = NetlistBuilder("t")
        a = b.input("a")
        b.output_from(a, "out")
        netlist = b.build()
        assert "out" in netlist.outputs
        assert any(g.gtype is GateType.BUF for g in netlist.gates.values())

    def test_fresh_nets_unique(self):
        b = NetlistBuilder("t")
        names = {b.fresh_net("n") for _ in range(100)}
        assert len(names) == 100

    def test_ties(self):
        b = NetlistBuilder("t")
        zero, one = b.tie0(), b.tie1()
        y = b.or_([zero, one], output="y")
        b.output_from(y)
        values = eval_comb(b.build(), {})
        assert values["y"] is Logic.ONE


class TestComposites:
    def test_ripple_adder_truth(self):
        b = NetlistBuilder("adder")
        a = b.inputs("a", 3)
        c = b.inputs("c", 3)
        sums, carry = b.ripple_adder(a, c)
        for i, s in enumerate(sums):
            b.output_from(s, f"s{i}")
        b.output_from(carry, "cout")
        netlist = b.build()
        for x, y in [(3, 5), (7, 7), (0, 0), (6, 1)]:
            assignment = {}
            for i in range(3):
                assignment[f"a_{i}"] = (x >> i) & 1
                assignment[f"c_{i}"] = (y >> i) & 1
            values = eval_comb(netlist, assignment)
            total = sum(values[f"s{i}"].to_int() << i for i in range(3))
            total += values["cout"].to_int() << 3
            assert total == x + y

    def test_reduce_tree_and(self):
        b = NetlistBuilder("tree")
        nets = b.inputs("x", 5)
        out = b.reduce_tree(GateType.AND, nets)
        b.output_from(out, "y")
        netlist = b.build()
        all_ones = eval_comb(netlist, {f"x_{i}": 1 for i in range(5)})
        assert all_ones["y"] is Logic.ONE
        one_zero = eval_comb(netlist, {f"x_{i}": 1 for i in range(5)} | {"x_3": 0})
        assert one_zero["y"] is Logic.ZERO

    def test_reduce_tree_rejects_empty(self):
        b = NetlistBuilder("tree")
        with pytest.raises(ValueError):
            b.reduce_tree(GateType.AND, [])

    def test_mux(self):
        b = NetlistBuilder("mux")
        s, a, c = b.input("s"), b.input("a"), b.input("c")
        y = b.mux(s, a, c, output="y")
        b.output_from(y)
        netlist = b.build()
        assert eval_comb(netlist, {"s": 0, "a": 1, "c": 0})["y"] is Logic.ONE
        assert eval_comb(netlist, {"s": 1, "a": 1, "c": 0})["y"] is Logic.ZERO

    def test_counter_build(self):
        b = NetlistBuilder("regs")
        clk = b.clock("clk")
        enable = b.input("en")
        state = b.counter(3, clk, enable)
        assert len(state) == 3
        netlist = b.build()
        assert netlist.stats().num_flops == 3
        assert lint_netlist(netlist).ok

    def test_adder_width_mismatch(self):
        b = NetlistBuilder("bad")
        with pytest.raises(ValueError):
            b.ripple_adder(b.inputs("a", 2), b.inputs("c", 3))
