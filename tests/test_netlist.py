"""Unit tests for the netlist data model."""

import pytest

from repro.netlist import (
    FlipFlop,
    Gate,
    GateType,
    Latch,
    Netlist,
    NetlistError,
    RamMacro,
)
from repro.simulation import build_model


def small_netlist() -> Netlist:
    netlist = Netlist("small")
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_input("clk")
    netlist.declare_clock("clk")
    netlist.add_gate(Gate("g1", GateType.AND, ("a", "b"), "n1"))
    netlist.add_gate(Gate("g2", GateType.NOT, ("n1",), "n2"))
    netlist.add_flop(FlipFlop(name="ff1", d="n2", q="q1", clock="clk"))
    netlist.add_output("q1")
    return netlist


class TestNetlistEditing:
    def test_driver_and_fanout(self):
        netlist = small_netlist()
        kind, gate = netlist.driver_of("n1")
        assert kind == "gate" and gate.name == "g1"
        kind, _ = netlist.driver_of("a")
        assert kind == "input"
        model = build_model(netlist)
        sinks = model.fanout[model.node_of_net["n1"]]
        assert [model.nodes[i].net for i in sinks] == ["n2"]

    def test_duplicate_input_rejected(self):
        netlist = small_netlist()
        with pytest.raises(NetlistError):
            netlist.add_input("a")

    def test_multiple_drivers_rejected(self):
        netlist = small_netlist()
        with pytest.raises(NetlistError):
            netlist.add_gate(Gate("g3", GateType.OR, ("a", "b"), "n1"))

    def test_duplicate_instance_rejected(self):
        netlist = small_netlist()
        with pytest.raises(NetlistError):
            netlist.add_gate(Gate("g1", GateType.OR, ("a", "b"), "n9"))

    def test_replace_flop_keeps_name(self):
        netlist = small_netlist()
        flop = netlist.flops["ff1"]
        from dataclasses import replace

        netlist.replace_flop("ff1", replace(flop, scan_in="a", scan_enable="b"))
        assert netlist.flops["ff1"].is_scan
        with pytest.raises(NetlistError):
            netlist.replace_flop("ff1", replace(flop, name="other"))

    def test_all_nets(self):
        netlist = small_netlist()
        nets = netlist.all_nets()
        assert {"a", "b", "clk", "n1", "n2", "q1"} <= nets

    def test_stats(self):
        stats = small_netlist().stats()
        assert stats.num_gates == 2
        assert stats.num_flops == 1
        assert stats.num_primary_inputs == 3
        assert stats.num_primary_outputs == 1

    def test_add_output_keeps_the_driver_map(self):
        """Primary outputs are not in the driver map, so declaring one must
        not drop it (every scan chain's ``add_input`` would rebuild the
        map)."""
        netlist = small_netlist()
        netlist.driver_of("n1")
        drivers = netlist._driver_cache
        netlist.add_output("n2")
        assert netlist._driver_cache is drivers
        assert netlist.driver_of("n2")[1].name == "g2"
        assert netlist.outputs == ("q1", "n2")
        with pytest.raises(NetlistError):
            netlist.add_output("n2")


@pytest.mark.parametrize(
    "design, digest",
    [
        ("tiny", "f65579a3e820b5311d9bec2fec62abdf4f9abe9501d62b38b4cb9786444be67f"),
        ("hier-soc-1k", "f56f5bdc675d36542573484c6af6de3207e0aebcdf0249f98cffc8561a529ecc"),
        ("hier-soc-10k", "c9e4acd3e15603f8c170776ce590d4809bbb5d7558633b50b3308131eef5d24e"),
    ],
)
def test_prepared_design_fingerprints_are_pinned(design, digest):
    """Building a design (scan insertion declares outputs between inputs)
    yields the same model, content hash for content hash."""
    from repro.api.design import prepare_from_spec
    from repro.engine.cache import design_fingerprint
    from repro.hier.designs import register_hier_designs

    register_hier_designs()
    assert design_fingerprint(prepare_from_spec(design).model) == digest


class TestTopologicalOrder:
    def test_order_respects_dependencies(self):
        netlist = small_netlist()
        order = [g.name for g in netlist.topological_gate_order()]
        assert order.index("g1") < order.index("g2")

    def test_combinational_loop_detected(self):
        netlist = Netlist("loop")
        netlist.add_input("a")
        netlist.add_gate(Gate("g1", GateType.AND, ("a", "n2"), "n1"))
        netlist.add_gate(Gate("g2", GateType.AND, ("n1", "a"), "n2"))
        with pytest.raises(NetlistError):
            netlist.topological_gate_order()

    def test_flop_breaks_cycle(self):
        netlist = Netlist("seq_loop")
        netlist.add_input("clk")
        netlist.declare_clock("clk")
        netlist.add_gate(Gate("g1", GateType.NOT, ("q",), "d"))
        netlist.add_flop(FlipFlop(name="ff", d="d", q="q", clock="clk"))
        order = netlist.topological_gate_order()
        assert [g.name for g in order] == ["g1"]


class TestMergeAndCopy:
    def test_copy_is_independent(self):
        netlist = small_netlist()
        clone = netlist.copy("clone")
        clone.add_input("extra")
        assert "extra" not in netlist.inputs
        assert clone.name == "clone"

    def test_merge_prefixes_instances_and_keeps_nets(self):
        top = small_netlist()
        block = Netlist("block")
        block.add_input("n2")  # connects to top's internal net
        block.add_gate(Gate("bg", GateType.NOT, ("n2",), "block_out"))
        block.add_output("block_out")
        top.merge(block, prefix="u_")
        assert "u_bg" in top.gates
        # The block input "n2" must not become a primary input (already driven).
        assert "n2" not in top.inputs
        assert "block_out" in top.outputs

    def test_merge_adds_undriven_inputs(self):
        top = small_netlist()
        block = Netlist("block")
        block.add_input("fresh_in")
        block.add_gate(Gate("bg", GateType.BUF, ("fresh_in",), "fresh_out"))
        top.merge(block, prefix="u_")
        assert "fresh_in" in top.inputs


class TestSequentialElements:
    def test_latch_and_ram(self):
        netlist = Netlist("seq")
        netlist.add_input("clk")
        netlist.add_input("en")
        netlist.add_input("d")
        netlist.declare_clock("clk")
        netlist.add_latch(Latch(name="lat", d="d", q="lq", enable="en"))
        netlist.add_ram(
            RamMacro(
                name="ram",
                clock="clk",
                write_enable="en",
                address=("d",),
                data_in=("lq",),
                data_out=("ro",),
            )
        )
        assert netlist.rams["ram"].num_words == 2
        assert netlist.rams["ram"].width == 1
        assert isinstance(netlist.latches["lat"], Latch)

    def test_scan_flop_queries(self):
        netlist = small_netlist()
        assert netlist.scan_flops() == []
        assert [f.name for f in netlist.nonscan_flops()] == ["ff1"]
