"""Unit tests for the netlist design-rule checks (``lint_netlist``)."""

import pytest

from repro.analyze import LintError, lint_netlist
from repro.netlist import (
    FlipFlop,
    Gate,
    GateType,
    Netlist,
)


def test_clean_netlist_passes(c17_netlist):
    report = lint_netlist(c17_netlist)
    assert report.ok
    assert report.errors == []


def test_undriven_net_is_error():
    netlist = Netlist("bad")
    netlist.add_input("a")
    netlist.add_gate(Gate("g", GateType.AND, ("a", "floating"), "y"))
    netlist.add_output("y")
    report = lint_netlist(netlist)
    assert not report.ok
    assert any(v.rule == "undriven-net" for v in report.errors)


def test_undriven_net_can_be_downgraded():
    netlist = Netlist("block")
    netlist.add_input("a")
    netlist.add_gate(Gate("g", GateType.AND, ("a", "external"), "y"))
    netlist.add_output("y")
    report = lint_netlist(netlist, allow_floating_inputs=True)
    assert report.ok
    assert any(v.rule == "undriven-net" for v in report.warnings)


def test_dangling_output_is_warning():
    netlist = Netlist("dangle")
    netlist.add_input("a")
    netlist.add_gate(Gate("g", GateType.NOT, ("a",), "unused"))
    report = lint_netlist(netlist)
    assert report.ok
    assert any(v.rule == "dangling-output" for v in report.warnings)


def test_combinational_loop_is_error():
    netlist = Netlist("loop")
    netlist.add_input("a")
    netlist.add_gate(Gate("g1", GateType.AND, ("a", "n2"), "n1"))
    netlist.add_gate(Gate("g2", GateType.OR, ("n1", "a"), "n2"))
    netlist.add_output("n2")
    report = lint_netlist(netlist)
    assert any(v.rule == "combinational-loop" for v in report.errors)


def test_clock_as_data_is_warning():
    netlist = Netlist("cgc")
    netlist.add_input("clk")
    netlist.add_input("en")
    netlist.declare_clock("clk")
    netlist.add_gate(Gate("g", GateType.AND, ("clk", "en"), "gated"))
    netlist.add_output("gated")
    report = lint_netlist(netlist)
    assert report.ok
    assert any(v.rule == "clock-as-data" for v in report.warnings)


def test_partial_scan_cell_is_error():
    netlist = Netlist("scan")
    netlist.add_input("clk")
    netlist.add_input("d")
    netlist.declare_clock("clk")
    netlist.add_flop(FlipFlop(name="ff", d="d", q="q", clock="clk", scan_in="si"))
    netlist.add_output("q")
    report = lint_netlist(netlist)
    assert any(v.rule == "partial-scan-cell" for v in report.errors)


def test_raise_on_error():
    netlist = Netlist("bad")
    netlist.add_input("a")
    netlist.add_gate(Gate("g", GateType.AND, ("a", "floating"), "y"))
    netlist.add_output("y")
    report = lint_netlist(netlist)
    with pytest.raises(LintError, match="undriven-net"):
        report.raise_on_error()


def test_violation_string_format():
    netlist = Netlist("dangle")
    netlist.add_input("a")
    netlist.add_gate(Gate("g", GateType.NOT, ("a",), "unused"))
    report = lint_netlist(netlist)
    text = str(report.warnings[0])
    assert "dangling-output" in text and "warning" in text
