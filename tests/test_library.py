"""Unit tests for cell library metadata, area and timing estimates."""

from repro.atpg import select_critical_paths
from repro.circuits import c17, ripple_adder
from repro.clocking import build_cpf
from repro.dft import insert_scan
from repro.netlist import DEFAULT_LIBRARY, GateType, area_report
from repro.simulation import build_model


def test_every_gate_type_has_library_entry():
    for gtype in GateType:
        assert gtype in DEFAULT_LIBRARY
        assert DEFAULT_LIBRARY[gtype].delay_ps >= 0.0
        assert DEFAULT_LIBRARY[gtype].area_nand2 > 0.0


def test_nand_is_area_reference():
    assert DEFAULT_LIBRARY[GateType.NAND].area_nand2 == 1.0


def test_area_report_combinational():
    report = area_report(c17())
    assert report.sequential == 0.0
    assert report.memory == 0.0
    assert report.combinational > 0.0
    assert report.total == report.combinational


def test_area_report_counts_scan_overhead():
    from repro.circuits import s27

    before = area_report(s27())
    scanned, _ = insert_scan(s27(), num_chains=1)
    after = area_report(scanned)
    assert after.sequential > before.sequential
    assert after.combinational > before.combinational  # scan muxes


def test_cpf_area_is_negligible():
    """The paper: 'the entire CPF consists of ten standard digital logic gates'."""
    block = build_cpf()
    report = area_report(block.netlist)
    assert block.gate_count <= 20
    assert report.total < 60  # NAND2-equivalents; tiny versus any real domain


def test_critical_path_monotone_with_depth():
    """The library-delay-longest path that path-delay ATPG targets grows
    with the carry chain."""
    shallow = select_critical_paths(build_model(ripple_adder(2)), count=1)[0]
    deep = select_critical_paths(build_model(ripple_adder(8)), count=1)[0]
    assert len(deep.nodes) > len(shallow.nodes) > 1
