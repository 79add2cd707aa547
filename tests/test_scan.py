"""Unit tests for scan insertion and the scan architecture."""

import pytest

from repro.analyze import lint_netlist
from repro.circuits import build_soc, s27, two_domain_crossing
from repro.dft import balance_metric, chain_length_histogram, insert_scan, partition_into_chains
from repro.logic import Logic
from repro.netlist import GateType


def test_all_scannable_flops_become_scan_cells():
    netlist, arch = insert_scan(s27(), num_chains=1)
    assert all(f.is_scan for f in netlist.flops.values())
    assert arch.total_cells == 3
    assert lint_netlist(netlist).ok


def test_scan_mux_inserted_per_cell():
    netlist, arch = insert_scan(s27(), num_chains=1)
    muxes = [g for g in netlist.gates.values() if g.gtype is GateType.MUX2]
    assert len(muxes) == 3
    for flop in netlist.flops.values():
        kind, gate = netlist.driver_of(flop.d)
        assert kind == "gate" and gate.gtype is GateType.MUX2
        assert gate.inputs[0] == arch.scan_enable


def test_chain_connectivity():
    netlist, arch = insert_scan(s27(), num_chains=1)
    chain = arch.chains[0]
    # First cell's scan input is the chain's scan-in port.
    first = netlist.flops[chain.cells[0]]
    assert first.scan_in == chain.scan_in
    # Every later cell's scan input is the previous cell's Q.
    for prev_name, cell_name in zip(chain.cells, chain.cells[1:]):
        assert netlist.flops[cell_name].scan_in == netlist.flops[prev_name].q
    # Scan-out is a primary output.
    assert chain.scan_out in netlist.outputs


def test_exclude_and_nonscan_respected():
    soc = build_soc(size=1, seed=3)
    nonscan_before = set(soc.nonscan_flops)
    netlist, arch = insert_scan(soc.netlist, num_chains=4)
    stitched = {cell for chain in arch.chains for cell in chain.cells}
    assert nonscan_before.isdisjoint(stitched)
    for name in nonscan_before:
        assert not netlist.flops[name].is_scan


def test_chains_do_not_mix_clock_domains():
    netlist, arch = insert_scan(two_domain_crossing(4), num_chains=4)
    for chain in arch.chains:
        clocks = {netlist.flops[cell].clock for cell in chain.cells}
        assert len(clocks) == 1


def test_chains_are_balanced():
    netlist, arch = insert_scan(two_domain_crossing(8), num_chains=4)
    lengths = [chain.length for chain in arch.chains]
    assert max(lengths) - min(lengths) <= max(2, max(lengths) // 2)
    assert balance_metric([chain.cells for chain in arch.chains]) < 2.0


def test_load_and_unload_sequences_are_inverses():
    netlist, arch = insert_scan(s27(), num_chains=1)
    chain = arch.chains[0]
    load = {cell: (Logic.ONE if i % 2 else Logic.ZERO) for i, cell in enumerate(chain.cells)}
    sequence = chain.load_sequence(load)
    # Shifting the sequence in ends up with exactly `load` in the cells, so
    # unloading the same values must reproduce the per-cell mapping.
    observed = chain.unload_values(list(reversed([load[c] for c in chain.cells])))
    assert observed == load
    assert len(sequence) == chain.length


def test_architecture_queries():
    netlist, arch = insert_scan(two_domain_crossing(4), num_chains=2)
    assert len({chain.scan_in for chain in arch.chains}) == arch.num_chains
    assert all(chain.scan_in in netlist.inputs for chain in arch.chains)
    assert arch.max_chain_length == max(c.length for c in arch.chains)
    assert arch.total_cells == len(netlist.scan_flops())


def test_partition_into_chains_validation():
    with pytest.raises(ValueError):
        partition_into_chains([1, 2, 3], 0)
    chains = partition_into_chains(list(range(10)), 3)
    assert sum(len(c) for c in chains) == 10
    histogram = chain_length_histogram(chains)
    assert sum(histogram.values()) == 3


def test_insert_scan_not_in_place():
    original = s27()
    flops_before = {name: f.is_scan for name, f in original.flops.items()}
    copy, arch = insert_scan(original, num_chains=1, in_place=False)
    assert {name: f.is_scan for name, f in original.flops.items()} == flops_before
    assert all(f.is_scan for f in copy.flops.values())
