"""Tests for the synthetic SOC generator and the end-to-end flow plumbing."""

import pytest

from repro.analyze import lint_netlist
from repro.api import instrument_soc
from repro.circuits import build_soc
from repro.simulation import build_model


class TestSocGenerator:
    def test_structure_contains_required_ingredients(self):
        soc = build_soc(size=1, seed=5)
        stats = soc.netlist.stats()
        assert stats.num_rams == 1
        assert stats.num_flops > 20
        assert soc.nonscan_flops
        assert {d.name for d in soc.domains} == {"fast", "slow", "tc"}
        fast = soc.pll.output("clk_fast").frequency_mhz
        assert fast / soc.pll.reference_mhz == pytest.approx(6.0)
        assert lint_netlist(soc.netlist).ok

    def test_size_scales_gate_count(self):
        small = build_soc(size=1, seed=5).netlist.stats().num_gates
        large = build_soc(size=3, seed=5).netlist.stats().num_gates
        assert large > 2 * small

    def test_generation_is_deterministic(self):
        a = build_soc(size=1, seed=9).netlist
        b = build_soc(size=1, seed=9).netlist
        assert set(a.gates) == set(b.gates)
        assert set(a.flops) == set(b.flops)

    def test_different_seeds_differ(self):
        a = build_soc(size=1, seed=1).netlist
        b = build_soc(size=1, seed=2).netlist
        a_types = sorted(g.gtype.value for g in a.gates.values())
        b_types = sorted(g.gtype.value for g in b.gates.values())
        assert a_types != b_types or set(a.gates) != set(b.gates)

    def test_cross_domain_paths_exist(self):
        soc = build_soc(size=1, seed=5)
        model = build_model(soc.netlist)
        from repro.clocking import ClockDomainMap

        dm = ClockDomainMap.from_netlist(soc.netlist, soc.domains)
        crossing = 0
        for element in model.state_elements:
            if element.d_node is None:
                continue
            capture_domain = dm.domain_of(element.name)
            for src in model.transitive_fanin(element.d_node):
                owner = model.nodes[src]
                if owner.kind.value == "PPI" and owner.instance:
                    source_domain = dm.domain_of(owner.instance)
                    if source_domain and capture_domain and source_domain != capture_domain:
                        crossing += 1
                        break
        assert crossing > 0

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            build_soc(size=0)


class TestPrepareDesign:
    def test_prepare_builds_consistent_views(self, tiny_prepared):
        prepared = tiny_prepared
        assert prepared.scan.num_chains >= 3
        assert prepared.model.num_nodes > 100
        assert set(prepared.domain_map.summary()) == {"fast", "slow", "tc"}
        # Every scan cell belongs to a chain and to the model's state elements.
        stitched = {c for chain in prepared.scan.chains for c in chain.cells}
        model_scan = {e.name for e in prepared.model.state_elements if e.flop.is_scan}
        assert stitched == model_scan

    def test_nonscan_cells_not_stitched(self, tiny_prepared):
        prepared = tiny_prepared
        stitched = {c for chain in prepared.scan.chains for c in chain.cells}
        assert stitched.isdisjoint(set(prepared.soc.nonscan_flops))


class TestInstrumentSoc:
    def test_cpf_per_functional_domain(self, tiny_prepared):
        top, inserted = instrument_soc(tiny_prepared)
        assert len(inserted) == 2
        assert {r.domain for r in inserted} == {"fast", "slow"}
        # Functional flip-flops are now clocked from the CPF outputs.
        cpf_clocks = {r.ports.clk_out for r in inserted}
        reclocked = [f for f in top.flops.values() if f.clock in cpf_clocks]
        assert len(reclocked) > 0.7 * len(tiny_prepared.netlist.flops)
        # The original prepared netlist is untouched.
        assert not any(f.clock in cpf_clocks for f in tiny_prepared.netlist.flops.values())

    def test_enhanced_instrumentation_adds_config_pins(self, tiny_prepared):
        top, inserted = instrument_soc(tiny_prepared, enhanced=True)
        for record in inserted:
            assert record.enhanced
            for net in record.ports.config:
                assert net in top.inputs
        assert lint_netlist(top).ok
