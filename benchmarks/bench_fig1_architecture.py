"""Figure 1: the device with one clock pulse filter per clock domain.

The benchmark instruments the synthetic SOC with a CPF per functional clock
domain (simple and enhanced variants), checks the structural properties the
figure conveys — every functional flip-flop is clocked from a CPF output, the
CPFs are driven by the PLL clocks plus the slow tester signals — and reports
the area overhead.
"""

from __future__ import annotations

import pytest

from repro.analyze import lint_netlist
from repro.api import instrument_soc
from repro.netlist import area_report


@pytest.mark.benchmark(group="figure1")
def test_fig1_simple_cpf_instrumentation(benchmark, prepared_soc):
    top, inserted = benchmark.pedantic(
        # refresh=True bypasses the PreparedDesign memoisation so every round
        # times the actual CPF insertion, not a cache lookup.
        lambda: instrument_soc(prepared_soc, enhanced=False, refresh=True),
        iterations=1,
        rounds=3,
    )
    assert len(inserted) == len(prepared_soc.soc.functional_domains)
    cpf_clocks = {record.ports.clk_out for record in inserted}
    reclocked = sum(1 for f in top.flops.values() if f.clock in cpf_clocks)
    functional_flops = sum(
        1
        for f in prepared_soc.netlist.flops.values()
        if prepared_soc.domain_map.domain_of(f.name) in {"fast", "slow"}
    )
    assert reclocked >= functional_flops
    assert lint_netlist(top).ok

    base_area = area_report(prepared_soc.netlist).total
    instrumented_area = area_report(top).total
    overhead = instrumented_area - base_area
    print()
    print(f"Figure 1: {len(inserted)} CPF blocks inserted "
          f"({', '.join(r.domain for r in inserted)})")
    print(f"  core area            : {base_area:9.1f} NAND2-eq")
    print(f"  area with CPFs       : {instrumented_area:9.1f} NAND2-eq")
    print(f"  clock-control overhead: {overhead:8.1f} NAND2-eq "
          f"({100.0 * overhead / base_area:.2f}% of the core)")


@pytest.mark.benchmark(group="figure1")
def test_fig1_enhanced_cpf_instrumentation(benchmark, prepared_soc):
    top, inserted = benchmark.pedantic(
        lambda: instrument_soc(prepared_soc, enhanced=True, refresh=True),
        iterations=1,
        rounds=3,
    )
    assert all(record.enhanced for record in inserted)
    for record in inserted:
        for net in record.ports.config:
            assert net in top.inputs
    print()
    print("Figure 1 (enhanced): per-domain pulse-count/delay configuration pins:",
          sorted(net for record in inserted for net in record.ports.config))
