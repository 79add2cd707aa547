"""Ablation studies for the design choices the paper discusses.

Beyond the Table 1 experiments, the paper's text motivates several design
decisions whose impact is worth quantifying on the reproduction:

* how many programmable pulses the enhanced CPF should offer (2/3/4);
* whether inter-domain launch/capture procedures are worth the extra CPF
  sequencing logic;
* how much EDT compression is needed to keep the inflated transition pattern
  sets within tester vector memory;
* how much of the pattern count is saved by dynamic compaction.

Each ablation returns plain dictionaries so benchmarks and notebooks can
tabulate them directly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.api.design import PreparedDesign
from repro.api.scenarios import table1_scenario
from repro.atpg.config import AtpgOptions, TestSetup
from repro.atpg.generator import AtpgResult
from repro.atpg.transition import TransitionAtpg
from repro.clocking.named_capture import enhanced_cpf_procedures
from repro.dft.edt import EdtArchitecture
from repro.patterns.ate import vector_memory_report
from repro.patterns.pattern import PatternSet
from repro.logic import Logic


def _base_onchip_setup(
    prepared: PreparedDesign,
    procedures,
    name: str,
    options: AtpgOptions,
) -> TestSetup:
    return TestSetup(
        name=name,
        procedures=procedures,
        observe_pos=False,
        hold_pis=True,
        pin_constraints={prepared.soc.reset_net: Logic.ZERO},
        scan_enable_net=prepared.scan_enable_net,
        constrain_scan_enable=True,
        options=options,
    )


def pulse_count_ablation(
    prepared: PreparedDesign,
    options: AtpgOptions | None = None,
    pulse_counts: Sequence[int] = (2, 3, 4),
) -> dict[int, AtpgResult]:
    """Coverage/pattern count as a function of the CPF's maximum pulse count.

    Inter-domain procedures are excluded so the sweep isolates the value of
    extra initialization pulses for non-scan cells.
    """
    options = options or AtpgOptions()
    results: dict[int, AtpgResult] = {}
    for count in pulse_counts:
        procedures = enhanced_cpf_procedures(
            prepared.functional_domain_names,
            max_pulses=count,
            inter_domain=False,
            name_prefix=f"abl{count}",
        )
        setup = _base_onchip_setup(
            prepared, procedures, f"ablation: {count}-pulse CPF", options
        )
        results[count] = TransitionAtpg(prepared.model, prepared.domain_map, setup).run()
    return results


def inter_domain_ablation(
    prepared: PreparedDesign,
    options: AtpgOptions | None = None,
) -> dict[str, AtpgResult]:
    """Enhanced CPF with and without inter-domain launch/capture procedures."""
    options = options or AtpgOptions()
    results: dict[str, AtpgResult] = {}
    for label, inter in (("without_inter_domain", False), ("with_inter_domain", True)):
        procedures = enhanced_cpf_procedures(
            prepared.functional_domain_names,
            max_pulses=4,
            inter_domain=inter,
            name_prefix=f"xid_{int(inter)}",
        )
        setup = _base_onchip_setup(
            prepared, procedures, f"ablation: enhanced CPF {label}", options
        )
        results[label] = TransitionAtpg(prepared.model, prepared.domain_map, setup).run()
    return results


def edt_ablation(
    prepared: PreparedDesign,
    patterns: PatternSet,
    channel_counts: Sequence[int] = (1, 2, 4),
    memory_budget_megabits: float = 0.5,
) -> list[dict[str, object]]:
    """Vector-memory impact of EDT compression for a given pattern set.

    For every channel count the report states the compression ratio, whether
    every pattern could be encoded through the linear decompressor, and the
    tester vector memory with and without compression.
    """
    rows: list[dict[str, object]] = []
    uncompressed = vector_memory_report(patterns, prepared.scan, prepared.occ)
    for channels in channel_counts:
        channels = max(1, min(channels, prepared.scan.num_chains))
        edt = EdtArchitecture(prepared.scan, num_input_channels=channels)
        stats = edt.statistics(patterns)
        compressed = vector_memory_report(
            patterns, prepared.scan, prepared.occ, external_channels=channels
        )
        rows.append(
            {
                "channels": channels,
                "compression_ratio": stats.compression_ratio,
                "encoded_patterns": stats.encoded_patterns,
                "encoding_conflicts": stats.encoding_conflicts,
                "vector_memory_megabits": compressed.total_megabits,
                "uncompressed_megabits": uncompressed.total_megabits,
                "fits_budget": compressed.fits_in(memory_budget_megabits),
            }
        )
    return rows


def compaction_ablation(
    prepared: PreparedDesign,
    options: AtpgOptions | None = None,
) -> dict[str, AtpgResult]:
    """Pattern count with and without dynamic compaction (simple CPF setup)."""
    options = options or AtpgOptions()
    results: dict[str, AtpgResult] = {}
    for label, enabled in (("with_compaction", True), ("without_compaction", False)):
        tuned = replace(options, dynamic_compaction=enabled)
        setup = table1_scenario("c").build_setup(prepared, tuned)
        setup = TestSetup(
            name=f"ablation: {label}",
            procedures=setup.procedures,
            observe_pos=setup.observe_pos,
            hold_pis=setup.hold_pis,
            pin_constraints=setup.pin_constraints,
            scan_enable_net=setup.scan_enable_net,
            constrain_scan_enable=setup.constrain_scan_enable,
            options=tuned,
        )
        results[label] = TransitionAtpg(prepared.model, prepared.domain_map, setup).run()
    return results
