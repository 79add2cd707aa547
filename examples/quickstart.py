#!/usr/bin/env python3
"""Quickstart: the ``repro.api`` session / scenario-registry front door.

The library's top layer is declarative: *scenarios* (named test-generation
configurations) run through a :class:`repro.api.TestSession`, which owns
design preparation and executes each scenario through the
fixed ``setup -> atpg -> compaction -> compression -> export`` pipeline.

This walks through the three core moves:

1. run registered built-in scenarios (here two of the paper's Table 1 set)
   on the synthetic SOC with a fluent session;
2. register a *custom* scenario — a stuck-at test under simple-CPF-style
   tester constraints with EDT compression, a combination the legacy
   hard-coded experiment flow could not express;
3. read the structured :class:`repro.api.RunReport` (JSON-round-trippable)
   and an exported ATE pattern file.

Run with ``python examples/quickstart.py``.
"""

from repro.api import ScenarioSpec, TestSession, register_scenario, scenario_names
from repro.atpg import AtpgOptions
from repro.clocking import simple_cpf_procedures
from repro.runtime import Executor


def main() -> None:
    print("Registered scenarios:", ", ".join(scenario_names()))

    # 1. ---------------------------------------------------- built-in scenarios
    options = AtpgOptions(random_pattern_batches=4, patterns_per_batch=64, backtrack_limit=40)
    session = (
        TestSession.for_soc(size=1, seed=2005)
        .with_chains(6)
        .with_options(options)
        .add_scenarios("table1-a", "table1-c")
    )
    print(f"Design: {session.prepared.netlist}")
    print(f"Scan: {session.prepared.scan.num_chains} chains, "
          f"longest {session.prepared.scan.max_chain_length} cells")

    # 2. ------------------------------------------------------ custom scenario
    custom = register_scenario(
        ScenarioSpec(
            name="quickstart-stuck-at-cpf-edt",
            description="Stuck-at test under CPF tester constraints, EDT x2",
            procedures=lambda prepared: simple_cpf_procedures(
                prepared.functional_domain_names
            ),
            fault_model="stuck-at",
            observe_pos=False,
            hold_pis=True,
            constrain_scan_enable=True,
            edt_channels=2,
            export_patterns=True,
        ),
        replace_existing=True,
    )
    session.add_scenario(custom)

    # 3. ------------------------------------------------------- run and report
    report = session.run(executor=Executor(backend="threads"))
    print()
    print(report.table(title="Quickstart results"))
    print()
    print(report.summary())

    edt = report[custom.name].extras["edt"]
    print(f"\nEDT({edt['channels']} channels): ratio {edt['compression_ratio']}x, "
          f"{edt['encoded_patterns']} encoded, {edt['encoding_conflicts']} conflicts")

    stil = session.exported_patterns(custom.name)
    print("\nFirst lines of the exported ATE pattern file:")
    print("\n".join(stil.splitlines()[:12]))


if __name__ == "__main__":
    main()
