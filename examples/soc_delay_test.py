#!/usr/bin/env python3
"""Full SOC delay-test flow: the paper's Table 1 experiments end to end.

The script builds a :class:`repro.api.TestSession` on the synthetic
two-domain micro-controller SOC and runs the five registered Table 1
scenarios (``table1-a`` .. ``table1-e``) from Section 5.1 of the paper.  It
then prints the measured Table 1, the comparison against the paper's
qualitative claims, and the classification of the faults the simple-CPF
configuration leaves untested (the analysis the paper's conclusions call
for).

Run with ``python examples/soc_delay_test.py [size] [--serial]`` — size
defaults to 1 so the script finishes in a couple of minutes; size 2 matches
EXPERIMENTS.md.  ``--serial`` disables the parallel scenario fan-out.
"""

import sys

from repro.api import TestSession, scenarios
from repro.atpg import AtpgOptions
from repro.core import format_comparison
from repro.faults import ClassifierContext, FaultClassifier
from repro.logic import Logic
from repro.runtime import Executor


def main() -> None:
    args = sys.argv[1:]
    parallel = "--serial" not in args
    positional = [arg for arg in args if arg != "--serial"]
    size = int(positional[0]) if positional else 1
    print(f"Building the synthetic SOC (size={size}) and inserting scan ...")
    options = AtpgOptions(random_pattern_batches=4, patterns_per_batch=64, backtrack_limit=30)
    session = (
        TestSession.for_soc(size=size, seed=2005)
        .with_chains(6)
        .with_options(options)
        .add_scenarios(*scenarios.table1())
    )
    prepared = session.prepared
    stats = prepared.netlist.stats()
    print(f"  gates={stats.num_gates}  flip-flops={stats.num_flops} "
          f"(non-scan={stats.num_nonscan_flops})  RAMs={stats.num_rams}")
    print(f"  scan chains={prepared.scan.num_chains}, "
          f"longest={prepared.scan.max_chain_length} cells")
    print(f"  clock domains: {prepared.domain_map.summary()}")

    mode = "parallel" if parallel else "serial"
    print(f"\nRunning experiments (a)-(e) ({mode}); transition runs take a while ...")
    report = session.run(executor=Executor(backend="threads" if parallel else "serial"))

    print()
    print(report.table())
    print()
    results = {key: session.result_of(f"table1-{key}") for key in "abcde"}
    print(format_comparison(results))

    # Why does the simple two-pulse CPF lose coverage?  Classify its leftovers.
    context = ClassifierContext(
        netlist=prepared.netlist,
        model=prepared.model,
        domain_map=prepared.domain_map,
        at_speed_domains=frozenset({"fast", "slow"}),
        inter_domain_allowed=False,
        observe_pos=False,
        scan_enable_net=prepared.scan_enable_net,
        scan_enable_constrained=True,
        constrained_pins={prepared.soc.reset_net: Logic.ZERO},
        ram_sequential=False,
        max_pulses=2,
    )
    histogram = FaultClassifier(context).classify_list(results["c"].fault_list)
    print("\nWhy the simple 2-pulse CPF (experiment c) leaves faults untested:")
    for group, count in sorted(histogram.items(), key=lambda kv: -kv[1]):
        print(f"  {group:<28} {count:5d} fault classes")


if __name__ == "__main__":
    main()
