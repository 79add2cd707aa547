#!/usr/bin/env python3
"""Closed-loop fault diagnosis on the paper's SoC surrogate.

Where the paper's flow ends — patterns saved for the ATE — production
begins: failing devices come back from the tester as *fail logs* that must
be traced to candidate defects.  This example closes that loop on
``table1-soc``:

1. generate the simple-CPF transition pattern set (Table 1 scenario (c));
2. inject a known delay defect into the compiled circuit model (the
   netlist itself is never touched);
3. run the injected device against the pattern set and capture an
   ATE-style fail log (per pattern / chain / unload cycle);
4. extract cone-intersection candidates and rank them by syndrome match,
   fanned out over the engine's process backend — and recover the injected
   defect at rank 1.

Run with ``python examples/diagnose_failures.py``.
"""

from repro.api import TestSession
from repro.api.scenarios import table1_scenario
from repro.atpg import AtpgOptions
from repro.diagnose import DefectSpec, capture_fail_log
from repro.faults.fault_list import FaultStatus


def main() -> None:
    options = AtpgOptions(
        random_pattern_batches=2, patterns_per_batch=48, backtrack_limit=16,
        random_seed=2005,
    )
    session = TestSession.for_design("table1-soc", options=options)

    print("Generating the scenario (c) transition pattern set ...")
    outcome = session.run_scenario("table1-c")
    print(f"  {outcome.pattern_count} patterns, "
          f"TC={outcome.test_coverage:.2f}%")

    # A defect the pattern set provably exposes: take a fault the final
    # fault simulation marked detected and lift it into a DefectSpec.
    result = session.result_of("table1-c")
    model = session.prepared.model
    detected = result.fault_list.with_status(FaultStatus.DETECTED)
    defect = DefectSpec.from_fault(model, detected[len(detected) // 2])
    print(f"\nInjected defect: {defect.describe()}")

    # Tester side: the injected device miscompares on some patterns.
    prepared = session.prepared
    setup = table1_scenario("c").build_setup(prepared, options)
    log = capture_fail_log(
        model, prepared.domain_map, prepared.scan, setup,
        session.artifacts["table1-c"].patterns, defect,
    )
    print(f"Fail log: {log.num_fails} failing bits on "
          f"{len(log.failing_patterns())} patterns")
    print("\n".join(log.to_text().splitlines()[:8]))
    print("  ...")

    # Diagnosis side: rank every cone-intersection candidate by how well its
    # simulated syndrome matches the log.
    diagnosis = session.diagnose(defect, scenario="c")
    print(f"\n{diagnosis.summary()}")
    assert diagnosis.rank_of_defect == 1, "expected rank-1 recovery"
    print("\nThe injected defect was recovered at rank 1.")


if __name__ == "__main__":
    main()
