#!/usr/bin/env python3
"""Volume diagnosis with loopy belief propagation on the paper's SoC.

One pattern set, many failing devices: a tester floor returns fail logs in
bulk, and most interesting escapes carry *more than one* defect.  This
example runs that volume flow end to end on ``table1-soc``:

1. generate the scenario (a) stuck-at pattern set once;
2. build a fail-log store of 50 devices, each injected with a *pair* of
   defects on distinct nets (the netlist itself is never touched), plus
   a 51st die whose log repeats the first one;
3. diagnose the whole store as one campaign plan — every log becomes a
   candidate x failing-bit factor graph and damped max-product BP selects
   the multi-defect candidate set with calibrated confidences.  The
   repeated log runs once and lands a cell under each die name; the
   example exits non-zero if the two cells differ in anything but the log;
4. take the most ambiguous verdict and run one adaptive diagnostic-ATPG
   round: generate distinguishing patterns for BP's ambiguous pairs,
   re-capture, re-diagnose.

Run with ``python examples/volume_diagnosis.py``.
"""

import itertools
import tempfile
from pathlib import Path

from repro.api import Campaign, TestSession
from repro.api.scenarios import table1_scenario
from repro.atpg import AtpgOptions
from repro.diagnose import DefectSpec, DiagnosisSpec, capture_fail_log
from repro.faults.fault_list import FaultStatus
from repro.volume import FailLogStore, adaptive_diagnose, run_bp_diagnosis

DESIGN = "table1-soc"
NUM_LOGS = 50


def visible_defect_pool(session, spec, run, setup, count, *,
                        distinct_nets=True):
    """Defects the scenario's patterns provably expose.

    Distinct nets keep the volume study about multi-defect *recovery*: two
    pins of one gate can union into a syndrome a single gate-output
    candidate explains whole, which is a masking story, not a recovery
    one.  The adaptive demo flips the flag — resolvable ambiguity lives
    between related-but-distinct hypotheses on the *same* net.
    """
    model = session.prepared.model
    detected = session.result_of(spec.name).fault_list.with_status(
        FaultStatus.DETECTED
    )
    if not distinct_nets:
        # Start mid-list for variety: the head of the fault list is
        # dominated by io pins whose hypotheses collapse into equivalence
        # classes no pattern can split.
        start = len(detected) // 2
        detected = detected[start:] + detected[:start]
    pool = []
    for fault in detected:
        defect = DefectSpec.from_fault(model, fault)
        if distinct_nets:
            if any(defect.net == seen.net for seen in pool):
                continue
        elif any(defect == seen for seen in pool):
            continue
        probe = capture_fail_log(
            model, session.prepared.domain_map, session.prepared.scan,
            setup, run.patterns, defect,
        )
        if probe.num_fails:
            pool.append(defect)
        if len(pool) >= count:
            break
    return pool


def main() -> None:
    options = AtpgOptions(
        random_pattern_batches=2, patterns_per_batch=48, backtrack_limit=16,
        random_seed=2005,
    )
    session = TestSession.for_design(DESIGN, options=options)

    print("Generating the scenario (a) stuck-at pattern set ...")
    outcome = session.run_scenario("table1-a")
    print(f"  {outcome.pattern_count} patterns, "
          f"TC={outcome.test_coverage:.2f}%")

    spec = table1_scenario("a")
    run = session.artifacts[spec.name]
    setup = spec.build_setup(session.prepared, options)
    prepared = session.prepared

    # Tester side: 50 devices, each carrying two defects on distinct nets.
    pool = visible_defect_pool(session, spec, run, setup, count=12)
    pairs = list(itertools.combinations(pool, 2))[:NUM_LOGS]
    print(f"\nCapturing {len(pairs)} two-defect fail logs "
          f"from a pool of {len(pool)} visible defects ...")
    with tempfile.TemporaryDirectory(prefix="volume_example_") as scratch:
        store = FailLogStore(Path(scratch) / "failures.sqlite")
        for index, (first, second) in enumerate(pairs):
            log = capture_fail_log(
                prepared.model, prepared.domain_map, prepared.scan, setup,
                run.patterns, [first, second], design_name=DESIGN,
            )
            store.add(f"die-{index:04d}", log, scenario=spec.name)
            if index == 0:
                repeated = log
        # A second die failing exactly like the first (a systematic defect).
        store.add("die-repeat", repeated, scenario=spec.name)

        # Diagnosis side: the whole store as one campaign plan.  Each log's
        # verdict is a BP-selected candidate *set* with calibrated
        # confidences, streamed as it lands.
        campaign = Campaign(designs=[DESIGN], scenarios=["a"], options=options)
        report = campaign.diagnose_volume(store)
        print(f"\n{report.summary()}")
        # Distinct nets avoid the easy masking cases, but a big design can
        # still hide one defect behind another on a handful of pairs — a
        # real tester-floor effect, so the bar is "almost all", not "all".
        recovered = report.recovered_count()
        assert recovered >= len(report) - 2, (
            f"only {recovered}/{len(report)} two-defect sets recovered"
        )

        # The repeated log ran once; both dies still get their own cell.
        first_cell, repeat_cell = report.cell("die-0000"), report.cell("die-repeat")
        if {**first_cell.deterministic_dict(), "log": repeat_cell.log} != (
            repeat_cell.deterministic_dict()
        ):
            raise SystemExit("die-repeat's verdict differs from die-0000's")

        # Zoom into one verdict: the full confidence-ranked top set.
        name = report.cells[0].log
        record = store.get(name)
        result = run_bp_diagnosis(
            prepared, setup, run.patterns,
            DiagnosisSpec(scenario=spec.name, backend="compiled"),
            fail_log=record.log, options=options,
        )
        print(f"\nTop candidate set for {name} "
              f"(* marks the selected cover):")
        for row in result.top(6):
            print(f"  {row.describe()}")

        # Adaptive diagnostic ATPG: where BP's ambiguity is *resolvable*
        # (related-but-distinct hypotheses, not fault-collapsing
        # equivalences), one round of distinguishing patterns separates
        # the pair.  Same-net defect pairs are where that lives.
        print("\nAdaptive diagnostic ATPG on an ambiguous device ...")
        close = visible_defect_pool(
            session, spec, run, setup, count=8, distinct_nets=False,
        )
        for first, second in itertools.combinations(close, 2):
            log = capture_fail_log(
                prepared.model, prepared.domain_map, prepared.scan, setup,
                run.patterns, [first, second], design_name=DESIGN,
            )
            adapted = adaptive_diagnose(
                prepared, setup, run.patterns,
                DiagnosisSpec(scenario=spec.name, backend="compiled"),
                fail_log=log, options=options, max_rounds=1,
            )
            assert adapted.final_ambiguous <= adapted.initial_ambiguous
            if adapted.improved:
                print(f"  device: {first.describe()} + {second.describe()}")
                print(f"  {adapted.summary()}")
                break
        else:
            raise AssertionError("no adaptive-resolvable pair found")

    print(f"\n{recovered}/{len(report)} two-defect sets recovered; BP "
          "confidences separate the cover from the also-rans.")


if __name__ == "__main__":
    main()
