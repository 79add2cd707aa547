"""Shared ATPG driver: random phase, deterministic PODEM phase, compaction.

The paper's experiments (a)–(e) all run "compatible ATPG settings" against
different clocking/constraint environments.  This module implements that
common flow once; :mod:`repro.atpg.stuck_at` and :mod:`repro.atpg.transition`
specialize the fault universe, the fault simulator and the PODEM targeting.

Flow per experiment:

1. build the collapsed fault list;
2. *random phase* — batches of fully-specified random patterns are fault
   simulated with fault dropping; only patterns that are the first detector
   of some fault are kept;
3. *deterministic phase* — every remaining fault is targeted with PODEM under
   each allowed capture procedure until a test is found, the fault is proven
   untestable under every procedure, or the backtrack limit aborts it;
   generated patterns stay partially specified and are merged into a dynamic
   compaction window;
4. every committed pattern is X-filled and fault simulated once more: the
   coverage credited to the experiment comes from this independent fault
   simulation, never from PODEM's claim alone;
5. the result carries the pattern set, the annotated fault list, the coverage
   report and the generator statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.atpg.artefacts import ProcedureEngines, collapsed_universe
from repro.atpg.compaction import CompactionStats, DynamicCompactor
from repro.atpg.config import TestSetup
from repro.atpg.podem import PodemStatus
from repro.atpg.random_fill import derive_rng, fill_pattern, random_pattern_batch
from repro.clocking.domains import ClockDomainMap
from repro.faults.collapse import collapse_faults
from repro.obs.telemetry import active_metrics, active_tracer
from repro.faults.fault_list import CoverageReport, FaultList, FaultStatus
from repro.patterns.pattern import PatternSet, TestPattern
from repro.simulation.model import CircuitModel


@dataclass
class AtpgStatistics:
    """Counters describing one ATPG run."""

    random_patterns_simulated: int = 0
    random_patterns_kept: int = 0
    random_detections: int = 0
    deterministic_patterns: int = 0
    deterministic_detections: int = 0
    opportunistic_detections: int = 0
    podem_runs: int = 0
    podem_tests_found: int = 0
    podem_aborts: int = 0
    podem_untestable: int = 0
    proven_untestable: int = 0
    unconfirmed_podem_tests: int = 0
    merged_patterns: int = 0
    runtime_seconds: float = 0.0

    def as_dict(self) -> dict[str, float | int]:
        return dict(self.__dict__)


@dataclass
class AtpgResult:
    """Everything one Table 1 row needs."""

    setup_name: str
    patterns: PatternSet
    fault_list: FaultList
    coverage: CoverageReport
    stats: AtpgStatistics
    compaction: CompactionStats

    @property
    def pattern_count(self) -> int:
        return len(self.patterns)

    @property
    def test_coverage(self) -> float:
        return self.coverage.test_coverage

    @property
    def fault_coverage(self) -> float:
        return self.coverage.fault_coverage

    def summary(self) -> dict[str, object]:
        return {
            "experiment": self.setup_name,
            "test_coverage_percent": round(self.coverage.test_coverage, 2),
            "fault_coverage_percent": round(self.coverage.fault_coverage, 2),
            "atpg_effectiveness_percent": round(self.coverage.atpg_effectiveness, 2),
            "pattern_count": self.pattern_count,
        }


class AtpgGenerator:
    """Base class implementing the common ATPG flow.

    Subclasses name their fault model (``fault_model``) and provide the
    fault simulator and the per-fault deterministic targeting.
    The collapsed universe, the time-frame views and the PODEM tables come
    from the model's memo (:mod:`repro.atpg.artefacts`); this run owns its
    fault list and its PODEM engines (``self.engines``).
    """

    #: ``"stuck-at"`` or ``"transition"``: the universe a run collapses
    #: (:func:`~repro.atpg.artefacts.collapsed_universe`).
    fault_model = ""

    def __init__(
        self,
        model: CircuitModel,
        domain_map: ClockDomainMap,
        setup: TestSetup,
        faults: Sequence | None = None,
    ) -> None:
        self.model = model
        self.domain_map = domain_map
        self.setup = setup
        self.options = setup.options
        # Explicit value-seeded RNG (threaded down from ScenarioSpec.rng_seed
        # via AtpgOptions.random_seed): runs are bit-reproducible across
        # engine backends.
        self.rng = derive_rng(self.options.random_seed)

        self.fault_list: FaultList
        if faults is None:
            self.fault_list = collapsed_universe(model, self.fault_model).blank()
        else:
            collapse = collapse_faults(model, list(faults))
            self.fault_list = FaultList(collapse.representatives)
            for representative, size in zip(collapse.representatives, collapse.class_sizes):
                self.fault_list.set_uncollapsed_count(representative, size)
        self.engines = ProcedureEngines(model, domain_map, setup)

        constraints = setup.effective_pin_constraints()
        self.scan_flops = [
            e.name for e in model.state_elements if e.flop.is_scan
        ]
        self.free_inputs = [
            model.nodes[idx].net
            for idx in model.pi_nodes
            if model.nodes[idx].net not in constraints
        ]
        self.stats = AtpgStatistics()
        self.compaction_stats = CompactionStats()

        if self.options.prune_untestable:
            # Static pre-pass (repro.analyze): faults provably dead under the
            # setup's constraints leave the target set before any pattern is
            # generated.  Pure structure + constants, so the prune set and
            # the resulting accounting are backend-independent.
            from repro.analyze.testability import prune_fault_list

            prune_report = prune_fault_list(self.fault_list, model, setup=setup)
            self.stats.proven_untestable = prune_report.num_untestable

    # ------------------------------------------------------------------ hooks
    def _fault_simulate(
        self, patterns: Sequence[TestPattern], faults: Iterable
    ) -> dict:
        """Return fault -> list of detecting pattern indices (within ``patterns``)."""
        raise NotImplementedError

    def _generate_for_fault(self, fault) -> tuple[TestPattern | None, list[PodemStatus]]:
        """Target one fault deterministically; return (pattern, statuses per procedure)."""
        raise NotImplementedError

    # -------------------------------------------------------------------- run
    def run(self) -> AtpgResult:
        """Execute the full ATPG flow and return the experiment result."""
        start = time.perf_counter()
        pattern_set = PatternSet()
        tracer = active_tracer()

        with tracer.span("atpg:random_phase", setup=self.setup.name):
            self._random_phase(pattern_set)
        with tracer.span("atpg:deterministic_phase", setup=self.setup.name):
            self._deterministic_phase(pattern_set)

        self.stats.runtime_seconds = time.perf_counter() - start
        metrics = active_metrics()
        if metrics is not None:
            # Fold this run's statistics into the ambient registry — counters
            # aggregate across every scenario of a session/campaign run.
            stats = self.stats
            metrics.inc("atpg.podem_runs", stats.podem_runs)
            metrics.inc("atpg.podem_aborts", stats.podem_aborts)
            metrics.inc("atpg.podem_untestable", stats.podem_untestable)
            metrics.inc("atpg.random_patterns_simulated",
                        stats.random_patterns_simulated)
            metrics.inc("atpg.patterns_kept",
                        stats.random_patterns_kept + stats.deterministic_patterns)
            metrics.inc("atpg.patterns_compacted",
                        self.compaction_stats.successful_merges)
            metrics.observe("atpg.run_seconds", stats.runtime_seconds)
        coverage = self.fault_list.coverage()
        return AtpgResult(
            setup_name=self.setup.name,
            patterns=pattern_set,
            fault_list=self.fault_list,
            coverage=coverage,
            stats=self.stats,
            compaction=self.compaction_stats,
        )

    # ----------------------------------------------------------- random phase
    def _random_phase(self, pattern_set: PatternSet) -> None:
        options = self.options
        procedures = list(self.setup.procedures)
        consecutive_useless = 0
        for _ in range(options.random_pattern_batches):
            remaining = self.fault_list.with_status(FaultStatus.UNDETECTED)
            if not remaining:
                break
            batch = random_pattern_batch(
                procedures,
                self.scan_flops,
                self.free_inputs,
                options.patterns_per_batch,
                self.rng,
                hold_pis=self.setup.hold_pis,
                observe_pos=self.setup.observe_pos,
            )
            self.stats.random_patterns_simulated += len(batch)
            detections = self._fault_simulate(batch, remaining)
            kept_index: dict[int, int] = {}
            newly_detected = 0
            for fault, hits in detections.items():
                if not hits:
                    continue
                first = min(hits)
                if first not in kept_index:
                    kept_index[first] = pattern_set.add(batch[first])
                    self.stats.random_patterns_kept += 1
                self.fault_list.mark_detected(fault, kept_index[first])
                newly_detected += 1
            self.stats.random_detections += newly_detected
            if newly_detected == 0:
                consecutive_useless += 1
                if consecutive_useless >= 2:
                    break
            else:
                consecutive_useless = 0

    # ---------------------------------------------------- deterministic phase
    def _deterministic_phase(self, pattern_set: PatternSet) -> None:
        options = self.options
        compactor = DynamicCompactor(window=options.dynamic_compaction_limit)
        targets = list(self.fault_list.with_status(FaultStatus.UNDETECTED))
        for fault in targets:
            if options.max_patterns is not None and len(pattern_set) >= options.max_patterns:
                break
            if self.fault_list.status_of(fault) is not FaultStatus.UNDETECTED:
                continue
            pattern, statuses = self._generate_for_fault(fault)
            self.stats.podem_runs += len(statuses)
            self.stats.podem_aborts += sum(1 for s in statuses if s is PodemStatus.ABORTED)
            self.stats.podem_untestable += sum(
                1 for s in statuses if s is PodemStatus.UNTESTABLE
            )
            if pattern is not None:
                self.stats.podem_tests_found += 1
                pattern.target_faults.append(self._describe_fault(fault))
                # Provisionally detected: the commit simulation below confirms it.
                self.fault_list.mark_detected(fault, None)
                if options.dynamic_compaction:
                    evicted = compactor.add(pattern)
                else:
                    evicted = [pattern]
                for done in evicted:
                    self._commit_pattern(done, pattern_set)
            else:
                if statuses and all(s is PodemStatus.UNTESTABLE for s in statuses):
                    self.fault_list.set_status(fault, FaultStatus.ATPG_UNTESTABLE)
                elif statuses:
                    self.fault_list.set_status(fault, FaultStatus.ABORTED)
                else:
                    self.fault_list.set_status(fault, FaultStatus.ATPG_UNTESTABLE)
        with active_tracer().span(
            "atpg:compaction",
            attempted=compactor.stats.attempted_merges,
            merged=compactor.stats.successful_merges,
        ):
            for done in compactor.flush():
                self._commit_pattern(done, pattern_set)
        self.compaction_stats = compactor.stats

    def _commit_pattern(self, pattern: TestPattern, pattern_set: PatternSet) -> None:
        """Fill a deterministic pattern, verify it by fault simulation, commit it."""
        pattern.cube_scan_load = {
            cell: value for cell, value in pattern.scan_load.items() if value.is_known
        }
        filled = fill_pattern(pattern, self.rng, fill=self.options.fill)
        # Restrict the confirmation simulation to provisionally-detected and
        # still-open faults to keep it cheap.
        to_check = self.fault_list.open_or_provisional()
        detections = self._fault_simulate([filled], to_check)
        index = pattern_set.add(filled)
        self.stats.deterministic_patterns += 1
        confirmed = 0
        for fault, hits in detections.items():
            if not hits:
                continue
            previous = self.fault_list.status_of(fault)
            self.fault_list.mark_detected(fault, index)
            if previous is FaultStatus.DETECTED:
                confirmed += 1
            else:
                self.stats.opportunistic_detections += 1
        self.stats.deterministic_detections += confirmed
        # Any provisionally detected fault this pattern targeted but did not
        # actually detect goes back to undetected (PODEM result not confirmed).
        for fault in self.fault_list.provisional():
            if self._describe_fault(fault) in filled.target_faults:
                self.fault_list.set_status(fault, FaultStatus.UNDETECTED)
                self.stats.unconfirmed_podem_tests += 1

    # ------------------------------------------------------------------ utils
    def _describe_fault(self, fault) -> str:
        describe = getattr(fault, "describe", None)
        if describe is None:
            return repr(fault)
        return describe(self.model)
