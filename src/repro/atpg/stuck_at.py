"""Stuck-at ATPG (experiment (a) of the paper and the general baseline).

Stuck-at test generation is the no-launch-condition case of the common ATPG
flow.  Like commercial tools, it may use multi-pulse "clock sequential"
capture procedures so that non-scan cells acquire known values before the
observing pulse; the fault is targeted (and simulated) in the final frame.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.atpg.config import TestSetup
from repro.atpg.generator import AtpgGenerator, AtpgResult
from repro.atpg.podem import PodemStatus
from repro.clocking.domains import ClockDomainMap
from repro.clocking.named_capture import NamedCaptureProcedure
from repro.fault_sim.transition import TransitionFaultSimulator
from repro.faults.models import StuckAtFault
from repro.patterns.pattern import TestPattern
from repro.simulation.model import CircuitModel


class StuckAtAtpg(AtpgGenerator):
    """Deterministic + random stuck-at test generation."""

    fault_model = "stuck-at"

    def __init__(
        self,
        model: CircuitModel,
        domain_map: ClockDomainMap,
        setup: TestSetup,
        faults: Sequence[StuckAtFault] | None = None,
    ) -> None:
        super().__init__(model, domain_map, setup, faults)
        self.simulator = TransitionFaultSimulator(model, domain_map, setup)

    # ------------------------------------------------------------------ hooks
    def _fault_simulate(
        self, patterns: Sequence[TestPattern], faults: Iterable[StuckAtFault]
    ) -> dict[StuckAtFault, list[int]]:
        return self.simulator.simulate_stuck_at(patterns, faults, drop_detected=True)

    def _generate_for_fault(
        self, fault: StuckAtFault
    ) -> tuple[TestPattern | None, list[PodemStatus]]:
        statuses: list[PodemStatus] = []
        for procedure in self._ordered_procedures():
            view, engine = self.engines(procedure)
            expanded = view.expanded_stuck_at(fault, frame=view.capture_frame)
            if not engine.observable(expanded.site.node):
                statuses.append(PodemStatus.UNTESTABLE)
                continue
            result = engine.target(expanded)
            statuses.append(result.status)
            if result.found:
                scan_load, pi_frames = view.pattern_fields(result.assignment)
                pattern = TestPattern(
                    procedure=procedure,
                    scan_load=scan_load,
                    pi_frames=pi_frames,
                    observe_pos=self.setup.observe_pos,
                )
                return pattern, statuses
        return None, statuses

    # -------------------------------------------------------------- internals
    def _ordered_procedures(self) -> list[NamedCaptureProcedure]:
        """Cheapest (fewest pulses) first."""
        return sorted(self.setup.procedures, key=lambda p: (p.num_pulses, p.name))


def run_stuck_at_atpg(
    model: CircuitModel,
    domain_map: ClockDomainMap,
    setup: TestSetup,
    faults: Sequence[StuckAtFault] | None = None,
) -> AtpgResult:
    """Convenience wrapper: build and run a :class:`StuckAtAtpg`."""
    return StuckAtAtpg(model, domain_map, setup, faults).run()
