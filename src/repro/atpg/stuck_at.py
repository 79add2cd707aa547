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
from repro.atpg.podem import PodemEngine, PodemStatus
from repro.atpg.timeframe import TimeFrameView, build_timeframe_view
from repro.clocking.domains import ClockDomainMap
from repro.clocking.named_capture import NamedCaptureProcedure
from repro.fault_sim.transition import TransitionFaultSimulator
from repro.faults.models import StuckAtFault, all_stuck_at_faults
from repro.patterns.pattern import TestPattern
from repro.simulation.model import CircuitModel


class StuckAtAtpg(AtpgGenerator):
    """Deterministic + random stuck-at test generation."""

    def __init__(
        self,
        model: CircuitModel,
        domain_map: ClockDomainMap,
        setup: TestSetup,
        faults: Sequence[StuckAtFault] | None = None,
    ) -> None:
        super().__init__(model, domain_map, setup, faults)
        self.simulator = TransitionFaultSimulator(model, domain_map, setup)
        self._views: dict[str, TimeFrameView] = {}
        self._engines: dict[str, PodemEngine] = {}

    # ------------------------------------------------------------------ hooks
    def _fault_universe(self) -> list[StuckAtFault]:
        return all_stuck_at_faults(self.model)

    def _fault_simulate(
        self, patterns: Sequence[TestPattern], faults: Iterable[StuckAtFault]
    ) -> dict[StuckAtFault, list[int]]:
        return self.simulator.simulate_stuck_at(patterns, faults, drop_detected=True)

    def _generate_for_fault(
        self, fault: StuckAtFault
    ) -> tuple[TestPattern | None, list[PodemStatus]]:
        statuses: list[PodemStatus] = []
        for procedure in self._ordered_procedures():
            view = self._view(procedure)
            engine = self._engine(procedure)
            expanded = view.expanded_stuck_at(fault, frame=view.capture_frame)
            if not engine.observable(expanded.site.node):
                statuses.append(PodemStatus.UNTESTABLE)
                continue
            result = engine.run(expanded)
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

    def _view(self, procedure: NamedCaptureProcedure) -> TimeFrameView:
        if procedure.name not in self._views:
            self._views[procedure.name] = build_timeframe_view(
                self.model, self.domain_map, procedure, self.setup
            )
        return self._views[procedure.name]

    def _engine(self, procedure: NamedCaptureProcedure) -> PodemEngine:
        if procedure.name not in self._engines:
            view = self._view(procedure)
            self._engines[procedure.name] = PodemEngine(
                model=view.model,
                controllable=view.controllable,
                fixed=view.fixed,
                observation=view.observation,
                backtrack_limit=self.options.backtrack_limit,
            )
        return self._engines[procedure.name]


def run_stuck_at_atpg(
    model: CircuitModel,
    domain_map: ClockDomainMap,
    setup: TestSetup,
    faults: Sequence[StuckAtFault] | None = None,
) -> AtpgResult:
    """Convenience wrapper: build and run a :class:`StuckAtAtpg`."""
    return StuckAtAtpg(model, domain_map, setup, faults).run()
