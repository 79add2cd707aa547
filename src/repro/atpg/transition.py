"""Transition-fault ATPG with broadside (functional-justification) patterns.

This is the delay-test generator the paper's experiments (b)–(e) exercise
under different clocking environments.  Every fault is targeted as a
launch-condition + capture-frame-stuck-at problem on a time-frame expanded
model (:mod:`repro.atpg.timeframe`); the named capture procedures offered by
the experiment's :class:`~repro.atpg.config.TestSetup` decide how many pulses
exist, which clock domains they clock, and whether inter-domain launch/capture
is available.
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
from repro.faults.models import TransitionFault, all_transition_faults
from repro.patterns.pattern import TestPattern
from repro.simulation.model import CircuitModel


class TransitionAtpg(AtpgGenerator):
    """Broadside transition-fault test generation."""

    def __init__(
        self,
        model: CircuitModel,
        domain_map: ClockDomainMap,
        setup: TestSetup,
        faults: Sequence[TransitionFault] | None = None,
    ) -> None:
        for procedure in setup.procedures:
            if procedure.num_pulses < 2:
                raise ValueError(
                    f"transition ATPG needs at least 2 pulses, procedure "
                    f"{procedure.name!r} has {procedure.num_pulses}"
                )
        super().__init__(model, domain_map, setup, faults)
        self.simulator = TransitionFaultSimulator(model, domain_map, setup)
        self._views: dict[str, TimeFrameView] = {}
        self._engines: dict[str, PodemEngine] = {}

    # ------------------------------------------------------------------ hooks
    def _fault_universe(self) -> list[TransitionFault]:
        return all_transition_faults(self.model)

    def _fault_simulate(
        self, patterns: Sequence[TestPattern], faults: Iterable[TransitionFault]
    ) -> dict[TransitionFault, list[int]]:
        result = self.simulator.simulate(patterns, faults, drop_detected=True)
        return result.detections

    def _generate_for_fault(
        self, fault: TransitionFault
    ) -> tuple[TestPattern | None, list[PodemStatus]]:
        statuses: list[PodemStatus] = []
        for procedure in self._ordered_procedures():
            view = self._view(procedure)
            engine = self._engine(procedure)
            stuck, required = view.transition_requirements(fault)
            if not engine.observable(stuck.site.node):
                statuses.append(PodemStatus.UNTESTABLE)
                continue
            result = engine.run(stuck, required)
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
        """Cheapest first: fewer pulses, intra-domain before inter-domain."""
        return sorted(
            self.setup.procedures,
            key=lambda p: (p.num_pulses, p.is_inter_domain, p.name),
        )

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


def run_transition_atpg(
    model: CircuitModel,
    domain_map: ClockDomainMap,
    setup: TestSetup,
    faults: Sequence[TransitionFault] | None = None,
) -> AtpgResult:
    """Convenience wrapper: build and run a :class:`TransitionAtpg`."""
    return TransitionAtpg(model, domain_map, setup, faults).run()
