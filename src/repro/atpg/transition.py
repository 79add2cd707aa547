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
from repro.atpg.podem import PodemStatus
from repro.clocking.domains import ClockDomainMap
from repro.clocking.named_capture import NamedCaptureProcedure
from repro.fault_sim.transition import TransitionFaultSimulator
from repro.faults.models import TransitionFault
from repro.patterns.pattern import TestPattern
from repro.simulation.model import CircuitModel


class TransitionAtpg(AtpgGenerator):
    """Broadside transition-fault test generation."""

    fault_model = "transition"

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

    # ------------------------------------------------------------------ hooks
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
            view, engine = self.engines(procedure)
            stuck, required = view.transition_requirements(fault)
            if not engine.observable(stuck.site.node):
                statuses.append(PodemStatus.UNTESTABLE)
                continue
            result = engine.target(stuck, required)
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


def run_transition_atpg(
    model: CircuitModel,
    domain_map: ClockDomainMap,
    setup: TestSetup,
    faults: Sequence[TransitionFault] | None = None,
) -> AtpgResult:
    """Convenience wrapper: build and run a :class:`TransitionAtpg`."""
    return TransitionAtpg(model, domain_map, setup, faults).run()
