"""Path-delay fault checking: does a broadside pattern exercise a path?

A two-vector pattern (non-robustly) tests a path-delay fault when the launch
frame/capture frame values produce the required transition at the path's
launch node and every on-path gate has its off-path inputs at non-controlling
values in the capture frame, so that the (possibly late) transition propagates
along the path into the capture point.
"""

from __future__ import annotations

from typing import Sequence

from repro.atpg.config import TestSetup
from repro.clocking.domains import ClockDomainMap
from repro.fault_sim.transition import TransitionFaultSimulator
from repro.faults.models import PathDelayFault
from repro.patterns.pattern import TestPattern
from repro.logic import Logic
from repro.simulation.model import CircuitModel, NodeKind
from repro.simulation.parallel_sim import unpack_value


class PathDelaySensitizationChecker:
    """Checks non-robust sensitization of path-delay faults by patterns."""

    def __init__(
        self,
        model: CircuitModel,
        domain_map: ClockDomainMap,
        setup: TestSetup,
        backend: str | None = None,
    ) -> None:
        self.model = model
        # The checker only consumes good-machine frame planes; the backend
        # still matters because it selects the compiled vs interpreted
        # simulation kernels (and follows setup.options.sim_backend).
        self._simulator = TransitionFaultSimulator(
            model, domain_map, setup, backend=backend
        )

    def sensitizes(self, pattern: TestPattern, fault: PathDelayFault) -> bool:
        """True when the pattern launches and propagates along the path."""
        frames = self._simulator.frames.frame_values_packed([pattern], pattern.procedure)
        launch = frames[pattern.procedure.launch_frame]
        capture = frames[pattern.procedure.capture_frame]
        start = fault.nodes[0]
        initial = Logic.ZERO if fault.rising else Logic.ONE
        final = Logic.ONE if fault.rising else Logic.ZERO
        if unpack_value(launch, start, 0) is not initial:
            return False
        if unpack_value(capture, start, 0) is not final:
            return False
        on_path = set(fault.nodes)
        for node_index in fault.nodes[1:]:
            node = self.model.nodes[node_index]
            if node.kind is not NodeKind.GATE or node.gtype is None:
                continue
            controlling = node.gtype.controlling_value
            if controlling is None:
                continue
            for src in node.fanin:
                if src in on_path:
                    continue
                value = unpack_value(capture, src, 0)
                if value is controlling or not value.is_known:
                    return False
        return True

    def coverage(
        self, patterns: Sequence[TestPattern], faults: Sequence[PathDelayFault]
    ) -> dict[PathDelayFault, bool]:
        """Which of the given path-delay faults are sensitized by some pattern."""
        result: dict[PathDelayFault, bool] = {}
        for fault in faults:
            result[fault] = any(self.sensitizes(pattern, fault) for pattern in patterns)
        return result
