"""Path-delay fault support: path selection and test generation.

The paper uses the transition fault model for its quantitative comparison but
notes that the CPF clocking equally supports path-delay patterns, and that
designers "select paths for path delay test ... carefully".  This module
provides that capability:

* :func:`select_critical_paths` enumerates the structurally longest paths
  (by library delay) from launch points (scan cell outputs / primary inputs)
  to capture points (scan cell D inputs / primary outputs);
* :class:`PathDelayAtpg` generates a broadside two-vector test per path by
  asking PODEM for the transition fault at the path's launch node with
  additional non-controlling side-input objectives along the path (a
  non-robust sensitization criterion).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from repro.atpg.config import TestSetup
from repro.atpg.artefacts import ProcedureEngines
from repro.atpg.podem import PodemStatus
from repro.atpg.timeframe import TimeFrameView
from repro.clocking.domains import ClockDomainMap
from repro.faults.models import FaultSite, PathDelayFault, TransitionFault, TransitionKind
from repro.netlist.library import DEFAULT_LIBRARY
from repro.patterns.pattern import TestPattern
from repro.logic import Logic
from repro.simulation.model import CircuitModel, NodeKind


def select_critical_paths(
    model: CircuitModel,
    count: int = 10,
    min_length: int = 2,
) -> list[PathDelayFault]:
    """Select the structurally longest launch-to-capture paths.

    Args:
        model: Base circuit model.
        count: Number of paths to return (each returned once per transition
            polarity would double it; a single rising-launch fault per path is
            returned, matching common practice of pairing later).
        min_length: Minimum number of nodes on the path.

    Returns:
        Up to ``count`` :class:`PathDelayFault` objects, longest first.
    """
    # Longest-delay DAG walk: arrival[n] = max over fanin + own delay.
    arrival: dict[int, float] = {}
    best_pred: dict[int, int | None] = {}
    for node in model.nodes:
        if node.kind is NodeKind.GATE:
            delay = DEFAULT_LIBRARY[node.gtype].delay_ps if node.gtype in DEFAULT_LIBRARY else 30.0
            best = 0.0
            pred: int | None = None
            for src in node.fanin:
                candidate = arrival.get(src, 0.0)
                if candidate >= best:
                    best = candidate
                    pred = src
            arrival[node.index] = best + delay
            best_pred[node.index] = pred
        else:
            arrival[node.index] = 0.0
            best_pred[node.index] = None

    capture_points: list[int] = [idx for _, idx in model.po_nodes]
    capture_points.extend(
        e.d_node for e in model.state_elements if e.d_node is not None
    )
    ranked = heapq.nlargest(count * 3, set(capture_points), key=lambda idx: arrival.get(idx, 0.0))

    paths: list[PathDelayFault] = []
    seen: set[tuple[int, ...]] = set()
    for endpoint in ranked:
        chain: list[int] = [endpoint]
        current = endpoint
        while best_pred.get(current) is not None:
            current = best_pred[current]
            chain.append(current)
        chain.reverse()
        if len(chain) < min_length:
            continue
        key = tuple(chain)
        if key in seen:
            continue
        seen.add(key)
        paths.append(PathDelayFault(nodes=key, rising=True))
        if len(paths) >= count:
            break
    return paths


@dataclass
class PathDelayTest:
    """Result of targeting one path-delay fault."""

    fault: PathDelayFault
    status: PodemStatus
    pattern: TestPattern | None = None


class PathDelayAtpg:
    """Non-robust path-delay test generation on top of the PODEM engine."""

    def __init__(
        self,
        model: CircuitModel,
        domain_map: ClockDomainMap,
        setup: TestSetup,
    ) -> None:
        self.model = model
        self.domain_map = domain_map
        self.setup = setup
        self.engines = ProcedureEngines(model, domain_map, setup)

    def generate(self, fault: PathDelayFault) -> PathDelayTest:
        """Generate a broadside test for one path-delay fault."""
        best_status = PodemStatus.UNTESTABLE
        for procedure in sorted(self.setup.procedures, key=lambda p: p.num_pulses):
            if procedure.num_pulses < 2:
                continue
            view, engine = self.engines(procedure)
            launch_node = fault.nodes[0]
            kind = TransitionKind.SLOW_TO_RISE if fault.rising else TransitionKind.SLOW_TO_FALL
            transition = TransitionFault(site=FaultSite(node=launch_node), kind=kind)
            stuck, required = view.transition_requirements(transition)
            required = list(required) + self._side_input_objectives(fault, view)
            if not engine.observable(stuck.site.node):
                continue
            result = engine.target(stuck, required)
            if result.found:
                scan_load, pi_frames = view.pattern_fields(result.assignment)
                pattern = TestPattern(
                    procedure=procedure,
                    scan_load=scan_load,
                    pi_frames=pi_frames,
                    observe_pos=self.setup.observe_pos,
                    target_faults=[fault.describe(self.model)],
                )
                return PathDelayTest(fault=fault, status=result.status, pattern=pattern)
            if result.status is PodemStatus.ABORTED:
                best_status = PodemStatus.ABORTED
        return PathDelayTest(fault=fault, status=best_status, pattern=None)

    def generate_all(self, faults: Sequence[PathDelayFault]) -> list[PathDelayTest]:
        return [self.generate(fault) for fault in faults]

    # -------------------------------------------------------------- internals
    def _side_input_objectives(
        self, fault: PathDelayFault, view: TimeFrameView
    ) -> list[tuple[int, Logic]]:
        """Non-controlling values on the off-path inputs along the path, in the
        capture frame (non-robust sensitization)."""
        objectives: list[tuple[int, Logic]] = []
        on_path = set(fault.nodes)
        for node_index in fault.nodes[1:]:
            node = self.model.nodes[node_index]
            if node.kind is not NodeKind.GATE or node.gtype is None:
                continue
            noncontrolling = node.gtype.controlling_value
            if noncontrolling is None:
                continue
            required_value = noncontrolling.invert()
            for src in node.fanin:
                if src in on_path:
                    continue
                expanded = view.frame_map[view.capture_frame][src]
                objectives.append((expanded, required_value))
        return objectives
