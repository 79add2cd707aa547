"""Transition (gate-delay) fault simulation for broadside patterns.

A broadside pattern is applied as: scan load, then *k* capture pulses per the
pattern's named capture procedure, then unload.  A slow-to-rise fault at a
site is detected by a pattern when

* the fault-free machine launches a rising transition at the site between the
  launch frame (values before the last-but-one pulse edge) and the capture
  frame (values after it), and
* forcing the site to its pre-transition value during the capture frame (the
  one-cycle stuck-at equivalent of the delay) changes a value captured by the
  final pulse into an observable scan cell, or an observed primary output.

The simulator shares the bit-parallel single-fault-propagation core with the
stuck-at engine; frames are simulated a batch at a time and the per-frame
state hand-off honours which clock domains each pulse clocks — including the
inter-domain launch/capture procedures of the enhanced CPF.

Per-fault detection routes through a
:class:`~repro.engine.scheduler.FaultSimScheduler`, so the execution backend
(interpreted ``serial`` reference or ``compiled`` kernels) follows
``setup.options.sim_backend`` unless overridden per instance; every backend
yields identical detections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.atpg.config import TestSetup
from repro.clocking.domains import ClockDomainMap
from repro.clocking.named_capture import NamedCaptureProcedure
from repro.engine.scheduler import FaultSimScheduler
from repro.faults.models import TransitionFault
from repro.patterns.pattern import TestPattern
from repro.logic import Logic
from repro.simulation.model import CircuitModel
from repro.simulation.parallel_sim import (
    PackedPatterns,
    mask_to_indices,
    pack_patterns,
)
from repro.simulation.scalar_sim import simulate as scalar_simulate


@dataclass
class TransitionSimResult:
    """Per-fault detecting pattern indices."""

    detections: dict[TransitionFault, list[int]]

    def detected_faults(self) -> list[TransitionFault]:
        return [fault for fault, hits in self.detections.items() if hits]


class FrameSimulator:
    """Good-machine frame simulation of capture-procedure pattern batches.

    Owns the per-frame state hand-off of broadside patterns: which clock
    domains each pulse clocks, how scan loads seed frame 0, which scan cells
    and primary outputs the final pulse observes.  Shared by the transition
    fault simulator, the tester-side fail-log capture of
    :mod:`repro.diagnose.faillog` and the diagnosis candidate scorer — all
    three must agree bit for bit on the frames they reason about.
    """

    def __init__(
        self,
        model: CircuitModel,
        domain_map: ClockDomainMap,
        setup: TestSetup,
        scheduler: FaultSimScheduler,
    ) -> None:
        self.model = model
        self.domain_map = domain_map
        self.setup = setup
        self.scheduler = scheduler
        self._constraints = setup.effective_pin_constraints()
        self._scan_elements = [e for e in model.state_elements if e.flop.is_scan]

    # ------------------------------------------------------------- observation
    def observation_nodes(self, procedure: NamedCaptureProcedure) -> list[int]:
        """Observation points for one procedure: D inputs of scan cells captured
        by the final pulse, plus primary outputs when they may be strobed."""
        observation: list[int] = []
        last_domains = procedure.capture_domains
        for element in self._scan_elements:
            if element.d_node is None:
                continue
            domain = self.domain_map.domain_of(element.name)
            if domain is not None and domain in last_domains:
                observation.append(element.d_node)
        if self.setup.observe_pos:
            observation.extend(idx for _, idx in self.model.po_nodes)
        return sorted(set(observation))

    def observed_scan_flops(self, procedure: NamedCaptureProcedure) -> list[str]:
        names = []
        for element in self._scan_elements:
            domain = self.domain_map.domain_of(element.name)
            if domain is not None and domain in procedure.capture_domains:
                names.append(element.name)
        return names

    # --------------------------------------------------------------- framing
    def iter_batches(self, items: Sequence[TestPattern], batch_size: int = 256):
        """Group a pattern set by capture procedure and simulate per batch.

        Yields ``(procedure, observation, chunk, batch, launch, final)`` for
        every homogeneous batch: the global pattern indices (``chunk``), the
        patterns themselves, and the launch/capture-frame planes.  Fail-log
        capture and diagnosis candidate scoring both iterate through this
        single generator, so the frames they reason about are identical by
        construction.
        """
        by_procedure: dict[str, list[int]] = {}
        for index, pattern in enumerate(items):
            by_procedure.setdefault(pattern.procedure.name, []).append(index)
        step = max(1, batch_size)
        for indices in by_procedure.values():
            procedure = items[indices[0]].procedure
            observation = self.observation_nodes(procedure)
            for start in range(0, len(indices), step):
                chunk = indices[start:start + step]
                batch = [items[i] for i in chunk]
                frames = self.frame_values_packed(batch, procedure)
                yield (
                    procedure,
                    observation,
                    chunk,
                    batch,
                    frames[procedure.launch_frame],
                    frames[procedure.capture_frame],
                )

    def frame_values_packed(
        self, batch: Sequence[TestPattern], procedure: NamedCaptureProcedure
    ) -> list[PackedPatterns]:
        """Simulate all frames of a homogeneous pattern batch bit-parallel."""
        frames: list[PackedPatterns] = []
        previous: PackedPatterns | None = None
        for frame_index in range(procedure.num_frames):
            assignments = [
                self.frame_source_assignment(pattern, frame_index) for pattern in batch
            ]
            packed = pack_patterns(self.model, assignments)
            if previous is not None:
                pulse = procedure.pulses[frame_index - 1]
                full = packed.full_mask
                for element in self.model.state_elements:
                    q = element.q_node
                    domain = self.domain_map.domain_of(element.name)
                    captured = domain is not None and domain in pulse.domains
                    if captured and element.d_node is not None:
                        packed.can0[q] = previous.can0[element.d_node]
                        packed.can1[q] = previous.can1[element.d_node]
                    elif captured:
                        packed.can0[q] = full
                        packed.can1[q] = full
                    else:
                        packed.can0[q] = previous.can0[q]
                        packed.can1[q] = previous.can1[q]
            self.scheduler.simulate_good(packed)
            frames.append(packed)
            previous = packed
        return frames

    def frame_source_assignment(self, pattern: TestPattern, frame: int) -> dict[int, Logic]:
        assignment: dict[int, Logic] = {}
        pi_values = pattern.pi_frames[min(frame, len(pattern.pi_frames) - 1)]
        for net, value in pi_values.items():
            idx = self.model.node_of_net.get(net)
            if idx is not None:
                assignment[idx] = value
        for net, value in self._constraints.items():
            idx = self.model.node_of_net.get(net)
            if idx is not None:
                assignment[idx] = value
        if frame == 0:
            for element in self.model.state_elements:
                if element.flop.is_scan:
                    value = pattern.scan_load.get(element.name, Logic.X)
                    assignment[element.q_node] = value
                elif element.flop.init is not None:
                    assignment[element.q_node] = Logic.from_int(element.flop.init)
        return assignment


class TransitionFaultSimulator:
    """Broadside transition-fault simulator over the base circuit model."""

    def __init__(
        self,
        model: CircuitModel,
        domain_map: ClockDomainMap,
        setup: TestSetup,
        batch_size: int = 256,
        backend: str | None = None,
    ) -> None:
        self.model = model
        self.domain_map = domain_map
        self.setup = setup
        self.batch_size = max(1, batch_size)
        self.scheduler = FaultSimScheduler(
            model, backend=backend or setup.options.sim_backend
        )
        self.frames = FrameSimulator(model, domain_map, setup, self.scheduler)

    # ------------------------------------------------------------- observation
    def observation_nodes(self, procedure: NamedCaptureProcedure) -> list[int]:
        """Observation points for one procedure: D inputs of scan cells captured
        by the final pulse, plus primary outputs when they may be strobed."""
        return self.frames.observation_nodes(procedure)

    def observed_scan_flops(self, procedure: NamedCaptureProcedure) -> list[str]:
        return self.frames.observed_scan_flops(procedure)

    # ------------------------------------------------------------- simulation
    def simulate(
        self,
        patterns: Sequence[TestPattern],
        faults: Iterable[TransitionFault],
        drop_detected: bool = True,
    ) -> TransitionSimResult:
        """Fault-simulate a pattern set against a transition fault list."""
        return TransitionSimResult(
            detections=self._detections(patterns, faults, drop_detected, gate_on_launch=True)
        )

    def detects(self, pattern: TestPattern, fault: TransitionFault) -> bool:
        result = self.simulate([pattern], [fault], drop_detected=False)
        return bool(result.detections[fault])

    def simulate_stuck_at(
        self,
        patterns: Sequence[TestPattern],
        faults: Iterable["StuckAtFault"],
        drop_detected: bool = True,
    ) -> dict:
        """Multi-frame stuck-at fault simulation of capture-procedure patterns.

        Stuck-at ATPG also uses multi-pulse ("clock sequential") procedures to
        initialize non-scan cells; this simulates those patterns frame by
        frame and injects each stuck-at fault into the final (observing)
        frame — the same approximation the time-frame-expanded PODEM model
        uses, so generator claims and simulation stay consistent.
        """
        return self._detections(patterns, faults, drop_detected, gate_on_launch=False)

    def _detections(
        self,
        patterns: Sequence[TestPattern],
        faults: Iterable,
        drop_detected: bool,
        gate_on_launch: bool,
    ) -> dict:
        """Detecting pattern indices per fault, keyed in first-listed order.

        Hits go straight into each position's list, so a fault is hashed
        once (when its list is made), never per hit.  A fault listed twice
        shares one list, which gets both positions' hits batch by batch.
        """
        detections: dict = {}
        remaining = list(faults)
        found = [detections.setdefault(fault, []) for fault in remaining]
        for _, observation, chunk, _, launch, final in self.frames.iter_batches(
            patterns, self.batch_size
        ):
            masks = self.scheduler.detect_batch(
                final, remaining, observation,
                launch=launch if gate_on_launch else None,
            )
            kept_faults: list = []
            kept_found: list[list[int]] = []
            for fault, hits, mask in zip(remaining, found, masks):
                if mask:
                    hits.extend(chunk[i] for i in mask_to_indices(mask) if i < len(chunk))
                    if drop_detected:
                        continue
                kept_faults.append(fault)
                kept_found.append(hits)
            remaining, found = kept_faults, kept_found
        return detections

    # --------------------------------------------------------------- internals
    def _frame_values_packed(
        self, batch: Sequence[TestPattern], procedure: NamedCaptureProcedure
    ) -> list[PackedPatterns]:
        """Simulate all frames of a homogeneous pattern batch bit-parallel."""
        return self.frames.frame_values_packed(batch, procedure)

    def _frame_source_assignment(self, pattern: TestPattern, frame: int) -> dict[int, Logic]:
        return self.frames.frame_source_assignment(pattern, frame)

    # ----------------------------------------------------------- good machine
    def good_capture(self, pattern: TestPattern) -> tuple[dict[str, Logic], dict[str, Logic]]:
        """Scalar good-machine simulation of one pattern.

        Returns:
            ``(unload, outputs)`` where ``unload`` maps every scan flip-flop to
            the value it holds after the final capture pulse (captured value
            for clocked cells, the loaded value for cells that held) and
            ``outputs`` maps primary outputs to their final-frame values.
        """
        procedure = pattern.procedure
        state: dict[str, Logic] = {}
        for element in self.model.state_elements:
            if element.flop.is_scan:
                state[element.name] = pattern.scan_load.get(element.name, Logic.X)
            elif element.flop.init is not None:
                state[element.name] = Logic.from_int(element.flop.init)
            else:
                state[element.name] = Logic.X

        values: list[Logic] = []
        for frame in range(procedure.num_frames):
            assignment = self._frame_source_assignment(pattern, frame)
            for element in self.model.state_elements:
                assignment[element.q_node] = state[element.name]
            values = scalar_simulate(self.model, assignment)
            pulse = procedure.pulses[frame]
            new_state = dict(state)
            for element in self.model.state_elements:
                domain = self.domain_map.domain_of(element.name)
                if domain is not None and domain in pulse.domains:
                    if element.d_node is not None:
                        new_state[element.name] = values[element.d_node]
                    else:
                        new_state[element.name] = Logic.X
            state = new_state
        unload = {
            element.name: state[element.name]
            for element in self.model.state_elements
            if element.flop.is_scan
        }
        outputs = {net: values[idx] for net, idx in self.model.po_nodes} if values else {}
        return unload, outputs
