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

Grading packs the batches of several capture procedures into one *window*
of up to ``batch_size`` patterns.  Each batch is a *lane group*: it owns a
contiguous range of bit positions, and its launch and capture planes are
shifted into those lanes.  The window gets one fault pass and one stem pass
over the union of the groups' observation nodes, each node counted only on
the lanes of the groups that observe it.  Groups are laid out in batch
order, so with fault dropping a fault keeps the hits of its lowest group
with a hit — exactly the hits of the batch that would have dropped it had
each batch been graded on its own.

Per-fault detection routes through a
:class:`~repro.engine.scheduler.FaultSimScheduler`, so the execution backend
(interpreted ``serial`` reference or ``compiled`` kernels) follows
``setup.options.sim_backend`` unless overridden per instance; every backend
yields identical detections.
"""

from __future__ import annotations

from collections import Counter
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


class PatternWindow:
    """Capture-procedure batches packed side by side into one plane width.

    Lane group *g* is the *g*-th batch added; it owns the contiguous bit
    positions of ``groups[g]``, and ``patterns[lane]`` is the global
    pattern index in a lane.  ``launch`` and ``final`` hold every group's
    launch- and capture-frame planes, each shifted into its own lanes.
    """

    def __init__(self) -> None:
        self.patterns: list[int] = []
        self.groups: list[int] = []
        self.launch: PackedPatterns | None = None
        self.final: PackedPatterns | None = None
        self._lane_group: list[int] = []
        self._observers: dict[int, int] = {}

    def add(
        self,
        chunk: Sequence[int],
        observation: Sequence[int],
        launch: PackedPatterns,
        final: PackedPatterns,
    ) -> None:
        """Append one batch as the next lane group."""
        offset = len(self.patterns)
        if self.launch is None or self.final is None:
            self.launch, self.final = launch, final
        else:
            self.launch = _shifted_union(self.launch, launch, offset)
            self.final = _shifted_union(self.final, final, offset)
        group = ((1 << len(chunk)) - 1) << offset
        self.groups.append(group)
        self.patterns.extend(chunk)
        self._lane_group.extend([group] * len(chunk))
        observers = self._observers
        for node in observation:
            observers[node] = observers.get(node, 0) | group

    def observed(self) -> tuple[list[int], list[int]]:
        """The union of the groups' observation nodes (sorted) and, aligned
        with it, the lanes of the groups that observe each node."""
        observation = sorted(self._observers)
        return observation, [self._observers[node] for node in observation]

    def lowest_group(self, mask: int) -> int:
        """``mask`` restricted to the lowest lane group it has a bit in."""
        return mask & self._lane_group[(mask & -mask).bit_length() - 1]


def _shifted_union(
    window: PackedPatterns, group: PackedPatterns, offset: int
) -> PackedPatterns:
    """``window``'s planes with ``group``'s shifted in above bit ``offset``."""
    return PackedPatterns(
        num_patterns=offset + group.num_patterns,
        can0=[w | (g << offset) for w, g in zip(window.can0, group.can0)],
        can1=[w | (g << offset) for w, g in zip(window.can1, group.can1)],
    )


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

    def iter_windows(self, items: Sequence[TestPattern], batch_size: int = 256):
        """Pack the batches of :meth:`iter_batches` side by side into windows.

        A window takes batches in :meth:`iter_batches` order while they fit
        in ``batch_size`` patterns; each batch becomes a *lane group*, a
        contiguous range of bit positions, and its launch and capture
        planes are shifted into those lanes as it arrives (no batch's
        frames outlive its merge).  Yields one :class:`PatternWindow` per
        window.
        """
        step = max(1, batch_size)
        window = PatternWindow()
        for _, observation, chunk, _, launch, final in self.iter_batches(items, step):
            if window.patterns and len(window.patterns) + len(chunk) > step:
                yield window
                window = PatternWindow()
            window.add(chunk, observation, launch, final)
        if window.patterns:
            yield window

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

        One :meth:`FrameSimulator.iter_windows` window of up to
        ``batch_size`` patterns at a time: each capture-procedure batch is
        a lane group of the window, and the window gets one
        ``detect_batch`` call whose lane masks count every observation
        node only on the groups that observe it.  The hits come out exactly
        as if each batch were graded on its own, in batch order: with
        ``drop_detected`` a fault keeps only the hits of its lowest lane
        group with a hit (the first batch that would have dropped it).

        Hits go straight into each position's list, so a fault is hashed
        once (when its list is made), never per hit.  A fault listed twice
        shares one list, which gets both positions' hits group by group.
        """
        detections: dict = {}
        remaining = list(faults)
        found = [detections.setdefault(fault, []) for fault in remaining]
        shared: set[int] = set()
        if len(detections) < len(remaining):
            counts = Counter(map(id, found))
            shared = {key for key, count in counts.items() if count > 1}
        for window in self.frames.iter_windows(patterns, self.batch_size):
            observation, lanes = window.observed()
            masks = self.scheduler.detect_batch(
                window.final, remaining, observation,
                launch=window.launch if gate_on_launch else None,
                lanes=lanes,
            )
            lane_pattern = window.patterns.__getitem__
            kept_faults: list = []
            kept_found: list[list[int]] = []
            deferred: list[tuple[list[int], int]] = []
            for fault, hits, mask in zip(remaining, found, masks):
                if mask:
                    if drop_detected:
                        mask = window.lowest_group(mask)
                    if shared and id(hits) in shared:
                        deferred.append((hits, mask))
                    else:
                        hits.extend(map(lane_pattern, mask_to_indices(mask)))
                    if drop_detected:
                        continue
                kept_faults.append(fault)
                kept_found.append(hits)
            for group in window.groups:
                for hits, mask in deferred:
                    hits.extend(map(lane_pattern, mask_to_indices(mask & group)))
            remaining, found = kept_faults, kept_found
        return detections

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
            assignment = self.frames.frame_source_assignment(pattern, frame)
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
