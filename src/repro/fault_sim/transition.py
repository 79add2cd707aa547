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
stuck-at engine.  Grading packs the batches of several capture procedures
into one *window* of up to ``batch_size`` patterns; each batch is a *lane
group* that owns a contiguous range of bit positions.  Frames are simulated
a window at a time: frame *k* of every lane is one good-machine pass, so a
window costs as many passes as its longest procedure has frames (at most
four for the paper's procedures), over source planes built straight from
the patterns.  The hand-off from frame *k*-1 to *k* honours which clock
domains each pulse clocks — including the inter-domain launch/capture
procedures of the enhanced CPF — as a masked merge per state element: per
domain, ``pulsed`` is the OR of the groups whose procedure's pulse *k*-1
clocks it, and an element takes ``(d & pulsed) | (q & ~pulsed)`` (a cell
with no D input goes to X on the pulsed lanes).  A group whose procedure
has fewer frames holds its state past its capture frame; its lanes run on
as garbage that nothing reads.  After frame *k*, the lanes of the groups
that launch (capture) at *k* are ORed into the window's launch (capture)
planes, so at most two frames are live at once.  Every plane operation is
bitwise per lane and a lane's frames depend only on its own pattern and
procedure, so each lane's planes equal those of its batch framed alone.

The window gets one fault pass and one stem pass over the union of the
groups' observation nodes, each node counted only on the lanes of the
groups that observe it.  Groups are laid out in batch order, so with fault
dropping a fault keeps the hits of its lowest group with a hit — exactly
the hits of the batch that would have dropped it had each batch been
graded on its own.

Per-fault detection routes through a
:class:`~repro.engine.scheduler.FaultSimScheduler`, so the execution backend
(interpreted ``serial`` reference or ``compiled`` kernels) follows
``setup.options.sim_backend`` unless overridden per instance; every backend
yields identical detections.

The per-batch frames of :meth:`FrameSimulator.iter_batches` (fail-log
capture and the diagnosis syndrome dictionary) are memoised per model: a
design replays one pattern set for every failing die, and only the
injected defect differs between the replays.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.atpg.config import TestSetup
from repro.clocking.domains import ClockDomainMap
from repro.clocking.named_capture import NamedCaptureProcedure
from repro.engine.scheduler import FaultSimScheduler
from repro.faults.models import TransitionFault
from repro.patterns.pattern import TestPattern
from repro.logic import Logic
from repro.simulation.model import CircuitModel
from repro.simulation.parallel_sim import PackedPatterns, mask_to_indices, planes_of
from repro.simulation.scalar_sim import simulate as scalar_simulate


@dataclass
class TransitionSimResult:
    """Per-fault detecting pattern indices."""

    detections: dict[TransitionFault, list[int]]


class PatternWindow:
    """Capture-procedure batches packed side by side into one plane width.

    Lane group *g* is the *g*-th batch added; it owns the contiguous bit
    positions of ``groups[g]`` and applies ``procedures[g]``, and
    ``patterns[lane]`` is the global pattern index in a lane.  ``launch``
    and ``final`` hold every lane's launch- and capture-frame planes; the
    :class:`FrameSimulator` that builds the window fills them in.
    """

    def __init__(self) -> None:
        self.patterns: list[int] = []
        self.groups: list[int] = []
        self.procedures: list[NamedCaptureProcedure] = []
        self.launch: PackedPatterns | None = None
        self.final: PackedPatterns | None = None
        self._lane_group: list[int] = []
        self._observers: dict[int, int] = {}

    def add_group(
        self,
        chunk: Sequence[int],
        procedure: NamedCaptureProcedure,
        observation: Sequence[int],
    ) -> None:
        """Append one batch as the next lane group."""
        group = ((1 << len(chunk)) - 1) << len(self.patterns)
        self.groups.append(group)
        self.procedures.append(procedure)
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


@dataclass(frozen=True)
class _FrameMemo:
    """The framed batches of the last pattern set framed on ``model``
    (:meth:`FrameSimulator._framed_batches`)."""

    model: CircuitModel
    key: tuple
    patterns: list[tuple]
    batches: list[tuple]


def _merge_lanes(
    window: PackedPatterns | None, frame: PackedPatterns, lanes: int
) -> PackedPatterns | None:
    """``window``'s planes with ``frame``'s ORed in on ``lanes`` —
    ``frame`` itself, uncopied, when ``lanes`` is every lane."""
    if not lanes:
        return window
    if lanes == frame.full_mask:
        return frame
    if window is None:
        can0 = [value & lanes for value in frame.can0]
        can1 = [value & lanes for value in frame.can1]
    else:
        can0 = [w | (v & lanes) for w, v in zip(window.can0, frame.can0)]
        can1 = [w | (v & lanes) for w, v in zip(window.can1, frame.can1)]
    return PackedPatterns(num_patterns=frame.num_patterns, can0=can0, can1=can1)


class FrameSimulator:
    """Good-machine frame simulation of capture-procedure pattern batches.

    Owns the per-frame state hand-off of broadside patterns: which clock
    domains each pulse clocks, how scan loads seed frame 0, which scan cells
    and primary outputs the final pulse observes.  Shared by the transition
    fault simulator, the path-delay checker, the tester-side fail-log
    capture of :mod:`repro.diagnose.faillog` and the diagnosis candidate
    scorer — all of them must agree bit for bit on the frames they reason
    about, so all of them frame through :meth:`_frames`.  The setup's pin
    constraints and ``observe_pos`` are read once, at construction.
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
        node_of_net = model.node_of_net
        #: ``(node, value)`` of every pin constraint the model has a node for.
        self._constrained = [
            (node_of_net[net], value)
            for net, value in setup.effective_pin_constraints().items()
            if net in node_of_net
        ]
        #: One row per state element: ``(name, q, d, domain, is_scan, init)``.
        self._elements = [
            (
                element.name, element.q_node, element.d_node,
                domain_map.domain_of(element.name), element.flop.is_scan,
                element.flop.init,
            )
            for element in model.state_elements
        ]
        #: Scan cell name -> its position among the scan cells' Q nodes.
        scan = [(name, q) for name, q, _, _, is_scan, _ in self._elements if is_scan]
        self._scan_position = {name: position for position, (name, _) in enumerate(scan)}
        self._scan_q = [q for _, q in scan]
        #: ``(q, value)`` of every non-scan cell with a power-up value.
        self._initialised = [
            (q, Logic.from_int(init))
            for _, q, _, _, is_scan, init in self._elements
            if not is_scan and init is not None
        ]
        self._observe_pos = setup.observe_pos
        #: Everything besides the model and the patterns that the frames of
        #: :meth:`iter_batches` depend on; part of the frame memo's key.
        self._frame_key = (
            scheduler.backend_name,
            tuple(self._constrained),
            self._observe_pos,
            tuple(domain for _, _, _, domain, _, _ in self._elements),
        )

    # ------------------------------------------------------------- observation
    def observation_nodes(self, procedure: NamedCaptureProcedure) -> list[int]:
        """Observation points for one procedure: D inputs of scan cells captured
        by the final pulse, plus primary outputs when they may be strobed."""
        last_domains = procedure.capture_domains
        observation = [
            d for _, _, d, domain, is_scan, _ in self._elements
            if is_scan and d is not None and domain in last_domains
        ]
        if self._observe_pos:
            observation.extend(idx for _, idx in self.model.po_nodes)
        return sorted(set(observation))

    def observed_scan_flops(self, procedure: NamedCaptureProcedure) -> list[str]:
        return [
            name for name, _, _, domain, is_scan, _ in self._elements
            if is_scan and domain in procedure.capture_domains
        ]

    def captured_cells(self, procedure: NamedCaptureProcedure) -> dict[int, list[str]]:
        """D node -> the scan cells the final pulse of ``procedure``
        captures it into, in state-element order; cells without a D input
        capture nothing and are left out."""
        domains = procedure.capture_domains
        cells: dict[int, list[str]] = {}
        for name, _, d, domain, is_scan, _ in self._elements:
            if is_scan and d is not None and domain in domains:
                cells.setdefault(d, []).append(name)
        return cells

    # --------------------------------------------------------------- framing
    def _batches(self, items: Sequence[TestPattern], batch_size: int):
        """``(procedure, observation, chunk)`` per homogeneous batch: each
        procedure's global pattern indices, procedures in first-listed
        order, in chunks of up to ``batch_size``."""
        by_procedure: dict[str, list[int]] = {}
        for index, pattern in enumerate(items):
            by_procedure.setdefault(pattern.procedure.name, []).append(index)
        step = max(1, batch_size)
        for indices in by_procedure.values():
            procedure = items[indices[0]].procedure
            observation = self.observation_nodes(procedure)
            for start in range(0, len(indices), step):
                yield procedure, observation, indices[start:start + step]

    def iter_batches(self, items: Sequence[TestPattern], batch_size: int = 256):
        """Group a pattern set by capture procedure and simulate per batch.

        Yields ``(procedure, observation, chunk, batch, launch, final)`` for
        every homogeneous batch: the global pattern indices (``chunk``), the
        patterns themselves, and the launch/capture-frame planes — the
        one-group case of the window framer.  Fail-log capture and
        diagnosis candidate scoring both iterate through this single
        generator, so the frames they reason about are identical by
        construction.

        The framed batches come from the model's frame memo (see
        :meth:`_framed_batches`), so a pattern set replayed against many
        injected devices is framed once.  ``observation``, ``chunk`` and
        the planes are shared with every later replay: read them, never
        write them.
        """
        items = list(items)
        for procedure, observation, chunk, launch, final in self._framed_batches(
            items, max(1, batch_size)
        ):
            yield procedure, observation, chunk, [items[i] for i in chunk], launch, final

    def _framed_batches(self, items: list[TestPattern], step: int) -> list[tuple]:
        """``(procedure, observation, chunk, launch, final)`` per batch of
        ``items``, framed once per content.

        The model keeps the batches of the last pattern set framed
        (``_frame_memo`` in its ``__dict__``, dropped on pickling).  Its key
        is content, never object identity: this framer's backend, pin
        constraints, ``observe_pos`` and every state element's clock
        domain, the batch size, and a copy of every pattern's procedure,
        scan load, PI frames and ``observe_pos``.  The copy is compared by
        equality, not hashed: dict and list equality skip the values they
        share by identity, where hashing would hash every ``Logic`` value.
        So an in-place edit of a pattern, another setup or another batch
        size frames afresh.  Concurrent framers of one model may both
        frame a miss; the entries are equal and the last one stays.
        """
        key = self._frame_key + (step,)
        snapshot = [
            (pattern.procedure, pattern.scan_load, pattern.pi_frames, pattern.observe_pos)
            for pattern in items
        ]
        memo = self.model.__dict__.get("_frame_memo")
        if (
            memo is not None and memo.model is self.model
            and memo.key == key and memo.patterns == snapshot
        ):
            return memo.batches
        batches = []
        for procedure, observation, chunk in self._batches(items, step):
            batch = [items[i] for i in chunk]
            lanes = (1 << len(batch)) - 1
            launch, final = self._launch_and_final(batch, ((lanes, procedure),))
            batches.append((procedure, observation, chunk, launch, final))
        self.model.__dict__["_frame_memo"] = _FrameMemo(
            self.model, key,
            [
                (procedure, dict(scan_load), [dict(frame) for frame in pi_frames], observe_pos)
                for procedure, scan_load, pi_frames, observe_pos in snapshot
            ],
            batches,
        )
        return batches

    def iter_windows(self, items: Sequence[TestPattern], batch_size: int = 256):
        """Pack the batches of :meth:`iter_batches` side by side into windows
        and frame each window as a whole.

        A window takes batches in :meth:`iter_batches` order while they fit
        in ``batch_size`` patterns; each batch becomes a *lane group*, a
        contiguous range of bit positions.  Frame *k* of the window is one
        good-machine pass over all of its lanes, so a window costs as many
        passes as its longest procedure has frames.  Between frames, each
        state element takes its D value on the lanes ``pulsed`` by pulse
        *k*-1 of their group's procedure, per clock domain, and holds on the
        others; a group past its capture frame holds, and its lanes run on
        as garbage nobody reads.  After frame *k*, the lanes of the groups
        that launch (capture) at *k* are ORed into the window's ``launch``
        (``final``) planes, so at most two frames are live at once.  Yields
        one :class:`PatternWindow` per window.
        """
        step = max(1, batch_size)
        window = PatternWindow()
        for procedure, observation, chunk in self._batches(items, step):
            if window.patterns and len(window.patterns) + len(chunk) > step:
                yield self._framed(window, items)
                window = PatternWindow()
            window.add_group(chunk, procedure, observation)
        if window.patterns:
            yield self._framed(window, items)

    def _framed(self, window: PatternWindow, items: Sequence[TestPattern]) -> PatternWindow:
        window.launch, window.final = self._launch_and_final(
            [items[i] for i in window.patterns],
            list(zip(window.groups, window.procedures)),
        )
        return window

    def frame_values_packed(
        self, batch: Sequence[TestPattern], procedure: NamedCaptureProcedure
    ) -> list[PackedPatterns]:
        """Every frame of a homogeneous pattern batch, bit-parallel: the
        window framer with one lane group, all of whose frames are kept."""
        lanes = (1 << max(1, len(batch))) - 1
        return list(self._frames(batch, ((lanes, procedure),)))

    def _launch_and_final(
        self,
        batch: Sequence[TestPattern],
        groups: Sequence[tuple[int, NamedCaptureProcedure]],
    ) -> tuple[PackedPatterns, PackedPatterns]:
        """Each lane's launch- and capture-frame planes: after frame *k*,
        one merge of the lanes of every group that launches (captures) at
        *k*."""
        launching: dict[int, int] = {}
        capturing: dict[int, int] = {}
        for lanes, procedure in groups:
            frame = procedure.launch_frame
            launching[frame] = launching.get(frame, 0) | lanes
            frame = procedure.capture_frame
            capturing[frame] = capturing.get(frame, 0) | lanes
        launch = final = None
        for frame, planes in enumerate(self._frames(batch, groups)):
            launch = _merge_lanes(launch, planes, launching.get(frame, 0))
            final = _merge_lanes(final, planes, capturing.get(frame, 0))
        return launch, final

    def _frames(
        self,
        batch: Sequence[TestPattern],
        groups: Sequence[tuple[int, NamedCaptureProcedure]],
    ) -> Iterator[PackedPatterns]:
        """Frames 0, 1, ... of ``batch`` up to the longest procedure's last,
        one good-machine pass each.  ``groups`` pairs each lane group's
        lanes with its procedure."""
        num_frames = max(procedure.num_frames for _, procedure in groups)
        previous: PackedPatterns | None = None
        for frame in range(num_frames):
            packed = self._source_planes(batch, frame)
            if previous is not None:
                pulsed: dict[str, int] = {}
                for lanes, procedure in groups:
                    if frame < procedure.num_frames:
                        for domain in procedure.pulses[frame - 1].domains:
                            pulsed[domain] = pulsed.get(domain, 0) | lanes
                self._hand_off(previous, packed, pulsed)
            previous = self.scheduler.simulate_good(packed)
            yield previous

    def _source_planes(self, batch: Sequence[TestPattern], frame: int) -> PackedPatterns:
        """Frame ``frame``'s source planes, straight from the patterns.

        Every node starts X; each lane's PI values are ORed into per-node
        ``ones``/``zeros`` lane masks, pin constraints overwrite them on
        every lane, and frame 0 sets the scan loads and the ``init`` of
        non-scan cells.  Gate and constant planes are left for the
        good-machine pass to overwrite.
        """
        num_patterns = max(1, len(batch))
        full = (1 << num_patterns) - 1
        can0 = [full] * self.model.num_nodes
        can1 = [full] * self.model.num_nodes
        node_of_net = self.model.node_of_net
        one, zero = Logic.ONE, Logic.ZERO
        ones: dict[int, int] = {}
        zeros: dict[int, int] = {}
        bit = 1
        for pattern in batch:
            pi_frames = pattern.pi_frames
            for net, value in pi_frames[min(frame, len(pi_frames) - 1)].items():
                node = node_of_net.get(net)
                if node is None:
                    continue
                if value is one:
                    ones[node] = ones.get(node, 0) | bit
                elif value is zero:
                    zeros[node] = zeros.get(node, 0) | bit
            bit <<= 1
        for node, lanes in ones.items():
            can0[node] = full ^ lanes
        for node, lanes in zeros.items():
            can1[node] = full ^ lanes
        for node, value in self._constrained:
            can0[node], can1[node] = planes_of(value, full)
        if frame == 0:
            position = self._scan_position
            scan_ones = [0] * len(self._scan_q)
            scan_zeros = [0] * len(self._scan_q)
            bit = 1
            for pattern in batch:
                for name, value in pattern.scan_load.items():
                    at = position.get(name)
                    if at is None:
                        continue
                    if value is one:
                        scan_ones[at] |= bit
                    elif value is zero:
                        scan_zeros[at] |= bit
                bit <<= 1
            for q, lanes_one, lanes_zero in zip(self._scan_q, scan_ones, scan_zeros):
                can0[q] = full ^ lanes_one
                can1[q] = full ^ lanes_zero
            for q, value in self._initialised:
                can0[q], can1[q] = planes_of(value, full)
        return PackedPatterns(num_patterns=num_patterns, can0=can0, can1=can1)

    def _hand_off(
        self, previous: PackedPatterns, packed: PackedPatterns, pulsed: dict[str, int]
    ) -> None:
        """Set every state element's Q planes in ``packed`` from frame
        ``previous``: ``q = (d & pulsed) | (q & ~pulsed)`` per clock
        domain's ``pulsed`` lanes; a cell with no D input goes to X on
        them."""
        full = packed.full_mask
        p0, p1 = previous.can0, previous.can1
        can0, can1 = packed.can0, packed.can1
        for _, q, d, domain, _, _ in self._elements:
            lanes = pulsed.get(domain, 0)
            if not lanes:
                can0[q] = p0[q]
                can1[q] = p1[q]
            elif d is None:
                can0[q] = p0[q] | lanes
                can1[q] = p1[q] | lanes
            elif lanes == full:
                can0[q] = p0[d]
                can1[q] = p1[d]
            else:
                hold = full ^ lanes
                can0[q] = (p0[d] & lanes) | (p0[q] & hold)
                can1[q] = (p1[d] & lanes) | (p1[q] & hold)


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

        node_of_net = self.model.node_of_net
        constraints = self.setup.effective_pin_constraints()
        values: list[Logic] = []
        for frame in range(procedure.num_frames):
            pi_values = pattern.pi_frames[min(frame, len(pattern.pi_frames) - 1)]
            assignment = {
                node_of_net[net]: value
                for net, value in {**pi_values, **constraints}.items()
                if net in node_of_net
            }
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
