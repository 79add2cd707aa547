"""Stuck-at fault simulation with parallel-pattern single fault propagation.

The structure follows Waicukauski et al. (reference [3] of the paper): the
good machine is simulated bit-parallel for a batch of patterns; then every
still-undetected fault is injected one at a time and its effect is propagated
only through the fault's fanout cone, again bit-parallel, and compared against
the good machine at the observation points.  Detected faults are dropped by
the caller (usually via a :class:`~repro.faults.fault_list.FaultList`).

:func:`propagate_fault_packed` below is the interpreted propagation kernel;
it remains the ``serial`` reference backend of :mod:`repro.engine` and the
ground truth the compiled kernels are equivalence-tested against.  The
simulator class routes through a
:class:`~repro.engine.scheduler.FaultSimScheduler`, so the backend is
selectable per instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.engine.scheduler import FaultSimScheduler
from repro.faults.models import StuckAtFault
from repro.logic import Logic
from repro.simulation.model import CircuitModel, NodeKind
from repro.simulation.parallel_sim import (
    PackedPatterns,
    eval_gate_planes,
    mask_to_indices,
    pack_patterns,
)


def _propagate_planes(
    model: CircuitModel, good: PackedPatterns, fault: StuckAtFault
) -> tuple[dict[int, int], dict[int, int], set[int]]:
    """Inject one stuck-at fault and propagate it through its fanout cone.

    Returns the sparse faulty planes and the set of changed nodes; nodes not
    in ``changed`` read from the good machine.
    """
    site = fault.site
    full = good.full_mask
    stuck0 = full if fault.value == 0 else 0
    stuck1 = full if fault.value == 1 else 0

    faulty0: dict[int, int] = {}
    faulty1: dict[int, int] = {}

    start = site.node
    if site.pin is None:
        faulty0[start] = stuck0
        faulty1[start] = stuck1
    else:
        node = model.nodes[start]
        in0 = [good.can0[i] for i in node.fanin]
        in1 = [good.can1[i] for i in node.fanin]
        in0[site.pin] = stuck0
        in1[site.pin] = stuck1
        out0, out1 = eval_gate_planes(node.gtype, in0, in1, full)
        faulty0[start] = out0
        faulty1[start] = out1

    changed = {start}
    for idx in model.transitive_fanout(start):
        node = model.nodes[idx]
        if node.kind is not NodeKind.GATE:
            continue
        if not any(i in changed for i in node.fanin):
            continue
        in0 = [faulty0.get(i, good.can0[i]) for i in node.fanin]
        in1 = [faulty1.get(i, good.can1[i]) for i in node.fanin]
        out0, out1 = eval_gate_planes(node.gtype, in0, in1, full)
        if out0 == good.can0[idx] and out1 == good.can1[idx]:
            continue
        faulty0[idx] = out0
        faulty1[idx] = out1
        changed.add(idx)
    return faulty0, faulty1, changed


def propagate_fault_packed(
    model: CircuitModel,
    good: PackedPatterns,
    fault: StuckAtFault,
    observation: Sequence[int],
) -> int:
    """Bit mask of patterns that detect one stuck-at fault.

    The fault is injected into the already-simulated good-machine planes and
    propagated through its fanout cone only; a pattern detects the fault when
    some observation node differs between the two machines with both values
    known.
    """
    faulty0, faulty1, changed = _propagate_planes(model, good, fault)
    detect = 0
    for obs in observation:
        if obs not in changed:
            continue
        g0, g1 = good.can0[obs], good.can1[obs]
        f0, f1 = faulty0[obs], faulty1[obs]
        good_known = g0 ^ g1
        faulty_known = f0 ^ f1
        differ = (g1 & f0) | (g0 & f1)
        detect |= good_known & faulty_known & differ
    return detect


def propagate_fault_nodes(
    model: CircuitModel,
    good: PackedPatterns,
    fault: StuckAtFault,
    observation: Sequence[int],
) -> list[int]:
    """Per-observation-node detection masks of one stuck-at fault.

    Interpreted reference of :meth:`repro.engine.compile.CompiledCircuit.syndrome_batch`:
    same injection and detection arithmetic as :func:`propagate_fault_packed`,
    but each observation node's mask is returned unmerged (aligned with
    ``observation``).
    """
    faulty0, faulty1, changed = _propagate_planes(model, good, fault)
    masks: list[int] = []
    for obs in observation:
        if obs not in changed:
            masks.append(0)
            continue
        g0, g1 = good.can0[obs], good.can1[obs]
        f0, f1 = faulty0[obs], faulty1[obs]
        masks.append((g0 ^ g1) & (f0 ^ f1) & ((g1 & f0) | (g0 & f1)))
    return masks


@dataclass
class FaultSimResult:
    """Which patterns detected which faults."""

    detections: dict[StuckAtFault, list[int]]


class StuckAtFaultSimulator:
    """Parallel-pattern single-fault-propagation stuck-at fault simulator.

    Args:
        backend: Engine execution backend (``"serial"`` runs the interpreted
            reference path above; ``"compiled"``, the default, uses the
            precompiled kernels).  Both produce identical detection masks.
    """

    def __init__(
        self,
        model: CircuitModel,
        observation: Sequence[int] | None = None,
        batch_size: int = 256,
        backend: str | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.model = model
        self.observation = (
            list(observation) if observation is not None else model.observation_nodes()
        )
        self.batch_size = batch_size
        self.scheduler = FaultSimScheduler(model, backend=backend or "compiled")

    def simulate(
        self,
        patterns: Sequence[Mapping[int, Logic]],
        faults: Iterable[StuckAtFault],
        drop_detected: bool = True,
    ) -> FaultSimResult:
        """Fault-simulate a pattern set against a fault list.

        Args:
            patterns: Source-node assignments, one dict per pattern.
            faults: Candidate faults (typically the still-undetected ones).
            drop_detected: Stop simulating a fault after its first detection.

        Returns:
            Per-fault lists of detecting pattern indices.
        """
        remaining = list(faults)
        detections: dict[StuckAtFault, list[int]] = {fault: [] for fault in remaining}
        for batch_start in range(0, len(patterns), self.batch_size):
            batch = [dict(p) for p in patterns[batch_start:batch_start + self.batch_size]]
            if not batch:
                continue
            packed = pack_patterns(self.model, batch)
            self.scheduler.simulate_good(packed)
            masks = self.scheduler.detect_batch(packed, remaining, self.observation)
            still_remaining: list[StuckAtFault] = []
            for fault, mask in zip(remaining, masks):
                if mask:
                    detections[fault].extend(mask_to_indices(mask, batch_start))
                    if not drop_detected:
                        still_remaining.append(fault)
                else:
                    still_remaining.append(fault)
            remaining = still_remaining
        return FaultSimResult(detections=detections)

    def detects(self, pattern: Mapping[int, Logic], fault: StuckAtFault) -> bool:
        """Convenience: does a single pattern detect a single fault?"""
        result = self.simulate([pattern], [fault], drop_detected=False)
        return bool(result.detections[fault])
