"""The per-procedure, fault-keyed grading loop: the oracle that
:meth:`repro.fault_sim.TransitionFaultSimulator.simulate` is held to.

It grades each capture procedure's batches on their own, one
``detect_batch`` call per batch, and keys hits by fault; the simulator
packs several batches into one window and indexes hits by position, and
must give the same keys, key order and hit lists.
"""

from __future__ import annotations

from repro.simulation.parallel_sim import mask_to_indices


def keyed_detections(simulator, patterns, faults, drop_detected, transition):
    """Detecting pattern indices per fault, one procedure batch at a time."""
    remaining = list(faults)
    detections = {fault: [] for fault in remaining}
    by_procedure: dict[str, list[int]] = {}
    for index, pattern in enumerate(patterns):
        by_procedure.setdefault(pattern.procedure.name, []).append(index)
    for indices in by_procedure.values():
        procedure = patterns[indices[0]].procedure
        observation = simulator.observation_nodes(procedure)
        for start in range(0, len(indices), simulator.batch_size):
            chunk = indices[start:start + simulator.batch_size]
            frames = simulator.frames.frame_values_packed(
                [patterns[i] for i in chunk], procedure
            )
            launch = frames[procedure.launch_frame] if transition else None
            masks = simulator.scheduler.detect_batch(
                frames[procedure.capture_frame], remaining, observation,
                launch=launch,
            )
            still_remaining = []
            for fault, mask in zip(remaining, masks):
                if mask:
                    detections[fault].extend(
                        chunk[i] for i in mask_to_indices(mask) if i < len(chunk)
                    )
                    if not drop_detected:
                        still_remaining.append(fault)
                else:
                    still_remaining.append(fault)
            remaining = still_remaining
    return detections
