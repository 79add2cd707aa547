"""The per-procedure, fault-keyed grading loop and the per-batch,
per-pattern framer: the oracles that
:meth:`repro.fault_sim.TransitionFaultSimulator.simulate` and the window
framer of :class:`repro.fault_sim.transition.FrameSimulator` are held to.

The reference framer simulates one capture procedure's batch on its own:
a source dict per pattern and frame, packed into planes, then the state
hand-off element by element.  The keyed loop grades each batch on its own,
one ``detect_batch`` call per batch, and keys hits by fault; the simulator
frames a whole window of batches at once, grades it in one call and
indexes hits by position, and must give the same keys, key order and hit
lists.
"""

from __future__ import annotations

from repro.logic import Logic
from repro.simulation.parallel_sim import mask_to_indices, pack_patterns


def frame_source_assignment(simulator, pattern, frame):
    """One pattern's source values in one frame: its PI values, then the
    pin constraints, then (frame 0) scan loads and non-scan ``init``."""
    model = simulator.model
    assignment = {}
    pi_values = pattern.pi_frames[min(frame, len(pattern.pi_frames) - 1)]
    for net, value in pi_values.items():
        idx = model.node_of_net.get(net)
        if idx is not None:
            assignment[idx] = value
    for net, value in simulator.setup.effective_pin_constraints().items():
        idx = model.node_of_net.get(net)
        if idx is not None:
            assignment[idx] = value
    if frame == 0:
        for element in model.state_elements:
            if element.flop.is_scan:
                assignment[element.q_node] = pattern.scan_load.get(element.name, Logic.X)
            elif element.flop.init is not None:
                assignment[element.q_node] = Logic.from_int(element.flop.init)
    return assignment


def reference_frames(simulator, batch, procedure):
    """Every frame of one procedure's batch, framed pattern by pattern."""
    model, domain_map = simulator.model, simulator.domain_map
    frames = []
    previous = None
    for frame_index in range(procedure.num_frames):
        packed = pack_patterns(model, [
            frame_source_assignment(simulator, pattern, frame_index)
            for pattern in batch
        ])
        if previous is not None:
            pulse = procedure.pulses[frame_index - 1]
            full = packed.full_mask
            for element in model.state_elements:
                q = element.q_node
                domain = domain_map.domain_of(element.name)
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
        simulator.scheduler.simulate_good(packed)
        frames.append(packed)
        previous = packed
    return frames


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
            frames = reference_frames(
                simulator, [patterns[i] for i in chunk], procedure
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
