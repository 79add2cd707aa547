"""Fault-simulation scheduling on one of two in-process backends.

The engine separates *what* is computed (the compiled kernels of
:mod:`repro.engine.compile`) from *which semantics* run it:

* ``serial`` — the **interpreted legacy** simulators, kept as the reference
  semantics on purpose so the equivalence suite can hold the compiled
  kernels to identical results;
* ``compiled`` — the compiled kernels (the default everywhere).

A fault batch is graded in one in-process sweep: the stem kernel propagates
once per fanout-free-region stem, so splitting the batch would only sweep
shared stems again.  Multi-core work runs one level up, as separate jobs of
the runtime :class:`~repro.runtime.Executor`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.engine.compile import compile_circuit
from repro.obs.telemetry import get_telemetry
from repro.faults.models import StuckAtFault, TransitionFault
from repro.simulation.model import CircuitModel
from repro.simulation.parallel_sim import PackedPatterns

#: Recognised engine backend names.
BACKENDS = ("serial", "compiled")


def _transition_gate_serial(
    model: CircuitModel,
    fault: TransitionFault,
    launch: PackedPatterns,
    final: PackedPatterns,
) -> int:
    """Interpreted launch/settle gating mask of one transition fault."""
    from repro.simulation.parallel_sim import known_equal_mask

    site = fault.site
    site_node = site.node if site.pin is None else model.nodes[site.node].fanin[site.pin]
    launch_ok = known_equal_mask(launch, site_node, fault.kind.initial_value)
    if not launch_ok:
        return 0
    settle_ok = known_equal_mask(final, site_node, fault.kind.final_value)
    return launch_ok & settle_ok


def _syndrome_serial(
    model: CircuitModel,
    fault: StuckAtFault | TransitionFault,
    final: PackedPatterns,
    observation: Sequence[int],
    launch: PackedPatterns | None,
    lanes: Sequence[int] | None,
) -> list[int]:
    """Interpreted reference per-node syndromes (mirrors ``_detect_serial``)."""
    # Imported lazily: repro.fault_sim imports this module at load time.
    from repro.fault_sim.stuck_at import propagate_fault_nodes

    if isinstance(fault, TransitionFault):
        assert launch is not None, "transition syndromes need launch-frame planes"
        gate = _transition_gate_serial(model, fault, launch, final)
        if not gate:
            return [0] * len(observation)
        masks = propagate_fault_nodes(
            model, final, fault.capture_frame_stuck_at, observation
        )
        masks = [gate & mask for mask in masks]
    else:
        masks = propagate_fault_nodes(model, final, fault, observation)
    if lanes is None:
        return masks
    return [mask & lane for mask, lane in zip(masks, lanes)]


def _detect_serial(
    model: CircuitModel,
    fault: StuckAtFault | TransitionFault,
    final: PackedPatterns,
    observation: Sequence[int],
    launch: PackedPatterns | None,
    lanes: Sequence[int] | None,
) -> int:
    """Interpreted reference detection (the pre-engine code path)."""
    # Imported lazily: repro.fault_sim imports this module at load time.
    from repro.fault_sim.stuck_at import propagate_fault_packed

    if lanes is not None:
        # Each observation position counts on its own lanes only.
        detect = 0
        for mask in _syndrome_serial(model, fault, final, observation, launch, lanes):
            detect |= mask
        return detect
    if isinstance(fault, TransitionFault):
        assert launch is not None, "transition detection needs launch-frame planes"
        gate = _transition_gate_serial(model, fault, launch, final)
        if not gate:
            return 0
        detect = propagate_fault_packed(
            model, final, fault.capture_frame_stuck_at, observation
        )
        return gate & detect
    return propagate_fault_packed(model, final, fault, observation)


class FaultSimScheduler:
    """Runs fault-detection batches for one circuit on a chosen backend.

    Reusing one scheduler across pattern batches reuses the compiled
    circuit; the scheduler holds no other resources.
    """

    def __init__(self, model: CircuitModel, backend: str = "compiled") -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown engine backend {backend!r} (expected one of {BACKENDS})"
            )
        self.model = model
        self.backend_name = backend
        self._compiled = compile_circuit(model) if backend != "serial" else None

    # ------------------------------------------------------------ good machine
    def simulate_good(self, packed: PackedPatterns) -> PackedPatterns:
        """Good-machine evaluation on the scheduler's semantics."""
        if self._compiled is not None:
            return self._compiled.simulate(packed)
        from repro.simulation.parallel_sim import simulate_packed

        return simulate_packed(self.model, packed)

    # --------------------------------------------------------------- detection
    def _run_batch(
        self,
        final: PackedPatterns,
        faults: Sequence[StuckAtFault | TransitionFault],
        observation: Sequence[int],
        launch: PackedPatterns | None,
        lanes: Sequence[int] | None,
        serial_fn: Callable,
        kernel: str,
    ) -> list:
        """Shared backend dispatch of one fault batch.

        One code path for detection masks and per-node syndromes, which is
        what keeps ``syndrome_batch`` bit-consistent with ``detect_batch`` on
        both backends: ``serial`` calls ``serial_fn`` per fault, ``compiled``
        calls the ``kernel``-named
        :class:`~repro.engine.compile.CompiledCircuit` batch method.
        """
        if not faults:
            return []
        telemetry = get_telemetry()
        if telemetry:
            # Plane ops == faults handed to the kernel this round, per backend.
            telemetry.metrics.inc(f"engine.plane_ops.{self.backend_name}", len(faults))
        if self._compiled is None:
            model = self.model
            return [
                serial_fn(model, fault, final, observation, launch, lanes)
                for fault in faults
            ]
        return getattr(self._compiled, kernel)(final, faults, observation, launch, lanes)

    def detect_batch(
        self,
        final: PackedPatterns,
        faults: Sequence[StuckAtFault | TransitionFault],
        observation: Sequence[int],
        launch: PackedPatterns | None = None,
        *,
        lanes: Sequence[int] | None = None,
    ) -> list[int]:
        """Detection masks for one pattern batch, aligned with ``faults``.

        Stuck-at faults are propagated through the ``final`` planes;
        transition faults are additionally gated on the ``launch`` planes.
        ``lanes``, aligned with ``observation``, restricts each position to
        the patterns that observe it (the lane groups of a grading window,
        see :meth:`repro.engine.compile.CompiledCircuit.detect_batch`); by
        default every pattern observes every position.  The caller merges
        masks and drops detected faults between rounds.
        """
        return self._run_batch(
            final, faults, observation, launch, lanes,
            _detect_serial, "detect_batch",
        )

    def syndrome_batch(
        self,
        final: PackedPatterns,
        faults: Sequence[StuckAtFault | TransitionFault],
        observation: Sequence[int],
        launch: PackedPatterns | None = None,
    ) -> list[list[int]]:
        """Per-fault, per-observation-node detection masks for one batch.

        The diagnosis counterpart of :meth:`detect_batch`: every fault's
        entry is aligned with ``observation`` and OR-ing it reproduces the
        ``detect_batch`` mask bit for bit; syndromes are identical across
        backends.
        """
        return self._run_batch(
            final, faults, observation, launch, None,
            _syndrome_serial, "syndrome_batch",
        )
