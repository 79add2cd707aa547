"""Kernel compiler: lower a :class:`CircuitModel` into flat execution tapes.

The interpreted simulators (:mod:`repro.simulation.parallel_sim`,
:mod:`repro.fault_sim.stuck_at`) pay three per-call costs on the hot path:

* gate-type dispatch through an ``if``-ladder for every gate evaluation,
* a fresh depth-first ``transitive_fanout`` walk (plus sort) for every
  injected fault, and
* attribute/dict walks over :class:`~repro.simulation.model.Node` records.

:func:`compile_circuit` pays all three once.  The result is a
:class:`CompiledCircuit` holding

* a **simulation tape** — one specialized closure per constant/gate node, in
  topological order, each writing its dual-rail planes straight into the
  batch arrays (common 1-2 input gates are arity-specialized so the inner
  loop does no list building at all);
* per-node **plane evaluators** — ``fn(in0, in1) -> (out0, out1)`` closures
  used for fault injection and cone propagation;
* cached **fanout cones** — for every fault site the level-ordered list of
  ``(index, fanin, evaluator)`` triples its effect can reach, computed once
  and reused by every pattern batch.

Faulty-machine propagation uses version-stamped scratch planes instead of
per-fault dictionaries: planes whose stamp is stale transparently fall back
to the good machine, so injecting the next fault costs one integer increment
instead of clearing state.  The propagation order, event condition and
detection arithmetic replicate the interpreted reference bit for bit — the
equivalence suite (``tests/test_engine_equivalence.py``) holds the compiled
kernels to *identical* detection masks.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path
from typing import Callable, Sequence

from repro.faults.models import StuckAtFault, TransitionFault
from repro.netlist.gates import GateType
from repro.obs.telemetry import active_metrics
from repro.simulation.model import CircuitModel, NodeKind
from repro.simulation.parallel_sim import PackedPatterns



def _source_digest() -> str:
    """sha256 over the sorted relative paths and bytes of every ``repro/*.py``,
    truncated to 16 hex digits."""
    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


#: Digest of the library's own sources, computed once at import; part of
#: every persistent cache key, so a result cached by different code is never
#: served.
ENGINE_VERSION = _source_digest()

#: ``fn(in0, in1) -> (out0, out1)`` over dual-rail planes, pin order as in
#: ``Node.fanin``.
PlaneEvaluator = Callable[[Sequence[int], Sequence[int]], tuple[int, int]]


def _plane_evaluator(gtype: GateType, arity: int) -> PlaneEvaluator:
    """Build a gate-type (and arity) specialized plane evaluator."""
    if gtype is GateType.BUF:
        return lambda in0, in1: (in0[0], in1[0])
    if gtype is GateType.NOT:
        return lambda in0, in1: (in1[0], in0[0])
    if gtype in (GateType.AND, GateType.NAND):
        invert = gtype is GateType.NAND
        if arity == 2:
            if invert:
                return lambda in0, in1: (in1[0] & in1[1], in0[0] | in0[1])
            return lambda in0, in1: (in0[0] | in0[1], in1[0] & in1[1])

        def eval_and(in0: Sequence[int], in1: Sequence[int]) -> tuple[int, int]:
            out0, out1 = in0[0], in1[0]
            for a0, a1 in zip(in0[1:], in1[1:]):
                out0 |= a0
                out1 &= a1
            return (out1, out0) if invert else (out0, out1)

        return eval_and
    if gtype in (GateType.OR, GateType.NOR):
        invert = gtype is GateType.NOR
        if arity == 2:
            if invert:
                return lambda in0, in1: (in1[0] | in1[1], in0[0] & in0[1])
            return lambda in0, in1: (in0[0] & in0[1], in1[0] | in1[1])

        def eval_or(in0: Sequence[int], in1: Sequence[int]) -> tuple[int, int]:
            out0, out1 = in0[0], in1[0]
            for a0, a1 in zip(in0[1:], in1[1:]):
                out0 &= a0
                out1 |= a1
            return (out1, out0) if invert else (out0, out1)

        return eval_or
    if gtype in (GateType.XOR, GateType.XNOR):
        invert = gtype is GateType.XNOR

        def eval_xor(in0: Sequence[int], in1: Sequence[int]) -> tuple[int, int]:
            out0, out1 = in0[0], in1[0]
            for b0, b1 in zip(in0[1:], in1[1:]):
                out0, out1 = (out0 & b0) | (out1 & b1), (out0 & b1) | (out1 & b0)
            return (out1, out0) if invert else (out0, out1)

        return eval_xor
    if gtype is GateType.MUX2:
        return lambda in0, in1: (
            (in0[0] & in0[1]) | (in1[0] & in0[2]),
            (in0[0] & in1[1]) | (in1[0] & in1[2]),
        )
    raise ValueError(f"unsupported compiled gate type {gtype!r}")


#: One simulation-tape instruction: writes a node's planes into the batch
#: arrays in place.  ``op(can0, can1, full_mask)``.
TapeOp = Callable[[list[int], list[int], int], None]


def _tape_op(
    kind: NodeKind, index: int, fanin: tuple[int, ...], evaluator: PlaneEvaluator | None
) -> TapeOp:
    """Build one instruction of the good-machine simulation tape."""
    if kind is NodeKind.CONST0:
        def const0(can0: list[int], can1: list[int], full: int) -> None:
            can0[index] = full
            can1[index] = 0

        return const0
    if kind is NodeKind.CONST1:
        def const1(can0: list[int], can1: list[int], full: int) -> None:
            can0[index] = 0
            can1[index] = full

        return const1
    assert evaluator is not None
    if len(fanin) == 1:
        src = fanin[0]

        def unary(can0: list[int], can1: list[int], full: int) -> None:
            out0, out1 = evaluator((can0[src],), (can1[src],))
            can0[index] = out0
            can1[index] = out1

        return unary
    if len(fanin) == 2:
        a, b = fanin

        def binary(can0: list[int], can1: list[int], full: int) -> None:
            out0, out1 = evaluator((can0[a], can0[b]), (can1[a], can1[b]))
            can0[index] = out0
            can1[index] = out1

        return binary

    def nary(can0: list[int], can1: list[int], full: int) -> None:
        out0, out1 = evaluator([can0[i] for i in fanin], [can1[i] for i in fanin])
        can0[index] = out0
        can1[index] = out1

    return nary


class _Scratch:
    """Per-thread versioned faulty-machine planes."""

    __slots__ = ("f0", "f1", "stamp", "version")

    def __init__(self, num_nodes: int) -> None:
        self.f0 = [0] * num_nodes
        self.f1 = [0] * num_nodes
        self.stamp = [0] * num_nodes
        self.version = 0


class CompiledCircuit:
    """A :class:`CircuitModel` lowered into flat execution tapes.

    Thread-safe: faulty-machine scratch planes are thread-local, so shard
    workers of the :mod:`~repro.engine.scheduler` thread backend can share
    one instance.
    """

    def __init__(self, model: CircuitModel) -> None:
        self.model = model
        self.num_nodes = model.num_nodes
        #: Per-node plane evaluator (gate nodes only, else ``None``).
        self._evaluators: list[PlaneEvaluator | None] = [None] * self.num_nodes
        #: Per-node fanin tuples (flat copy, no Node attribute walks).
        self._fanin: list[tuple[int, ...]] = [()] * self.num_nodes
        tape: list[TapeOp] = []
        for node in model.nodes:
            self._fanin[node.index] = node.fanin
            if node.kind is NodeKind.GATE:
                assert node.gtype is not None
                evaluator = _plane_evaluator(node.gtype, len(node.fanin))
                self._evaluators[node.index] = evaluator
                tape.append(_tape_op(node.kind, node.index, node.fanin, evaluator))
            elif node.kind in (NodeKind.CONST0, NodeKind.CONST1):
                tape.append(_tape_op(node.kind, node.index, (), None))
        self._tape: tuple[TapeOp, ...] = tuple(tape)
        #: Fault-site cone cache: start node -> ((index, fanin, evaluator), ...).
        self._cones: dict[int, tuple[tuple[int, tuple[int, ...], PlaneEvaluator], ...]] = {}
        #: Reachability cache: start node -> frozenset of every reachable node.
        self._cone_sets: dict[int, frozenset[int]] = {}
        self._tls = threading.local()

    # ------------------------------------------------------------ good machine
    def simulate(self, packed: PackedPatterns) -> PackedPatterns:
        """Evaluate all gate/constant planes in place (compiled counterpart of
        :func:`repro.simulation.parallel_sim.simulate_packed`)."""
        metrics = active_metrics()
        if metrics is not None:
            # Per tape pass, never per gate: one counter touch per simulate()
            # call keeps the enabled overhead off the kernel's inner loop.
            metrics.inc("engine.tape_passes")
            metrics.inc("engine.gate_evaluations", len(self._tape))
        can0, can1, full = packed.can0, packed.can1, packed.full_mask
        for op in self._tape:
            op(can0, can1, full)
        return packed

    # ------------------------------------------------------------------- cones
    def cone(self, start: int) -> tuple[tuple[int, tuple[int, ...], PlaneEvaluator], ...]:
        """The compiled fanout cone of a node: level-ordered gate triples."""
        cached = self._cones.get(start)
        if cached is None:
            order = self.model.transitive_fanout(start)
            cached = tuple(
                (idx, self._fanin[idx], self._evaluators[idx])
                for idx in order
                if self._evaluators[idx] is not None
            )
            self._cones[start] = cached
        return cached

    def cone_indices(self, start: int) -> frozenset[int]:
        """Every node reachable from ``start`` (cached reachability set).

        The diagnosis candidate extractor uses this for O(1) "can this site
        reach that failing observation point?" queries during cone
        intersection.
        """
        cached = self._cone_sets.get(start)
        if cached is None:
            cached = frozenset(self.model.transitive_fanout(start))
            self._cone_sets[start] = cached
        return cached

    def _scratch(self) -> _Scratch:
        scratch = getattr(self._tls, "scratch", None)
        if scratch is None:
            scratch = _Scratch(self.num_nodes)
            self._tls.scratch = scratch
        return scratch

    # ------------------------------------------------------------- fault paths
    def _inject_and_propagate(
        self, good: PackedPatterns, fault: StuckAtFault
    ) -> _Scratch:
        """Inject one stuck-at fault and propagate it through its cone.

        Returns the thread-local scratch planes; nodes whose stamp equals the
        scratch's current version carry faulty values, all others read from
        the good machine.
        """
        site = fault.site
        full = good.full_mask
        stuck0 = full if fault.value == 0 else 0
        stuck1 = full if fault.value == 1 else 0
        can0, can1 = good.can0, good.can1

        scratch = self._scratch()
        f0, f1, stamp = scratch.f0, scratch.f1, scratch.stamp
        scratch.version += 1
        version = scratch.version

        start = site.node
        if site.pin is None:
            f0[start] = stuck0
            f1[start] = stuck1
        else:
            fanin = self._fanin[start]
            in0 = [can0[i] for i in fanin]
            in1 = [can1[i] for i in fanin]
            in0[site.pin] = stuck0
            in1[site.pin] = stuck1
            evaluator = self._evaluators[start]
            assert evaluator is not None, "pin faults sit on gate nodes"
            f0[start], f1[start] = evaluator(in0, in1)
        stamp[start] = version

        for idx, fanin, evaluator in self.cone(start):
            touched = False
            in0 = []
            in1 = []
            for i in fanin:
                if stamp[i] == version:
                    touched = True
                    in0.append(f0[i])
                    in1.append(f1[i])
                else:
                    in0.append(can0[i])
                    in1.append(can1[i])
            if not touched:
                continue
            out0, out1 = evaluator(in0, in1)
            if out0 == can0[idx] and out1 == can1[idx]:
                continue
            f0[idx] = out0
            f1[idx] = out1
            stamp[idx] = version
        return scratch

    def propagate_stuck_at(
        self, good: PackedPatterns, fault: StuckAtFault, observation: Sequence[int]
    ) -> int:
        """Detection mask of one stuck-at fault (compiled counterpart of
        :func:`repro.fault_sim.stuck_at.propagate_fault_packed`)."""
        scratch = self._inject_and_propagate(good, fault)
        f0, f1, stamp, version = scratch.f0, scratch.f1, scratch.stamp, scratch.version
        can0, can1 = good.can0, good.can1
        detect = 0
        for obs in observation:
            if stamp[obs] != version:
                continue
            g0, g1 = can0[obs], can1[obs]
            o0, o1 = f0[obs], f1[obs]
            detect |= (g0 ^ g1) & (o0 ^ o1) & ((g1 & o0) | (g0 & o1))
        return detect

    def syndrome_stuck_at(
        self, good: PackedPatterns, fault: StuckAtFault, observation: Sequence[int]
    ) -> list[int]:
        """Per-observation-node detection masks of one stuck-at fault.

        Same injection, propagation and detection arithmetic as
        :meth:`propagate_stuck_at`, but the per-node masks are returned
        unmerged (aligned with ``observation``) — the *syndrome* the
        diagnosis engine matches against tester fail logs.  OR-ing the
        returned masks reproduces :meth:`propagate_stuck_at` exactly.
        """
        scratch = self._inject_and_propagate(good, fault)
        f0, f1, stamp, version = scratch.f0, scratch.f1, scratch.stamp, scratch.version
        can0, can1 = good.can0, good.can1
        masks: list[int] = []
        for obs in observation:
            if stamp[obs] != version:
                masks.append(0)
                continue
            g0, g1 = can0[obs], can1[obs]
            o0, o1 = f0[obs], f1[obs]
            masks.append((g0 ^ g1) & (o0 ^ o1) & ((g1 & o0) | (g0 & o1)))
        return masks

    def _transition_gate_mask(
        self, launch: PackedPatterns, final: PackedPatterns, fault: TransitionFault
    ) -> int:
        """Launch/settle gating mask of one broadside transition fault."""
        site = fault.site
        site_node = site.node if site.pin is None else self._fanin[site.node][site.pin]

        initial = fault.kind.initial_value
        known = launch.can0[site_node] ^ launch.can1[site_node]
        launch_ok = known & (
            launch.can1[site_node] if initial.to_int() else launch.can0[site_node]
        )
        if not launch_ok:
            return 0
        known = final.can0[site_node] ^ final.can1[site_node]
        settle_ok = known & (
            final.can1[site_node] if fault.kind.final_value.to_int() else final.can0[site_node]
        )
        return launch_ok & settle_ok

    def detect_transition(
        self,
        launch: PackedPatterns,
        final: PackedPatterns,
        fault: TransitionFault,
        observation: Sequence[int],
    ) -> int:
        """Detection mask of one broadside transition fault.

        Same gating as the interpreted
        :meth:`repro.fault_sim.transition.TransitionFaultSimulator._detect_fault`:
        the site must hold the initial value in the launch frame and reach the
        final value in the capture frame, then the one-cycle stuck-at
        equivalent must propagate to an observation point.
        """
        gate = self._transition_gate_mask(launch, final, fault)
        if not gate:
            return 0
        detect = self.propagate_stuck_at(final, fault.capture_frame_stuck_at, observation)
        return gate & detect

    def syndrome_transition(
        self,
        launch: PackedPatterns,
        final: PackedPatterns,
        fault: TransitionFault,
        observation: Sequence[int],
    ) -> list[int]:
        """Per-observation-node detection masks of one transition fault.

        The launch/settle gate of :meth:`detect_transition` is applied to
        every per-node mask, so OR-ing the result reproduces
        :meth:`detect_transition` exactly.
        """
        gate = self._transition_gate_mask(launch, final, fault)
        if not gate:
            return [0] * len(observation)
        masks = self.syndrome_stuck_at(final, fault.capture_frame_stuck_at, observation)
        return [gate & mask for mask in masks]


def compile_circuit(model: CircuitModel) -> CompiledCircuit:
    """Compile a circuit model (memoised on the model instance).

    Models carrying repeated-core hierarchy metadata
    (``model.hierarchy``) are lowered through
    :class:`repro.hier.compile.HierCompiledCircuit`, which builds one kernel
    per unique core type and binds every instance onto it; flat models take
    the reference path above.  Both produce bit-identical detection masks.
    """
    compiled = model.__dict__.get("_engine_compiled")
    if compiled is None or compiled.model is not model:
        if getattr(model, "hierarchy", None) is not None:
            # Local import: repro.hier sits above the engine layer.
            from repro.hier.compile import HierCompiledCircuit

            compiled = HierCompiledCircuit(model)
        else:
            compiled = CompiledCircuit(model)
        model.__dict__["_engine_compiled"] = compiled
    return compiled
