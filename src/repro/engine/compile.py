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
* cached **fanout cones** — for every swept node the level-ordered list of
  ``(index, fanin, evaluator)`` triples its effect can reach, computed once
  and reused by every pattern batch.

Fault detection is one batch kernel (:meth:`CompiledCircuit.detect_batch`,
:meth:`CompiledCircuit.syndrome_batch`) built on stem-based critical-path
tracing (Abramovici et al., DAC 1983):

* a **fault pass** traces every fault up its fanout-free region to the
  region's *stem* and yields ``flip``, the patterns where the fault turns the
  stem's known good value into its known complement;
* a **stem pass** propagates one masked complement per live stem (the OR of
  its faults' flips) through the stem's cone — once per stem, not once per
  fault (:class:`repro.hier.compile.HierCompiledCircuit` goes further and
  sweeps the stems at one core-template site of every instance at once);
* a fault's detection mask is its ``flip`` AND its stem's detection mask.

Propagation uses version-stamped scratch planes instead of per-sweep
dictionaries: planes whose stamp is stale transparently fall back to the
good machine, so the next sweep costs one integer increment instead of
clearing state.  The equivalence suite (``tests/test_engine_equivalence.py``)
holds the kernel to *identical* detection masks against the interpreted
per-fault reference.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from repro.faults.models import StuckAtFault, TransitionFault, TransitionKind
from repro.netlist.gates import GateType
from repro.obs.telemetry import active_metrics
from repro.simulation.model import CircuitModel, NodeKind, fanout_cone
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

#: What the stem pass keeps per observed node, and what it folds per stem.
_At = TypeVar("_At")
_Row = TypeVar("_Row")


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
        if arity == 2:
            if invert:
                return lambda in0, in1: (
                    (in0[0] & in1[1]) | (in1[0] & in0[1]),
                    (in0[0] & in0[1]) | (in1[0] & in1[1]),
                )
            return lambda in0, in1: (
                (in0[0] & in0[1]) | (in1[0] & in1[1]),
                (in0[0] & in1[1]) | (in1[0] & in0[1]),
            )

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

    Thread-safe: faulty-machine scratch planes are thread-local, so jobs on
    the runtime executor's ``threads`` backend can share one instance.
    """

    def __init__(self, model: CircuitModel) -> None:
        self._bind_model(model)
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
        #: Fanout-free-region links: node -> its one gate consumer, else -1.
        self._ffr_next = _ffr_successors(model)
        self._tls = threading.local()

    def _bind_model(self, model: CircuitModel) -> None:
        # The model memoises this circuit (``_engine_compiled``), so a
        # strong reference back would make every model a reference cycle,
        # kept alive with all its memos until the cycle collector runs.
        # Keep the model weakly and its node and fanout tables, which hold
        # no model, for the cone walks.
        self._model = weakref.ref(model)
        self._nodes = model.nodes
        self._fanout = model.fanout
        self.num_nodes = model.num_nodes

    @property
    def model(self) -> "CircuitModel | None":
        """The model this circuit was compiled from (``None`` once it is gone)."""
        return self._model()

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
            order = fanout_cone(self._nodes, self._fanout, start)
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
            cached = frozenset(fanout_cone(self._nodes, self._fanout, start))
            self._cone_sets[start] = cached
        return cached

    def _scratch(self) -> _Scratch:
        scratch = getattr(self._tls, "scratch", None)
        if scratch is None:
            scratch = _Scratch(self.num_nodes)
            self._tls.scratch = scratch
        return scratch

    # ------------------------------------------------------------- fault paths
    def _fault_pass(
        self,
        final: PackedPatterns,
        faults: Sequence[StuckAtFault | TransitionFault],
        observed: dict[int, object],
        launch: PackedPatterns | None,
    ) -> tuple[list[int], list[int], dict[int, int]]:
        """Fault pass: every fault's stem and flip, plus the live stems.

        A fault is gated on launch and settle (transition faults only),
        excited where its site's good value is the known complement of the
        stuck value, and traced up its fanout-free region to the stem — the
        first node without exactly one distinct gate consumer, or an
        observed one.  ``flip`` holds the patterns where the fault turns the
        stem's known good value into its known complement; a fault with no
        effect at all gets stem ``-1`` and flip ``0``.  The returned lists
        are aligned with ``faults``; the dict maps every live stem to the OR
        of its faults' flips, the input of the stem pass.

        Inside a region only one path leaves the site, so the trace is
        memoised per node (and per faulty pin): the patterns where
        complementing that node complements the stem.  Every memo is a
        list indexed by node (the pin memo holds one small list per node,
        indexed by pin), never a dict of tuples.  Where a node on the
        path goes unknown instead, monotonicity rules out a known, differing
        value anywhere downstream, so those patterns are rightly dropped.
        """
        can0, can1 = final.can0, final.can1
        full = final.full_mask
        fanin_of = self._fanin
        # Launch/settle gates per ``2 * net + rising``; -1 until computed.
        gates = [-1] * (2 * self.num_nodes)
        pins: list[list[int] | None] = [None] * self.num_nodes
        # Region trace per node: its stem (-1 until traced) and the patterns
        # where complementing the node complements that stem.
        reach_stem = [-1] * self.num_nodes
        reach_mask = [0] * self.num_nodes
        stems: list[int] = []
        flips: list[int] = []
        live: dict[int, int] = {}
        for fault in faults:
            site = fault.site
            node, pin = site.node, site.pin
            net = node if pin is None else fanin_of[node][pin]
            if isinstance(fault, TransitionFault):
                assert launch is not None, "transition faults need launch-frame planes"
                rising = fault.kind is TransitionKind.SLOW_TO_RISE
                key = 2 * net + rising
                gate = gates[key]
                if gate < 0:
                    gate = gates[key] = _transition_gate(launch, final, net, rising)
                # A slow-to-rise site behaves as stuck-at-0 for one cycle.
                stuck = 0 if rising else 1
            else:
                gate = full
                stuck = fault.value
            g0, g1 = can0[net], can1[net]
            flip = gate & (g0 ^ g1) & (g1 if stuck == 0 else g0)
            if flip and pin is not None:
                memo = pins[node]
                if memo is None:
                    memo = pins[node] = [-1] * len(fanin_of[node])
                sensitive = memo[pin]
                if sensitive < 0:
                    sensitive = memo[pin] = self._complement_sensitivity(
                        can0, can1, node, (pin,)
                    )
                flip &= sensitive
            if flip:
                stem = reach_stem[node]
                if stem < 0:
                    stem = self._trace_region(
                        can0, can1, node, observed, reach_stem, reach_mask
                    )
                flip &= reach_mask[node]
            if flip:
                live[stem] = live.get(stem, 0) | flip
            else:
                stem = -1
            stems.append(stem)
            flips.append(flip)
        metrics = active_metrics()
        if metrics is not None:
            metrics.inc("engine.stem_sweeps", len(live))
        return stems, flips, live

    def _trace_region(
        self,
        can0: list[int],
        can1: list[int],
        node: int,
        observed: dict[int, object],
        stems: list[int],
        masks: list[int],
    ) -> int:
        """The stem of ``node``'s region.  Fills ``stems`` (the stem) and
        ``masks`` (the patterns where complementing the node complements
        the stem) for every node on the way."""
        successor, fanin_of = self._ffr_next, self._fanin
        path: list[int] = []
        while stems[node] < 0:
            nxt = successor[node]
            if nxt < 0 or node in observed:
                stems[node] = node
                masks[node] = can0[node] ^ can1[node]
                break
            path.append(node)
            node = nxt
        stem, sensitive = stems[node], masks[node]
        for node in reversed(path):
            if sensitive:
                nxt = successor[node]
                sensitive &= self._complement_sensitivity(
                    can0, can1, nxt,
                    [pin for pin, src in enumerate(fanin_of[nxt]) if src == node],
                )
            stems[node] = stem
            masks[node] = sensitive
        return stem

    def _complement_sensitivity(
        self, can0: list[int], can1: list[int], node: int, pins: Sequence[int]
    ) -> int:
        """Patterns where complementing the known values on ``pins`` turns
        gate ``node``'s known good output into its known complement."""
        fanin = self._fanin[node]
        in0 = [can0[i] for i in fanin]
        in1 = [can1[i] for i in fanin]
        for pin in pins:
            known = in0[pin] ^ in1[pin]
            in0[pin] ^= known
            in1[pin] ^= known
        evaluator = self._evaluators[node]
        assert evaluator is not None, "pin faults sit on gate nodes"
        o0, o1 = evaluator(in0, in1)
        return _known_complement(can0[node], can1[node], o0, o1)

    def _stem_pass(
        self,
        final: PackedPatterns,
        faults: Sequence[StuckAtFault | TransitionFault],
        observed: dict[int, _At],
        launch: PackedPatterns | None,
        fold: Callable[[_Row, _At, int], _Row],
        start: Callable[[], _Row],
    ) -> tuple[list[int], list[int], dict[int, _Row]]:
        """Fault pass, then the sweeps of the live stems.

        Each live stem is forced to its known complement on the OR of its
        faults' flips.  Its row starts as ``start()`` and is folded with
        ``fold(row, observed[node], found)`` for every observed node where
        the sweep gives a known, differing value (``found``).  Only the
        nodes the sweep touched are looked up, never the whole observation
        list.  Returns the fault pass's stems and flips with the rows.
        """
        stems, flips, live = self._fault_pass(final, faults, observed, launch)
        rows: dict[int, _Row] = {stem: start() for stem in live}
        sweeps = self._sweep_stems(final, live, observed, fold, rows)
        metrics = active_metrics()
        if metrics is not None:
            metrics.inc("engine.cone_sweeps", sweeps)
        return stems, flips, rows

    def _sweep_stems(
        self,
        final: PackedPatterns,
        live: dict[int, int],
        observed: dict[int, _At],
        fold: Callable[[_Row, _At, int], _Row],
        rows: dict[int, _Row],
    ) -> int:
        """Fold every live stem's detections into ``rows``, one sweep per
        stem; returns the number of cone sweeps run."""
        scratch = self._scratch()
        for stem, mask in live.items():
            self._sweep_flat(final, stem, mask, observed, fold, rows, scratch)
        return len(live)

    def _sweep_flat(
        self,
        final: PackedPatterns,
        stem: int,
        mask: int,
        observed: dict[int, _At],
        fold: Callable[[_Row, _At, int], _Row],
        rows: dict[int, _Row],
        scratch: _Scratch,
    ) -> None:
        """Sweep one stem through its flat cone and fold its row."""
        can0, can1 = final.can0, final.can1
        touched = _propagate(
            can0, can1, self.cone(stem), scratch,
            stem, can0[stem] ^ mask, can1[stem] ^ mask,
        )
        f0, f1 = scratch.f0, scratch.f1
        row = rows[stem]
        for idx in touched:
            at = observed.get(idx)
            if at is not None:
                found = _known_complement(can0[idx], can1[idx], f0[idx], f1[idx])
                if found:
                    row = fold(row, at, found)
        rows[stem] = row

    def detect_batch(
        self,
        final: PackedPatterns,
        faults: Sequence[StuckAtFault | TransitionFault],
        observation: Sequence[int],
        launch: PackedPatterns | None = None,
        lanes: Sequence[int] | None = None,
    ) -> list[int]:
        """Detection masks of a fault batch, aligned with ``faults``.

        Stuck-at faults propagate through the ``final`` planes; transition
        faults must also hold the initial value in ``launch`` and reach the
        final value in ``final`` (the broadside launch/settle gate), then
        their one-cycle stuck-at equivalent must reach an observation point.

        One sweep per live fanout-free-region stem, not one per fault: the
        stem is forced to its known complement on the OR of its faults'
        flips and its detection mask ``D`` is shared, so a fault's mask is
        ``flip & D``.  That is exact because every plane operation is
        bitwise and the dual-rail evaluators are monotone: per pattern, a
        fault that flips the stem leaves the rest of the circuit exactly as
        the stem sweep does, and one that leaves the stem unknown (or finds
        it unknown) cannot produce a known, differing observation.

        ``lanes``, aligned with ``observation``, gives each position the
        patterns (lanes) that observe it; by default every pattern does.
        A batch can so pack lane groups that observe different nodes (the
        capture procedures of a grading window), and a found mask counts
        only on its node's lanes.  A node any group observes also ends a
        fanout-free region for every group; that only moves the cut inside
        the region, so a group that does not observe the node still sees
        the fault through the sweep from there, lane for lane.
        """
        full = final.full_mask
        observed: dict[int, int] = {}
        for position, node in enumerate(observation):
            observed[node] = observed.get(node, 0) | (
                full if lanes is None else lanes[position]
            )
        stems, flips, detect = self._stem_pass(
            final, faults, observed, launch, _fold_mask, int
        )
        return [flip and flip & detect[stem] for stem, flip in zip(stems, flips)]

    def syndrome_batch(
        self,
        final: PackedPatterns,
        faults: Sequence[StuckAtFault | TransitionFault],
        observation: Sequence[int],
        launch: PackedPatterns | None = None,
        lanes: Sequence[int] | None = None,
    ) -> list[list[int]]:
        """Per-fault, per-observation-node detection masks of a fault batch.

        Same kernel as :meth:`detect_batch`, but each fault's masks stay per
        observation node, aligned with ``observation`` — the *syndrome* the
        diagnosis engine matches against tester fail logs.  OR-ing a fault's
        row reproduces its :meth:`detect_batch` mask.
        """
        full = final.full_mask
        observed: dict[int, list[tuple[int, int]]] = {}
        for position, node in enumerate(observation):
            observed.setdefault(node, []).append(
                (position, full if lanes is None else lanes[position])
            )
        stems, flips, rows = self._stem_pass(
            final, faults, observed, launch, _fold_positions, list
        )
        width = len(observation)
        syndromes: list[list[int]] = []
        for stem, flip in zip(stems, flips):
            masks = [0] * width
            if flip:
                for position, found in rows[stem]:
                    masks[position] = flip & found
            syndromes.append(masks)
        return syndromes


def _propagate(
    can0: Sequence[int],
    can1: Sequence[int],
    steps: Iterable[tuple[int, Sequence[int], PlaneEvaluator]],
    scratch: _Scratch,
    start: int,
    x0: int,
    x1: int,
) -> list[int]:
    """Force ``start`` to the planes ``(x0, x1)`` and propagate the effect
    through ``steps``, the ``(index, fanin, evaluator)`` triples of its cone
    in topological order, over the good planes ``can0``/``can1``.

    Returns the nodes the sweep changed, ``start`` first.  Nodes whose
    stamp equals the scratch's current version carry faulty values in
    ``scratch.f0``/``scratch.f1``; all others read from the good planes.  A
    step runs only when a fanin is stamped, and stamps its output only
    where it differs from the good value, so a sweep stops where the
    effect dies out.  Every operation is bitwise per lane, so the sweep
    serves any plane width.
    """
    f0, f1, stamp = scratch.f0, scratch.f1, scratch.stamp
    scratch.version += 1
    version = scratch.version
    f0[start] = x0
    f1[start] = x1
    stamp[start] = version
    touched = [start]
    for idx, fanin, evaluator in steps:
        for i in fanin:
            if stamp[i] == version:
                break
        else:
            continue
        in0 = [f0[i] if stamp[i] == version else can0[i] for i in fanin]
        in1 = [f1[i] if stamp[i] == version else can1[i] for i in fanin]
        out0, out1 = evaluator(in0, in1)
        if out0 == can0[idx] and out1 == can1[idx]:
            continue
        f0[idx] = out0
        f1[idx] = out1
        stamp[idx] = version
        touched.append(idx)
    return touched


def _known_complement(g0: int, g1: int, o0: int, o1: int) -> int:
    """Patterns where the planes ``(o0, o1)`` hold the known complement of
    the known good value ``(g0, g1)``."""
    return (g0 ^ g1) & (o0 ^ o1) & ((g1 & o0) | (g0 & o1))


def _fold_mask(row: int, lanes: int, found: int) -> int:
    """``detect_batch``'s fold: OR a stem's detection into one mask."""
    return row | (lanes & found)


def _fold_positions(
    row: list[tuple[int, int]], at: list[tuple[int, int]], found: int
) -> list[tuple[int, int]]:
    """``syndrome_batch``'s fold: list ``(position, mask)`` per hit."""
    row.extend((position, lanes & found) for position, lanes in at)
    return row


def _transition_gate(
    launch: PackedPatterns, final: PackedPatterns, site_node: int, rising: bool
) -> int:
    """Launch/settle gating mask: the site holds the transition's initial
    value in the launch frame and its final value in the capture frame."""
    launch0, launch1 = launch.can0[site_node], launch.can1[site_node]
    launch_ok = (launch0 ^ launch1) & (launch0 if rising else launch1)
    if not launch_ok:
        return 0
    final0, final1 = final.can0[site_node], final.can1[site_node]
    return launch_ok & (final0 ^ final1) & (final1 if rising else final0)


def _ffr_successors(model: CircuitModel) -> list[int]:
    """Per node, its one distinct gate consumer, else ``-1`` (a stem).

    Fanout-free regions chain through these links; a gate that reads one
    net on several pins is still a single consumer.
    """
    successor = [-1] * model.num_nodes
    for index, targets in enumerate(model.fanout):
        # Only gates have fanin, so every fanout target is a gate.
        consumers = set(targets)
        if len(consumers) == 1:
            successor[index] = consumers.pop()
    return successor


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
