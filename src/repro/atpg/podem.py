"""PODEM — path-oriented decision making test generation.

The generator operates on any :class:`~repro.simulation.model.CircuitModel`
(single frame for stuck-at, time-frame expanded for transition faults) under
a *test view*: the set of controllable input nodes, constrained/fixed nodes,
and observation points.  On top of the classic algorithm two extensions carry
the delay-test semantics of the paper:

* *required objectives* — additional (node, value) goals that must hold in the
  good machine; the transition ATPG passes the launch-frame initial value of
  the fault site here;
* *forced-unknown sources* — nodes fixed to X (non-scan state, RAM outputs)
  that can never be assigned, exactly like a commercial tool treats
  uninitialized sequential elements under a restricted clocking scheme.

Values are tracked as separate good/faulty 3-valued integers (0, 1, 2=X) for
speed; the public result converts back to :class:`~repro.logic.Logic`.

Implication is event-driven.  :class:`PodemTables` lowers the model once
into per-node tables: fanin tuples and, per gate, a truth-table lookup
specialized to its type and fanin (the idiom of :mod:`repro.engine.compile`).
A :class:`PodemEngine` holds only the state of one search over such tables,
so one design's tables (and their memo of verdicts) serve every ATPG run on
it (:mod:`repro.atpg.artefacts`).
A decision re-evaluates only nodes with a changed fanin, in index
(topological) order off a heap and each at most once, and stops where a
value does not change.  It records the (node, old good, old faulty) triples
it overwrote on an undo trail; the search undoes decisions in LIFO order, so
an undo restores its trail entry without simulating anything.  The earlier
form, which re-simulated the input's whole sorted fanout cone on every
decision and every undo, lives on only as the exactness oracle in
``tests/test_podem.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from heapq import heappop, heappush
from itertools import product
from typing import Callable, Mapping, Sequence

from repro.atpg.scoap import TestabilityMeasures, compute_testability
from repro.faults.models import StuckAtFault
from repro.netlist.gates import GateType, evaluate_gate
from repro.logic import Logic
from repro.obs.telemetry import active_metrics
from repro.simulation.model import CircuitModel, NodeKind

_X = 2


def _logic_to_int(value: Logic) -> int:
    if value is Logic.ZERO:
        return 0
    if value is Logic.ONE:
        return 1
    return _X


def _int_to_logic(value: int) -> Logic:
    return (Logic.ZERO, Logic.ONE, Logic.X)[value]


def _truth_table(gtype: GateType, arity: int) -> tuple[int, ...]:
    """3-valued truth table of one gate over integers 0/1/2(X), indexed by the
    base-3 digits of its inputs (first pin most significant)."""
    return tuple(
        _logic_to_int(evaluate_gate(gtype, [_int_to_logic(v) for v in digits]))
        for digits in product(range(3), repeat=arity)
    )


#: Every legal gate of up to three inputs, tabulated once.
_TRUTH_TABLES = {
    (gtype, arity): _truth_table(gtype, arity)
    for gtype in GateType
    for arity in range(4)
    if gtype.min_inputs <= arity
    and (gtype.max_inputs is None or arity <= gtype.max_inputs)
}

#: Wide (4+ input) gates fold pairwise through their non-inverting two-input
#: table — 3-valued AND, OR and XOR are associative — then map the output.
_WIDE_FOLD = {
    GateType.AND: (GateType.AND, (0, 1, _X)),
    GateType.NAND: (GateType.AND, (1, 0, _X)),
    GateType.OR: (GateType.OR, (0, 1, _X)),
    GateType.NOR: (GateType.OR, (1, 0, _X)),
    GateType.XOR: (GateType.XOR, (0, 1, _X)),
    GateType.XNOR: (GateType.XOR, (1, 0, _X)),
}

#: ``fn(values) -> value`` of one node, reading its fanin out of ``values``.
NodeEvaluator = Callable[[Sequence[int]], int]


def _gate_evaluator(gtype: GateType, fanin: Sequence[int]) -> NodeEvaluator:
    """A truth-table lookup specialized to one gate's type and fanin."""
    arity = len(fanin)
    if arity > 3:
        base, output = _WIDE_FOLD[gtype]
        pair = _TRUTH_TABLES[(base, 2)]
        first, rest = fanin[0], tuple(fanin[1:])

        def wide(values: Sequence[int]) -> int:
            acc = values[first]
            for i in rest:
                acc = pair[acc * 3 + values[i]]
            return output[acc]

        return wide
    table = _TRUTH_TABLES[(gtype, arity)]
    if arity == 3:
        a, b, c = fanin
        return lambda values: table[(values[a] * 3 + values[b]) * 3 + values[c]]
    if arity == 2:
        a, b = fanin
        return lambda values: table[values[a] * 3 + values[b]]
    if arity == 1:
        (a,) = fanin
        return lambda values: table[values[a]]
    return _constant(table[0])


def _constant(value: int) -> NodeEvaluator:
    return lambda values: value


class PodemStatus(str, Enum):
    """Outcome of one PODEM run."""

    TEST_FOUND = "test"
    UNTESTABLE = "untestable"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    """Result of targeting one fault."""

    status: PodemStatus
    assignment: dict[int, Logic] = field(default_factory=dict)
    backtracks: int = 0
    decisions: int = 0

    @property
    def found(self) -> bool:
        return self.status is PodemStatus.TEST_FOUND


class PodemTables:
    """The immutable lowering of one circuit model and test view.

    Everything a search reads and never writes: the SCOAP measures, the
    per-node evaluators, the observation reachability, the fault-free
    baseline and the fault-site cone cache.  ``outcomes`` memoises every
    :class:`PodemResult` by ``(fault, required)``: a search is a pure
    function of these tables, ``backtrack_limit``, the fault and the
    required objectives, so a memoised verdict is the one a new search
    would return.  Tables are shared by every engine built
    :meth:`~PodemEngine.over` them, across runs and threads; the cone cache
    and the memo fill idempotently (a race computes one entry twice, with
    equal values), and a memoised result must not be mutated.
    """

    def __init__(
        self,
        model: CircuitModel,
        controllable: set[int],
        fixed: Mapping[int, Logic],
        observation: Sequence[int],
        backtrack_limit: int = 64,
        measures: TestabilityMeasures | None = None,
    ) -> None:
        self.model = model
        self.controllable = set(controllable)
        self.fixed = {idx: _logic_to_int(value) for idx, value in fixed.items()}
        self.observation = list(observation)
        self.backtrack_limit = backtrack_limit
        self.measures = measures or compute_testability(
            model, controllable=self.controllable,
            fixed={k: v for k, v in fixed.items()},
            observation=self.observation,
        )
        self.fanin = [node.fanin for node in model.nodes]
        # One evaluator per node; ``None`` marks a source (PI/PPI/RAM_OUT),
        # whose value is its fixed constraint or decision.
        self.evals: list[NodeEvaluator | None] = []
        for node in model.nodes:
            if node.kind is NodeKind.GATE:
                self.evals.append(_gate_evaluator(node.gtype, node.fanin))
            elif node.kind is NodeKind.CONST0:
                self.evals.append(_constant(0))
            elif node.kind is NodeKind.CONST1:
                self.evals.append(_constant(1))
            else:
                self.evals.append(None)
        self.obs_set = set(self.observation)
        self.obs_reachable = self._compute_obs_reachable()
        # Baseline (no decisions, no fault): every search starts from a copy
        # of this instead of re-evaluating the whole model.
        self.baseline = self._compute_baseline()
        #: Fault-site fanout cones, sorted (index order is topological).
        self.cones: dict[int, list[int]] = {}
        #: ``(fault, required)`` -> the search's :class:`PodemResult`.
        self.outcomes: dict[tuple, PodemResult] = {}

    def _compute_baseline(self) -> list[int]:
        """Fault-free values with no decisions taken (only fixed constraints)."""
        values = [_X] * self.model.num_nodes
        for idx, evaluate in enumerate(self.evals):
            values[idx] = self.fixed.get(idx, _X) if evaluate is None else evaluate(values)
        return values

    def _compute_obs_reachable(self) -> list[bool]:
        fanout = self.model.fanout
        reachable = [False] * self.model.num_nodes
        for idx in self.observation:
            reachable[idx] = True
        for idx in range(self.model.num_nodes - 1, -1, -1):
            if reachable[idx]:
                continue
            reachable[idx] = any(reachable[out] for out in fanout[idx])
        return reachable


class PodemEngine:
    """PODEM search state over one :class:`PodemTables`.

    The constructor lowers the model into fresh tables; :meth:`over` binds
    a new engine to shared ones.  An engine holds the state of one search
    at a time, so each thread (and each ATPG run) uses its own engine.
    """

    def __init__(
        self,
        model: CircuitModel,
        controllable: set[int],
        fixed: Mapping[int, Logic],
        observation: Sequence[int],
        backtrack_limit: int = 64,
        measures: TestabilityMeasures | None = None,
    ) -> None:
        self._bind(PodemTables(
            model, controllable, fixed, observation, backtrack_limit, measures
        ))

    @classmethod
    def over(cls, tables: PodemTables) -> "PodemEngine":
        """A new engine (fresh search state) over shared tables."""
        engine = cls.__new__(cls)
        engine._bind(tables)
        return engine

    def _bind(self, tables: PodemTables) -> None:
        self.tables = tables
        # The tables' fields under the names the search reads.
        self.model = tables.model
        self.controllable = tables.controllable
        self.fixed = tables.fixed
        self.observation = tables.observation
        self.backtrack_limit = tables.backtrack_limit
        self.measures = tables.measures
        self._nodes = tables.model.nodes
        self._num = tables.model.num_nodes
        self._fanin = tables.fanin
        self._fanout = tables.model.fanout
        self._evals = tables.evals
        self._obs_set = tables.obs_set
        self._obs_reachable = tables.obs_reachable
        self._baseline = tables.baseline
        self._cone_cache = tables.cones

        # Per-search state (reset by every search).
        self._good: list[int] = []
        self._faulty: list[int] = []
        self._assignment: dict[int, int] = {}
        # One entry per decision on the stack: the (node, old good, old
        # faulty) triples its implication overwrote.
        self._trail: list[list[tuple[int, int, int]]] = []
        self._fault_node = -1
        self._fault_pin: int | None = None
        self._fault_eval: NodeEvaluator = _constant(_X)
        self._stuck = 0
        self._required: list[tuple[int, int]] = []
        self._fault_cone: list[int] = []
        self._fault_cone_set: set[int] = set()
        self._obs_in_cone: list[int] = []

    # ------------------------------------------------------------------ public
    def target(
        self,
        fault: StuckAtFault,
        required: Sequence[tuple[int, Logic]] = (),
    ) -> PodemResult:
        """:meth:`run` through the tables' outcome memo.

        A verdict already in ``tables.outcomes`` is returned without a
        search; a new one is searched and memoised.  Either way the
        result's backtracks and decisions fold into the ambient metrics
        (``atpg.backtracks``, ``atpg.decisions``), so those counters read
        the same on cold and warm tables.  The result is shared: read it,
        never write it.
        """
        key = (fault, tuple(required))
        outcomes = self.tables.outcomes
        result = outcomes.get(key)
        if result is None:
            result = outcomes[key] = self.run(fault, required)
        metrics = active_metrics()
        if metrics is not None:
            metrics.inc("atpg.backtracks", result.backtracks)
            metrics.inc("atpg.decisions", result.decisions)
        return result

    def run(
        self,
        fault: StuckAtFault,
        required: Sequence[tuple[int, Logic]] = (),
    ) -> PodemResult:
        """Attempt to generate a test for one (expanded-model) stuck-at fault.

        Args:
            fault: Stuck-at fault expressed on *this* engine's model.
            required: Additional good-machine value objectives (node, value)
                that the test must also satisfy (launch conditions).

        Returns:
            A :class:`PodemResult`; when a test is found, ``assignment`` maps
            every controllable node the algorithm assigned to its value.
        """
        self._fault_node = fault.site.node
        self._fault_pin = fault.site.pin
        self._stuck = fault.value
        if self._fault_pin is not None:
            # Evaluates the fault gate over its own fanin values, pin order.
            gtype = self._nodes[self._fault_node].gtype
            arity = len(self._fanin[self._fault_node])
            self._fault_eval = _gate_evaluator(gtype, range(arity))
        self._required = [(node, _logic_to_int(value)) for node, value in required]
        self._assignment = {}
        self._trail = []
        self._good = list(self._baseline)
        self._faulty = list(self._baseline)
        # Fault effects can only live inside the fault node's fanout cone, so
        # frontier scans and observation checks are restricted to it, and
        # outside it the faulty machine equals the good one.
        self._fault_cone = self._cone(self._fault_node)
        self._fault_cone_set = set(self._fault_cone)
        self._obs_in_cone = [idx for idx in self.observation if idx in self._fault_cone_set]
        # Inject the fault into the otherwise fault-free baseline.
        self._imply(self._fault_node)

        # Impossible straight away (e.g. launch node fixed to the wrong value).
        if self._is_conflict():
            return PodemResult(status=PodemStatus.UNTESTABLE)

        backtracks = 0
        decisions = 0
        stack: list[tuple[int, int, bool]] = []

        while True:
            if self._is_success():
                assignment = {idx: _int_to_logic(v) for idx, v in self._assignment.items()}
                return PodemResult(
                    status=PodemStatus.TEST_FOUND,
                    assignment=assignment,
                    backtracks=backtracks,
                    decisions=decisions,
                )
            advance: tuple[int, int] | None = None
            if not self._is_conflict():
                # Try candidate objectives in priority order until one of them
                # can be backtraced to an unassigned input; giving up after the
                # first dead objective would wrongly prune testable faults.
                for objective in self._candidate_objectives():
                    advance = self._backtrace(*objective)
                    if advance is not None:
                        break
            if advance is not None:
                pi, value = advance
                self._assign(pi, value)
                stack.append((pi, value, False))
                decisions += 1
                continue
            # Conflict (or no way to advance): flip the most recent untried decision.
            flipped = False
            while stack:
                pi, value, tried = stack.pop()
                self._unassign(pi)
                if not tried:
                    backtracks += 1
                    if backtracks > self.backtrack_limit:
                        return PodemResult(
                            status=PodemStatus.ABORTED,
                            backtracks=backtracks,
                            decisions=decisions,
                        )
                    self._assign(pi, 1 - value)
                    stack.append((pi, 1 - value, True))
                    flipped = True
                    break
            if not flipped:
                return PodemResult(
                    status=PodemStatus.UNTESTABLE,
                    backtracks=backtracks,
                    decisions=decisions,
                )

    # ------------------------------------------------------------- implication
    def observable(self, node_index: int) -> bool:
        """True when a fault effect at ``node_index`` can structurally reach an
        observation point (cheap pre-screen before running the algorithm)."""
        return self._obs_reachable[node_index]

    def _cone(self, source: int) -> list[int]:
        cone = self._cone_cache.get(source)
        if cone is None:
            cone = [source] + self.model.transitive_fanout(source)
            cone.sort()
            self._cone_cache[source] = cone
        return cone

    def _imply(self, start: int) -> list[tuple[int, int, int]]:
        """Bring the good and faulty machines up to date after ``start``'s
        value may have changed.

        Nodes are evaluated in index (topological) order off a heap, each at
        most once, and a node's fanout is queued only when its good or faulty
        value changed.  Returns the (node, old good, old faulty) triples it
        overwrote.
        """
        good, faulty = self._good, self._faulty
        evals, fanout = self._evals, self._fanout
        fault_node, cone = self._fault_node, self._fault_cone_set
        changed: list[tuple[int, int, int]] = []
        heap = [start]
        queued = {start}
        while heap:
            idx = heappop(heap)
            evaluate = evals[idx]
            if evaluate is None:
                new_good = new_faulty = self.fixed.get(idx, self._assignment.get(idx, _X))
            else:
                new_good = evaluate(good)
                new_faulty = evaluate(faulty) if idx in cone else new_good
            if idx == fault_node:
                new_faulty = self._fault_site_value()
            old_good, old_faulty = good[idx], faulty[idx]
            if new_good == old_good and new_faulty == old_faulty:
                continue
            changed.append((idx, old_good, old_faulty))
            good[idx] = new_good
            faulty[idx] = new_faulty
            for nxt in fanout[idx]:
                if nxt not in queued:
                    queued.add(nxt)
                    heappush(heap, nxt)
        return changed

    def _fault_site_value(self) -> int:
        """Faulty-machine value of the fault node itself."""
        if self._fault_pin is None:
            return self._stuck
        values = [self._faulty[i] for i in self._fanin[self._fault_node]]
        values[self._fault_pin] = self._stuck
        return self._fault_eval(values)

    def _assign(self, pi: int, value: int) -> None:
        self._assignment[pi] = value
        self._trail.append(self._imply(pi))

    def _unassign(self, pi: int) -> None:
        # Decisions are undone in LIFO order, so the top trail entry is pi's.
        self._assignment.pop(pi, None)
        good, faulty = self._good, self._faulty
        for idx, old_good, old_faulty in self._trail.pop():
            good[idx] = old_good
            faulty[idx] = old_faulty

    # ----------------------------------------------------------- status checks
    def _activation_node(self) -> int:
        if self._fault_pin is None:
            return self._fault_node
        return self._fanin[self._fault_node][self._fault_pin]

    def _fault_effect_at(self, idx: int) -> bool:
        """True when the machines disagree on known values (0/1 or 1/0) at
        ``idx``: with X encoded as 2, exactly when good + faulty == 1."""
        return self._good[idx] + self._faulty[idx] == 1

    def _effect_observed(self) -> bool:
        good, faulty = self._good, self._faulty
        return any(good[idx] + faulty[idx] == 1 for idx in self._obs_in_cone)

    def _is_success(self) -> bool:
        for node, value in self._required:
            if self._good[node] != value:
                return False
        return self._effect_observed()

    def _is_conflict(self) -> bool:
        # A required objective already violated can never recover (values only
        # get more specific along one decision branch).
        for node, value in self._required:
            good = self._good[node]
            if good != _X and good != value:
                return True
        activation = self._activation_node()
        good = self._good[activation]
        if good != _X and good == self._stuck:
            return True
        # Fault effect must still be able to reach an observation point.
        if not self._d_frontier_alive():
            return True
        return False

    def _d_frontier(self) -> list[int]:
        """Fault-cone gates with an X output in either machine and a fault
        effect on an input (the faulty pin of a pin fault included)."""
        good, faulty, fanins = self._good, self._faulty, self._fanin
        fault_node = self._fault_node
        pin_effect = self._fault_pin is not None and self._fault_effect_anywhere()
        frontier: list[int] = []
        for idx in self._fault_cone:
            if good[idx] != _X and faulty[idx] != _X:
                continue
            for i in fanins[idx]:
                if good[i] + faulty[i] == 1:  # a fault effect, see _fault_effect_at
                    frontier.append(idx)
                    break
            else:
                if pin_effect and idx == fault_node:
                    frontier.append(idx)
        return frontier

    def _d_frontier_alive(self) -> bool:
        """True while the fault effect is observed or can still be propagated."""
        if self._effect_observed():
            return True
        if not self._fault_effect_anywhere():
            # Fault not activated yet: alive as long as activation is possible
            # and the fault cone reaches an observation point at all.
            activation = self._activation_node()
            if self._good[activation] != _X and self._good[activation] == self._stuck:
                return False
            return self._obs_reachable[self._fault_node]
        # X-path check: some frontier gate must reach an observation point
        # through not-yet-determined values.
        return self._x_path_exists(self._d_frontier())

    def _fault_effect_anywhere(self) -> bool:
        activation = self._activation_node()
        good = self._good[activation]
        return good != _X and good != self._stuck

    def _x_path_exists(self, starts: Sequence[int]) -> bool:
        """True when some start reaches an observation point through nodes
        where the two machines do not agree on a known value."""
        good, faulty, fanout = self._good, self._faulty, self._fanout
        reachable, observed = self._obs_reachable, self._obs_set
        seen: set[int] = set()
        stack = list(starts)
        while stack:
            idx = stack.pop()
            if idx in seen:
                continue
            seen.add(idx)
            if not reachable[idx]:
                continue
            if idx in observed:
                return True
            for nxt in fanout[idx]:
                if good[nxt] == _X or faulty[nxt] != good[nxt]:
                    stack.append(nxt)
        return False

    # -------------------------------------------------------------- objectives
    def _candidate_objectives(self) -> list[tuple[int, int]]:
        """Objectives to pursue, in priority order.

        Order: unsatisfied required (launch) objectives, fault activation,
        then one sensitization objective per D-frontier gate (closest to an
        observation point first).  Several candidates are returned because a
        single objective may be un-backtraceable while another still leads to
        a test.
        """
        candidates: list[tuple[int, int]] = []
        for node, value in self._required:
            if self._good[node] == _X:
                candidates.append((node, value))
        if candidates:
            return candidates
        activation = self._activation_node()
        if self._good[activation] == _X:
            return [(activation, 1 - self._stuck)]
        if self._good[activation] == self._stuck:
            return []
        frontier = [idx for idx in self._d_frontier() if self._obs_reachable[idx]]
        frontier.sort(key=lambda idx: self.measures.observability[idx])
        for gate_idx in frontier[:16]:
            node = self._nodes[gate_idx]
            for objective in self._sensitize_objectives(node):
                candidates.append(objective)
        return candidates

    def _sensitize_objectives(self, node) -> list[tuple[int, int]]:
        """Objectives that would sensitize one D-frontier gate."""
        gtype = node.gtype
        x_inputs = [i for i in node.fanin if self._good[i] == _X]
        if not x_inputs:
            return []
        if gtype in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR):
            noncontrolling = 1 if gtype in (GateType.AND, GateType.NAND) else 0
            return [(target, noncontrolling) for target in x_inputs]
        if gtype is GateType.MUX2:
            sel = node.fanin[0]
            if self._good[sel] == _X:
                # Select the side that carries the fault effect if identifiable.
                for pin, value in ((1, 0), (2, 1)):
                    if self._fault_effect_at(node.fanin[pin]):
                        return [(sel, value)]
                return [(sel, 0), (sel, 1)]
            return [(target, 0) for target in x_inputs]
        # XOR/XNOR/BUF/NOT: any X input set to a known value helps.
        return [(target, 0) for target in x_inputs]

    # --------------------------------------------------------------- backtrace
    def _backtrace(self, node: int, value: int) -> tuple[int, int] | None:
        """Map an objective back to an unassigned controllable input."""
        current, target = node, value
        for _ in range(4 * self._num):
            if current in self.controllable and current not in self._assignment:
                return current, target
            info = self._nodes[current]
            if info.kind is not NodeKind.GATE:
                return None  # fixed or unassignable source
            gtype = info.gtype
            fanin = info.fanin
            x_inputs = [i for i in fanin if self._good[i] == _X]
            if not x_inputs:
                return None
            if gtype is GateType.BUF:
                current, target = fanin[0], target
            elif gtype is GateType.NOT:
                current, target = fanin[0], 1 - target
            elif gtype in (GateType.AND, GateType.NAND, GateType.OR, GateType.NOR):
                inverting = gtype in (GateType.NAND, GateType.NOR)
                controlling = 0 if gtype in (GateType.AND, GateType.NAND) else 1
                needed = 1 - target if inverting else target
                needed_logic = Logic.from_int(controlling)
                if needed == controlling:
                    chosen = self.measures.easiest_input(x_inputs, needed_logic)
                    current, target = chosen, controlling
                else:
                    chosen = self.measures.hardest_input(
                        x_inputs, Logic.from_int(1 - controlling)
                    )
                    current, target = chosen, 1 - controlling
            elif gtype in (GateType.XOR, GateType.XNOR):
                known = [self._good[i] for i in fanin if self._good[i] != _X]
                parity = sum(known) % 2
                desired = target if gtype is GateType.XOR else 1 - target
                if len(x_inputs) == 1:
                    current, target = x_inputs[0], (desired ^ parity) & 1
                else:
                    current, target = x_inputs[0], 0
            elif gtype is GateType.MUX2:
                sel = fanin[0]
                if self._good[sel] == _X:
                    current, target = sel, 0
                else:
                    data = fanin[1] if self._good[sel] == 0 else fanin[2]
                    if self._good[data] != _X:
                        return None
                    current, target = data, target
            else:
                return None
        return None
