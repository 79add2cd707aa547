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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from repro.atpg.scoap import TestabilityMeasures, compute_testability
from repro.faults.models import StuckAtFault
from repro.netlist.gates import GateType
from repro.logic import Logic
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


def _eval_gate_int(gtype: GateType, values: Sequence[int]) -> int:
    """3-valued gate evaluation over integers 0/1/2(X)."""
    if gtype is GateType.BUF:
        return values[0]
    if gtype is GateType.NOT:
        v = values[0]
        return v if v == _X else 1 - v
    if gtype is GateType.AND or gtype is GateType.NAND:
        out = 1
        for v in values:
            if v == 0:
                out = 0
                break
            if v == _X:
                out = _X
        if gtype is GateType.NAND and out != _X:
            out = 1 - out
        return out
    if gtype is GateType.OR or gtype is GateType.NOR:
        out = 0
        for v in values:
            if v == 1:
                out = 1
                break
            if v == _X:
                out = _X
        if gtype is GateType.NOR and out != _X:
            out = 1 - out
        return out
    if gtype is GateType.XOR or gtype is GateType.XNOR:
        out = 0
        for v in values:
            if v == _X:
                return _X
            out ^= v
        if gtype is GateType.XNOR:
            out = 1 - out
        return out
    if gtype is GateType.MUX2:
        sel, a, b = values
        if sel == 0:
            return a
        if sel == 1:
            return b
        if a == b and a != _X:
            return a
        return _X
    if gtype is GateType.TIE0:
        return 0
    if gtype is GateType.TIE1:
        return 1
    raise ValueError(f"unsupported gate type {gtype!r}")


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


class PodemEngine:
    """Reusable PODEM engine bound to one circuit model and test view."""

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

        self._nodes = model.nodes
        self._num = model.num_nodes
        self._obs_set = set(self.observation)
        self._obs_reachable = self._compute_obs_reachable()
        self._cone_cache: dict[int, list[int]] = {}

        # Per-run state.
        self._good = [_X] * self._num
        self._faulty = [_X] * self._num
        self._assignment: dict[int, int] = {}
        self._fault_node = -1
        self._fault_pin: int | None = None
        self._stuck = 0
        self._required: list[tuple[int, int]] = []
        self._fault_cone: list[int] = []
        self._obs_in_cone: list[int] = []
        # Baseline (no decisions, no fault): every run starts from a copy of
        # this instead of re-evaluating the whole model.
        self._baseline = self._compute_baseline()

    # ------------------------------------------------------------------ public
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
        self._required = [(node, _logic_to_int(value)) for node, value in required]
        self._assignment = {}
        self._good = list(self._baseline)
        self._faulty = list(self._baseline)
        # Fault effects can only live inside the fault node's fanout cone, so
        # frontier scans and observation checks are restricted to it.
        self._fault_cone = self._cone(self._fault_node)
        cone_set = set(self._fault_cone)
        self._obs_in_cone = [idx for idx in self.observation if idx in cone_set]
        # Inject the fault into the otherwise fault-free baseline.
        for idx in self._fault_cone:
            self._evaluate_node(idx)

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

    # ------------------------------------------------------------- evaluation
    def _source_value(self, idx: int) -> int:
        if idx in self.fixed:
            return self.fixed[idx]
        return self._assignment.get(idx, _X)

    def _evaluate_node(self, idx: int) -> None:
        node = self._nodes[idx]
        kind = node.kind
        if kind is NodeKind.CONST0:
            good = faulty = 0
        elif kind is NodeKind.CONST1:
            good = faulty = 1
        elif kind is not NodeKind.GATE:
            good = faulty = self._source_value(idx)
        else:
            fanin = node.fanin
            good = _eval_gate_int(node.gtype, [self._good[i] for i in fanin])
            if self._fault_pin is not None and idx == self._fault_node:
                fvals = [self._faulty[i] for i in fanin]
                fvals[self._fault_pin] = self._stuck
                faulty = _eval_gate_int(node.gtype, fvals)
            else:
                faulty = _eval_gate_int(node.gtype, [self._faulty[i] for i in fanin])
        if idx == self._fault_node and self._fault_pin is None:
            faulty = self._stuck
        self._good[idx] = good
        self._faulty[idx] = faulty

    def _compute_baseline(self) -> list[int]:
        """Fault-free values with no decisions taken (only fixed constraints)."""
        saved_fault, saved_pin = self._fault_node, self._fault_pin
        self._fault_node, self._fault_pin = -1, None
        self._good = [_X] * self._num
        self._faulty = [_X] * self._num
        for idx in range(self._num):
            self._evaluate_node(idx)
        baseline = list(self._good)
        self._fault_node, self._fault_pin = saved_fault, saved_pin
        return baseline

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

    def _assign(self, pi: int, value: int) -> None:
        self._assignment[pi] = value
        for idx in self._cone(pi):
            self._evaluate_node(idx)

    def _unassign(self, pi: int) -> None:
        self._assignment.pop(pi, None)
        for idx in self._cone(pi):
            self._evaluate_node(idx)

    # ----------------------------------------------------------- status checks
    def _activation_node(self) -> int:
        if self._fault_pin is None:
            return self._fault_node
        return self._nodes[self._fault_node].fanin[self._fault_pin]

    def _fault_effect_at(self, idx: int) -> bool:
        return (
            self._good[idx] != _X
            and self._faulty[idx] != _X
            and self._good[idx] != self._faulty[idx]
        )

    def _is_success(self) -> bool:
        for node, value in self._required:
            if self._good[node] != value:
                return False
        return any(self._fault_effect_at(idx) for idx in self._obs_in_cone)

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
        frontier: list[int] = []
        for idx in self._fault_cone:
            node = self._nodes[idx]
            if node.kind is not NodeKind.GATE:
                continue
            if self._good[idx] != _X and self._faulty[idx] != _X:
                continue
            has_effect = any(self._fault_effect_at(i) for i in node.fanin)
            if not has_effect and idx == self._fault_node and self._fault_pin is not None:
                driver = node.fanin[self._fault_pin]
                good = self._good[driver]
                has_effect = good != _X and good != self._stuck
            if has_effect:
                frontier.append(idx)
        return frontier

    def _d_frontier_alive(self) -> bool:
        """True while the fault effect is observed or can still be propagated."""
        if any(self._fault_effect_at(idx) for idx in self._obs_in_cone):
            return True
        frontier = self._d_frontier()
        if self._fault_effect_anywhere():
            if not frontier:
                return False
        else:
            # Fault not activated yet: alive as long as activation is possible
            # and the fault cone reaches an observation point at all.
            activation = self._activation_node()
            if self._good[activation] != _X and self._good[activation] == self._stuck:
                return False
            return self._obs_reachable[self._fault_node]
        # X-path check: some frontier gate must reach an observation point
        # through not-yet-determined values.
        return any(self._x_path_exists(idx) for idx in frontier)

    def _fault_effect_anywhere(self) -> bool:
        activation = self._activation_node()
        good = self._good[activation]
        return good != _X and good != self._stuck

    def _x_path_exists(self, start: int) -> bool:
        seen = set()
        stack = [start]
        while stack:
            idx = stack.pop()
            if idx in seen:
                continue
            seen.add(idx)
            if not self._obs_reachable[idx]:
                continue
            if idx in self._obs_set:
                return True
            for nxt in self.model.fanout[idx]:
                if self._good[nxt] == _X or self._faulty[nxt] == _X:
                    stack.append(nxt)
                elif self._fault_effect_at(nxt):
                    stack.append(nxt)
        return False

    def _compute_obs_reachable(self) -> list[bool]:
        reachable = [False] * self._num
        for idx in self.observation:
            reachable[idx] = True
        for idx in range(self._num - 1, -1, -1):
            if reachable[idx]:
                continue
            reachable[idx] = any(reachable[out] for out in self.model.fanout[idx])
        return reachable

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

    def _pick_objective(self) -> tuple[int, int] | None:
        """First candidate objective (kept for introspection and tests)."""
        candidates = self._candidate_objectives()
        return candidates[0] if candidates else None

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

    def _sensitize_objective(self, node) -> tuple[int, int] | None:
        objectives = self._sensitize_objectives(node)
        return objectives[0] if objectives else None

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
