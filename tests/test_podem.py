"""Unit tests for the PODEM test generator.

``TestImplicationOracle`` holds the event-driven implication and its undo
trail to the earlier full-cone form: same :class:`PodemResult` for every
fault, and good/faulty values equal to a from-scratch re-evaluation after
every step.
"""

import functools
import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import TestSession
from repro.api.scenarios import table1_scenario
from repro.atpg import AtpgOptions, PodemEngine, PodemStatus
from repro.atpg.podem import _gate_evaluator
from repro.atpg.timeframe import build_timeframe_view
from repro.faults import (
    FaultSite,
    StuckAtFault,
    all_stuck_at_faults,
    all_transition_faults,
    collapse_faults,
)
from repro.fault_sim import StuckAtFaultSimulator
from repro.logic import Logic
from repro.netlist import GateType, NetlistBuilder
from repro.netlist.gates import evaluate_gate
from repro.simulation import build_model
from repro.simulation.model import NodeKind
from test_properties import circuit_and_patterns


def engine_for(model, observation=None, fixed=None, backtrack_limit=50):
    controllable = set(model.pi_nodes) | set(model.ppi_nodes)
    fixed = dict(fixed or {})
    controllable -= set(fixed)
    observation = observation if observation is not None else [idx for _, idx in model.po_nodes]
    return PodemEngine(model, controllable, fixed, observation, backtrack_limit=backtrack_limit)


class TestC17:
    def test_every_collapsed_fault_gets_verified_test(self, c17_model):
        engine = engine_for(c17_model)
        simulator = StuckAtFaultSimulator(c17_model, observation=[i for _, i in c17_model.po_nodes])
        faults = collapse_faults(c17_model, all_stuck_at_faults(c17_model)).representatives
        for fault in faults:
            result = engine.run(fault)
            assert result.found, f"no test for {fault.describe(c17_model)}"
            pattern = {
                idx: value if value.is_known else Logic.ZERO
                for idx, value in result.assignment.items()
            }
            assert simulator.detects(pattern, fault), fault.describe(c17_model)

    def test_assignment_only_uses_controllable_nodes(self, c17_model):
        engine = engine_for(c17_model)
        fault = StuckAtFault(site=FaultSite(node=c17_model.node_of_net["N22"]), value=0)
        result = engine.run(fault)
        assert result.found
        assert set(result.assignment) <= set(c17_model.pi_nodes)


class TestRedundancyAndConstraints:
    def test_redundant_fault_is_untestable(self):
        # y = AND(a, NOT(a)) is constant 0: stuck-at-0 at y is undetectable.
        builder = NetlistBuilder("redundant")
        a = builder.input("a")
        na = builder.inv(a)
        y = builder.and_([a, na], output="y")
        builder.output_from(y)
        model = build_model(builder.build())
        engine = engine_for(model)
        fault = StuckAtFault(site=FaultSite(node=model.node_of_net["y"]), value=0)
        result = engine.run(fault)
        assert result.status is PodemStatus.UNTESTABLE

    def test_constant_zero_output_stuck_at_one_testable(self):
        builder = NetlistBuilder("redundant")
        a = builder.input("a")
        na = builder.inv(a)
        y = builder.and_([a, na], output="y")
        builder.output_from(y)
        model = build_model(builder.build())
        engine = engine_for(model)
        fault = StuckAtFault(site=FaultSite(node=model.node_of_net["y"]), value=1)
        assert engine.run(fault).found

    def test_fixed_pin_blocks_activation(self):
        builder = NetlistBuilder("constrained")
        a, b = builder.input("a"), builder.input("b")
        y = builder.and_([a, b], output="y")
        builder.output_from(y)
        model = build_model(builder.build())
        a_node = model.node_of_net["a"]
        engine = engine_for(model, fixed={a_node: Logic.ZERO})
        # With a forced to 0 the AND output is 0: stuck-at-0 cannot be excited.
        fault = StuckAtFault(site=FaultSite(node=model.node_of_net["y"]), value=0)
        assert engine.run(fault).status is PodemStatus.UNTESTABLE
        # ...but stuck-at-1 at the output is still testable (output observed as 0).
        fault1 = StuckAtFault(site=FaultSite(node=model.node_of_net["y"]), value=1)
        assert engine.run(fault1).found

    def test_forced_unknown_source_blocks_test(self):
        builder = NetlistBuilder("xblock")
        a, b = builder.input("a"), builder.input("b")
        y = builder.and_([a, b], output="y")
        builder.output_from(y)
        model = build_model(builder.build())
        b_node = model.node_of_net["b"]
        engine = engine_for(model, fixed={b_node: Logic.X})
        fault = StuckAtFault(site=FaultSite(node=model.node_of_net["y"]), value=0)
        assert engine.run(fault).status is PodemStatus.UNTESTABLE

    def test_required_objective_satisfied(self, c17_model):
        engine = engine_for(c17_model)
        fault = StuckAtFault(site=FaultSite(node=c17_model.node_of_net["N10"]), value=1)
        required_node = c17_model.node_of_net["N2"]
        result = engine.run(fault, required=[(required_node, Logic.ONE)])
        assert result.found
        assert result.assignment.get(required_node) is Logic.ONE

    def test_conflicting_required_objective_untestable(self, c17_model):
        engine = engine_for(c17_model)
        fault = StuckAtFault(site=FaultSite(node=c17_model.node_of_net["N10"]), value=1)
        # N10 stuck-at-1 requires N1=N3=1; demanding N1=0 makes it impossible.
        result = engine.run(fault, required=[(c17_model.node_of_net["N1"], Logic.ZERO)])
        assert result.status is PodemStatus.UNTESTABLE

    def test_unobservable_fault(self, c17_model):
        # Restrict observation to N22; N19 only feeds N23.
        engine = engine_for(c17_model, observation=[c17_model.node_of_net["N22"]])
        fault = StuckAtFault(site=FaultSite(node=c17_model.node_of_net["N19"]), value=1)
        result = engine.run(fault)
        assert result.status is PodemStatus.UNTESTABLE
        assert not engine.observable(c17_model.node_of_net["N19"])


class TestBacktrackLimit:
    def test_abort_reported(self):
        # A wide parity tree with one observation point and a tight backtrack
        # limit forces an abort (XOR logic defeats the backtrace heuristics).
        builder = NetlistBuilder("parity")
        nets = builder.inputs("a", 10)
        y = builder.reduce_tree(GateType.XOR, nets)
        z = builder.inputs("b", 10)
        y2 = builder.reduce_tree(GateType.XOR, z)
        out = builder.and_([y, y2], output="out")
        builder.output_from(out)
        model = build_model(builder.build())
        engine = engine_for(model, backtrack_limit=0)
        fault = StuckAtFault(site=FaultSite(node=model.node_of_net["out"]), value=0)
        result = engine.run(fault)
        assert result.status in (PodemStatus.ABORTED, PodemStatus.TEST_FOUND)
        # With zero backtracks allowed the engine must not claim UNTESTABLE.
        assert result.status is not PodemStatus.UNTESTABLE


# --------------------------------------------------------------------------
# Exactness oracle for event-driven implication
# --------------------------------------------------------------------------
_LOGIC = (Logic.ZERO, Logic.ONE, Logic.X)
_X = 2


@functools.lru_cache(maxsize=None)
def reference_gate(gtype, values):
    """``evaluate_gate`` over integers 0/1/2(X)."""
    return _LOGIC.index(evaluate_gate(gtype, [_LOGIC[v] for v in values]))


class TestGateEvaluators:
    @pytest.mark.parametrize("gtype", list(GateType))
    def test_truth_tables_match_evaluate_gate(self, gtype):
        # Up to five inputs, so the pairwise fold of wide gates is covered.
        top = 5 if gtype.max_inputs is None else gtype.max_inputs
        for arity in range(gtype.min_inputs, top + 1):
            evaluate = _gate_evaluator(gtype, range(arity))
            for values in itertools.product(range(3), repeat=arity):
                assert evaluate(values) == reference_gate(gtype, values), (gtype, values)


def reference_node(engine, idx, good, faulty):
    """(good, faulty) of one node from its fanin values, via ``evaluate_gate``."""
    node = engine.model.nodes[idx]
    is_fault_node = idx == engine._fault_node
    if node.kind is NodeKind.GATE:
        fanin_faulty = [faulty[i] for i in node.fanin]
        if is_fault_node and engine._fault_pin is not None:
            fanin_faulty[engine._fault_pin] = engine._stuck
        value = (
            reference_gate(node.gtype, tuple([good[i] for i in node.fanin])),
            reference_gate(node.gtype, tuple(fanin_faulty)),
        )
    elif node.kind is NodeKind.CONST0:
        value = (0, 0)
    elif node.kind is NodeKind.CONST1:
        value = (1, 1)
    else:
        source = engine.fixed.get(idx, engine._assignment.get(idx, _X))
        value = (source, source)
    if is_fault_node and engine._fault_pin is None:
        value = (value[0], engine._stuck)
    return value


def reference_values(engine):
    """Good and faulty values of every node, evaluated from scratch."""
    good = [_X] * engine.model.num_nodes
    faulty = [_X] * engine.model.num_nodes
    for idx in range(engine.model.num_nodes):
        good[idx], faulty[idx] = reference_node(engine, idx, good, faulty)
    return good, faulty


class FullConePodem(PodemEngine):
    """The earlier implication: fault injection, every decision and every undo
    re-simulate the whole sorted fanout cone of the changed node."""

    def _imply(self, start):
        for idx in self._cone(start):
            self._good[idx], self._faulty[idx] = reference_node(
                self, idx, self._good, self._faulty
            )
        return []

    def _assign(self, pi, value):
        self._assignment[pi] = value
        self._imply(pi)

    def _unassign(self, pi):
        self._assignment.pop(pi, None)
        self._imply(pi)


class CheckedPodem(PodemEngine):
    """The engine under test, asserting after fault injection and after every
    ``_assign``/``_unassign`` that its values equal a full re-evaluation."""

    checks = 0

    def _check(self):
        assert (self._good, self._faulty) == reference_values(self)
        self.checks += 1

    def _is_conflict(self):
        self._check()
        return super()._is_conflict()

    def _assign(self, pi, value):
        super()._assign(pi, value)
        self._check()

    def _unassign(self, pi):
        super()._unassign(pi)
        self._check()


def assert_same_results(engine, oracle, targets):
    """Run every (fault, required) target on both engines; return how many."""
    count = 0
    for fault, required in targets:
        if not engine.observable(fault.site.node):
            continue
        assert engine.run(fault, required) == oracle.run(fault, required), fault
        count += 1
    return count


def engine_pair(model, controllable, fixed, observation, backtrack_limit, checked=False):
    engine_cls = CheckedPodem if checked else PodemEngine
    engine = engine_cls(model, controllable, fixed, observation, backtrack_limit=backtrack_limit)
    oracle = FullConePodem(
        model, controllable, fixed, observation,
        backtrack_limit=backtrack_limit, measures=engine.measures,
    )
    return engine, oracle


_ORACLE_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestImplicationOracle:
    @_ORACLE_SETTINGS
    @given(
        circuit_and_patterns(),
        st.lists(st.sampled_from([Logic.ZERO, Logic.ONE, Logic.X]), max_size=3),
        st.integers(min_value=0, max_value=8),
        st.data(),
    )
    def test_random_circuits_match_full_cone(self, circuit, fixed_values, backtrack_limit, data):
        model, _ = circuit
        # Fix some inputs after the first (forced-unknown included) and
        # require one good-machine value, so every source and objective path
        # runs.
        fixed = dict(zip(model.pi_nodes[1:], fixed_values))
        controllable = set(model.pi_nodes) - set(fixed)
        observation = [idx for _, idx in model.po_nodes]
        engine, oracle = engine_pair(
            model, controllable, fixed, observation, backtrack_limit, checked=True
        )
        required_node = data.draw(st.sampled_from(range(model.num_nodes)))
        required = data.draw(
            st.sampled_from([(), ((required_node, Logic.ZERO),), ((required_node, Logic.ONE),)])
        )
        faults = all_stuck_at_faults(model)
        assert assert_same_results(engine, oracle, [(f, required) for f in faults]) > 0
        assert engine.checks > 0

    @pytest.mark.parametrize("key", ["a", "b", "c", "d", "e"])
    def test_tiny_table1_views_match_full_cone(self, key):
        options = AtpgOptions(backtrack_limit=4)
        prepared = TestSession.for_design("tiny", options=options).prepared
        model = prepared.model
        spec = table1_scenario(key)
        setup = spec.build_setup(prepared, options)
        if spec.fault_model == "stuck-at":
            faults = collapse_faults(model, all_stuck_at_faults(model)).representatives
        else:
            faults = collapse_faults(model, all_transition_faults(model)).representatives
        total = 0
        for procedure in setup.procedures:
            view = build_timeframe_view(model, prepared.domain_map, procedure, setup)
            engine, oracle = engine_pair(
                view.model, view.controllable, view.fixed, view.observation,
                options.backtrack_limit,
            )
            if spec.fault_model == "stuck-at":
                targets = [(view.expanded_stuck_at(fault), ()) for fault in faults]
            else:
                targets = [view.transition_requirements(fault) for fault in faults]
            total += assert_same_results(engine, oracle, targets)
        assert total > 0

