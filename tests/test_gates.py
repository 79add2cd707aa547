"""Unit tests for primitive gate evaluation."""

import pytest

from repro.logic import Logic
from repro.netlist import GateType, evaluate_gate


ZERO, ONE, X = Logic.ZERO, Logic.ONE, Logic.X


class TestEvaluateGate:
    @pytest.mark.parametrize(
        "gtype, inputs, expected",
        [
            (GateType.AND, [ONE, ONE], ONE),
            (GateType.AND, [ONE, ZERO], ZERO),
            (GateType.AND, [X, ZERO], ZERO),
            (GateType.AND, [X, ONE], X),
            (GateType.NAND, [ONE, ONE], ZERO),
            (GateType.NAND, [ZERO, X], ONE),
            (GateType.OR, [ZERO, ZERO], ZERO),
            (GateType.OR, [X, ONE], ONE),
            (GateType.OR, [X, ZERO], X),
            (GateType.NOR, [ZERO, ZERO], ONE),
            (GateType.XOR, [ONE, ZERO], ONE),
            (GateType.XOR, [ONE, ONE], ZERO),
            (GateType.XOR, [X, ONE], X),
            (GateType.XNOR, [ONE, ONE], ONE),
            (GateType.NOT, [ONE], ZERO),
            (GateType.BUF, [X], X),
            (GateType.TIE0, [], ZERO),
            (GateType.TIE1, [], ONE),
        ],
    )
    def test_truth_tables(self, gtype, inputs, expected):
        assert evaluate_gate(gtype, inputs) is expected

    def test_three_input_gates(self):
        assert evaluate_gate(GateType.AND, [ONE, ONE, ONE]) is ONE
        assert evaluate_gate(GateType.OR, [ZERO, ZERO, ONE]) is ONE
        assert evaluate_gate(GateType.XOR, [ONE, ONE, ONE]) is ONE

    def test_mux_select_known(self):
        assert evaluate_gate(GateType.MUX2, [ZERO, ONE, ZERO]) is ONE
        assert evaluate_gate(GateType.MUX2, [ONE, ONE, ZERO]) is ZERO

    def test_mux_select_unknown(self):
        assert evaluate_gate(GateType.MUX2, [X, ONE, ONE]) is ONE
        assert evaluate_gate(GateType.MUX2, [X, ONE, ZERO]) is X

    def test_z_treated_as_x(self):
        assert evaluate_gate(GateType.AND, [Logic.Z, ONE]) is X
        assert evaluate_gate(GateType.AND, [Logic.Z, ZERO]) is ZERO

    def test_arity_errors(self):
        with pytest.raises(ValueError):
            evaluate_gate(GateType.NOT, [ONE, ONE])
        with pytest.raises(ValueError):
            evaluate_gate(GateType.AND, [ONE])
        with pytest.raises(ValueError):
            evaluate_gate(GateType.MUX2, [ONE, ONE])


class TestGateMetadata:
    def test_controlling_values(self):
        assert GateType.AND.controlling_value is ZERO
        assert GateType.NAND.controlling_value is ZERO
        assert GateType.OR.controlling_value is ONE
        assert GateType.NOR.controlling_value is ONE
        assert GateType.XOR.controlling_value is None

    def test_inverting(self):
        assert GateType.NAND.is_inverting
        assert GateType.NOT.is_inverting
        assert not GateType.AND.is_inverting
        assert not GateType.MUX2.is_inverting

    def test_arity_metadata(self):
        assert GateType.MUX2.min_inputs == GateType.MUX2.max_inputs == 3
        assert GateType.AND.max_inputs is None
        assert GateType.TIE0.min_inputs == 0
