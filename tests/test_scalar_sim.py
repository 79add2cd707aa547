"""Unit tests for the scalar 4-valued simulator."""

from repro.circuits import alu_slice, ripple_adder
from repro.logic import Logic
from repro.simulation import build_model, simulate, simulate_by_net


def test_c17_known_vector(c17_model):
    values = simulate_by_net(c17_model, {"N1": 1, "N2": 1, "N3": 0, "N6": 1, "N7": 0})
    # N10 = NAND(1,0)=1, N11 = NAND(0,1)=1, N16 = NAND(1,1)=0, N19 = NAND(1,0)=1
    assert values["N10"] is Logic.ONE
    assert values["N16"] is Logic.ZERO
    assert values["N22"] is Logic.ONE
    assert values["N23"] is Logic.ONE


def test_unassigned_inputs_default_to_x(c17_model):
    values = simulate_by_net(c17_model, {"N1": 1})
    assert values["N22"] is Logic.X or values["N22"].is_known  # never crashes
    assert values["N2"] is Logic.X


def test_adder_exhaustive():
    model = build_model(ripple_adder(3))
    for a in range(8):
        for b in range(8):
            for cin in range(2):
                assignment = {f"a_{i}": (a >> i) & 1 for i in range(3)}
                assignment |= {f"b_{i}": (b >> i) & 1 for i in range(3)}
                assignment["cin"] = cin
                values = simulate_by_net(model, assignment)
                total = sum(values[f"sum_{i}"].to_int() << i for i in range(3))
                total += values["cout"].to_int() << 3
                assert total == a + b + cin


def test_alu_opcodes():
    model = build_model(alu_slice(4))
    a, b = 0b1100, 0b1010
    base = {f"a_{i}": (a >> i) & 1 for i in range(4)}
    base |= {f"b_{i}": (b >> i) & 1 for i in range(4)}

    def run(op):
        values = simulate_by_net(model, base | {"op_0": op & 1, "op_1": (op >> 1) & 1})
        return sum(values[f"y_{i}"].to_int() << i for i in range(4))

    assert run(0) == (a + b) & 0xF
    assert run(1) == a & b
    assert run(2) == a | b
    assert run(3) == a ^ b


def test_output_and_next_state_helpers():
    from repro.circuits import s27

    netlist = s27()
    model = build_model(netlist)
    assignment = {model.node_of_net[f"G{i}"]: Logic.ZERO for i in range(4)}
    for element in model.state_elements:
        assignment[element.q_node] = Logic.ZERO
    values = simulate(model, assignment)
    outs = {net: values[idx] for net, idx in model.po_nodes}
    assert set(outs) == {"G17"}
    nxt = {element.name: values[element.d_node] for element in model.state_elements}
    assert set(nxt) == {"ff0", "ff1", "ff2"}
    assert all(v.is_known for v in nxt.values())
