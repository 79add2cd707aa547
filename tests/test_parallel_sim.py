"""Unit tests for the bit-parallel (packed) simulator."""

import random

from repro.circuits import random_combinational
from repro.logic import Logic
from repro.simulation import build_model, pack_patterns, simulate, simulate_packed, unpack_value
from repro.simulation.parallel_sim import (
    known_equal_mask,
    mask_to_indices,
)


def random_assignment(model, rng, x_probability=0.2):
    assignment = {}
    for idx in model.pi_nodes:
        r = rng.random()
        if r < x_probability:
            assignment[idx] = Logic.X
        elif r < 0.5 + x_probability / 2:
            assignment[idx] = Logic.ZERO
        else:
            assignment[idx] = Logic.ONE
    return assignment


def test_packed_matches_scalar_on_c17(c17_model):
    rng = random.Random(1)
    patterns = [random_assignment(c17_model, rng) for _ in range(50)]
    packed = simulate_packed(c17_model, pack_patterns(c17_model, patterns))
    for p, assignment in enumerate(patterns):
        scalar = simulate(c17_model, assignment)
        for node in c17_model.nodes:
            assert unpack_value(packed, node.index, p) is scalar[node.index]


def test_packed_matches_scalar_on_random_circuits():
    rng = random.Random(7)
    for seed in range(3):
        netlist = random_combinational(num_inputs=6, num_gates=40, num_outputs=4, seed=seed)
        model = build_model(netlist)
        patterns = [random_assignment(model, rng) for _ in range(33)]
        packed = simulate_packed(model, pack_patterns(model, patterns))
        for p, assignment in enumerate(patterns):
            scalar = simulate(model, assignment)
            for _, po in model.po_nodes:
                assert unpack_value(packed, po, p) is scalar[po]


def test_pack_defaults_to_x(c17_model):
    packed = pack_patterns(c17_model, [{}])
    pi = c17_model.pi_nodes[0]
    assert unpack_value(packed, pi, 0) is Logic.X


def test_unpack_node_batch(c17_model):
    pi = c17_model.pi_nodes[0]
    patterns = [{pi: Logic.ONE}, {pi: Logic.ZERO}, {pi: Logic.X}]
    packed = pack_patterns(c17_model, patterns)
    assert [unpack_value(packed, pi, p) for p in range(3)] == [Logic.ONE, Logic.ZERO, Logic.X]


def test_known_equal_mask(c17_model):
    pi = c17_model.pi_nodes[0]
    patterns = [{pi: Logic.ONE}, {pi: Logic.ZERO}, {pi: Logic.ONE}]
    packed = pack_patterns(c17_model, patterns)
    assert known_equal_mask(packed, pi, Logic.ONE) == 0b101
    assert known_equal_mask(packed, pi, Logic.ZERO) == 0b010


def test_mask_to_indices():
    assert mask_to_indices(0b1011) == [0, 1, 3]
    assert mask_to_indices(0b1011, offset=10) == [10, 11, 13]
    assert mask_to_indices(0) == []
    # Wide and sparse: a 128-lane window mask with hits far apart.
    wide = (1 << 127) | (1 << 64) | (1 << 5)
    assert mask_to_indices(wide) == [5, 64, 127]
    assert mask_to_indices(wide, offset=3) == [8, 67, 130]
    assert mask_to_indices(1 << 255) == [255]
    dense = (1 << 130) - 1
    assert mask_to_indices(dense) == list(range(130))


def test_full_mask_tracks_batch_size(c17_model):
    packed = pack_patterns(c17_model, [{} for _ in range(70)])
    assert packed.full_mask == (1 << 70) - 1
