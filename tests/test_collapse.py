"""Unit tests for structural fault-equivalence collapsing."""

import hashlib
import json
import pickle
import random
import sys
import threading
from dataclasses import replace

import pytest

from repro.circuits import c17, random_sequential
from repro.faults import (
    FaultSite,
    StuckAtFault,
    TransitionFault,
    TransitionKind,
    all_stuck_at_faults,
    all_transition_faults,
    collapse_faults,
    enumerate_fault_sites,
    equivalent_faults,
)
from repro.faults.collapse import fault_order_key
from repro.faults.models import fault_site_table
from repro.netlist import GateType, NetlistBuilder
from repro.simulation import NodeKind, build_model


def single_gate_model(gtype, fanin=2):
    builder = NetlistBuilder("g")
    inputs = builder.inputs("a", fanin)
    builder.output_from(builder.gate(gtype, inputs), "y")
    return build_model(builder.build())


def test_and_gate_equivalence():
    model = single_gate_model(GateType.AND)
    faults = all_stuck_at_faults(model)
    result = collapse_faults(model, faults)
    gate = next(n for n in model.nodes if n.gtype is GateType.AND)
    out_sa0 = StuckAtFault(site=FaultSite(node=gate.index), value=0)
    in0_sa0 = StuckAtFault(site=FaultSite(node=gate.index, pin=0), value=0)
    in1_sa0 = StuckAtFault(site=FaultSite(node=gate.index, pin=1), value=0)
    assert result.class_of[out_sa0] == result.class_of[in0_sa0] == result.class_of[in1_sa0]
    # sa1 faults stay distinct from each other.
    out_sa1 = StuckAtFault(site=FaultSite(node=gate.index), value=1)
    in0_sa1 = StuckAtFault(site=FaultSite(node=gate.index, pin=0), value=1)
    assert result.class_of[out_sa1] != result.class_of[in0_sa1]


def test_nand_gate_equivalence_inverts_polarity():
    model = single_gate_model(GateType.NAND)
    gate = next(n for n in model.nodes if n.gtype is GateType.NAND)
    result = collapse_faults(model, all_stuck_at_faults(model))
    out_sa1 = StuckAtFault(site=FaultSite(node=gate.index), value=1)
    in0_sa0 = StuckAtFault(site=FaultSite(node=gate.index, pin=0), value=0)
    assert result.class_of[out_sa1] == result.class_of[in0_sa0]


def test_inverter_chain_collapses_heavily():
    builder = NetlistBuilder("chain")
    net = builder.input("a")
    for _ in range(5):
        net = builder.inv(net)
    builder.output_from(net, "y")
    model = build_model(builder.build())
    result = collapse_faults(model, all_stuck_at_faults(model))
    # A fanout-free inverter chain collapses to exactly two classes... plus the
    # output buffer introduced by output_from.
    assert len(result.representatives) <= 4
    assert result.collapse_ratio > 3.0


def test_fanout_stem_not_merged_with_branches():
    builder = NetlistBuilder("fanout")
    a = builder.input("a")
    b = builder.input("b")
    stem = builder.and_([a, b], output="stem")
    builder.output_from(builder.and_([stem, a]), "y0")
    builder.output_from(builder.or_([stem, b]), "y1")
    model = build_model(builder.build())
    result = collapse_faults(model, all_stuck_at_faults(model))
    stem_node = model.node_of_net["stem"]
    branches = [n for n in model.nodes if n.fanin and stem_node in n.fanin]
    # The two branch input-pin faults must not be equivalent to each other.
    pin_faults = []
    for branch in branches:
        pin = branch.fanin.index(stem_node)
        pin_faults.append(StuckAtFault(site=FaultSite(node=branch.index, pin=pin), value=1))
    assert result.class_of[pin_faults[0]] != result.class_of[pin_faults[1]]


def test_transition_collapse_matches_stuck_at_counts(c17_model):
    stuck = collapse_faults(c17_model, all_stuck_at_faults(c17_model))
    transition = collapse_faults(c17_model, all_transition_faults(c17_model))
    # The paper notes both models share the same collapsed fault count.
    assert len(stuck.representatives) == len(transition.representatives)


def test_collapse_covers_every_fault(c17_model):
    faults = all_stuck_at_faults(c17_model)
    result = collapse_faults(c17_model, faults)
    assert set(result.class_of) == set(faults)
    assert set(result.class_of.values()) == set(result.representatives)


def test_equivalent_faults_symmetry(c17_model):
    fault = all_stuck_at_faults(c17_model)[5]
    klass = equivalent_faults(c17_model, fault)
    assert fault in klass
    for other in klass:
        assert fault in equivalent_faults(c17_model, other)


def test_empty_collapse():
    from repro.circuits import c17
    model = build_model(c17())
    empty = collapse_faults(model, [])
    assert empty.representatives == []
    assert empty.collapse_ratio == 1.0


# ------------------------------------------------------------- sort order
_ORDER_MODELS: dict[str, object] = {}


def _order_model(name):
    """``hier-soc-10k`` or a seeded random sequential circuit, built once."""
    if name not in _ORDER_MODELS:
        if name == "hier-soc-10k":
            from repro.api.design import prepare_from_spec
            from repro.hier.designs import register_hier_designs

            register_hier_designs()
            _ORDER_MODELS[name] = prepare_from_spec(name).model
        else:
            _ORDER_MODELS[name] = build_model(random_sequential(6, 10, 80, 4, seed=5))
    return _ORDER_MODELS[name]


@pytest.mark.parametrize("universe", [all_stuck_at_faults, all_transition_faults])
@pytest.mark.parametrize("design", ["hier-soc-10k", "random"])
def test_key_sort_is_the_dataclass_order(design, universe):
    """The precomputed sort key orders faults, class representatives and
    sites exactly as the dataclasses' own ``__lt__`` does."""
    model = _order_model(design)
    assert enumerate_fault_sites(model) == sorted(enumerate_fault_sites(model))
    shuffled = universe(model)
    random.Random(3).shuffle(shuffled)
    assert sorted(shuffled, key=fault_order_key) == sorted(shuffled)
    result = collapse_faults(model, shuffled)
    assert result.representatives == sorted(result.representatives)
    members: dict[object, list] = {}
    for fault, representative in result.class_of.items():
        members.setdefault(representative, []).append(fault)
    assert all(rep == min(klass) for rep, klass in members.items())


def test_equivalent_faults_come_in_dataclass_order():
    model = _order_model("random")
    for universe in (all_stuck_at_faults, all_transition_faults):
        for fault in random.Random(4).sample(universe(model), 12):
            klass = equivalent_faults(model, fault)
            assert klass == sorted(klass)


def test_mixed_fault_models_are_rejected(c17_model):
    faults = all_stuck_at_faults(c17_model)[:4] + all_transition_faults(c17_model)[:4]
    with pytest.raises(ValueError, match="one model"):
        collapse_faults(c17_model, faults)


# ------------------------------------------------------------- the oracle
# The tuple-keyed union-find collapse the integer site table replaced, kept
# as the reference: every site enumerated again, every key a
# ``(node, pin, polarity)`` tuple, classes grouped in first-seen order.


class _ReferenceUnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, key):
        self.parent.setdefault(key, key)
        root = key
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[key] != root:
            self.parent[key], key = root, self.parent[key]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _reference_sites(model):
    sites = []
    for node in model.nodes:
        if node.kind in (NodeKind.CONST0, NodeKind.CONST1):
            continue
        sites.append(FaultSite(node=node.index, pin=None))
        if node.kind is NodeKind.GATE:
            sites.extend(FaultSite(node=node.index, pin=pin) for pin in range(len(node.fanin)))
    return sorted(sites, key=lambda site: (site.node, -1 if site.pin is None else site.pin))


def _reference_classes(model):
    uf = _ReferenceUnionFind()
    for site in _reference_sites(model):
        uf.find((site.node, site.pin, 0))
        uf.find((site.node, site.pin, 1))
    for node in model.nodes:
        if node.kind is not NodeKind.GATE:
            continue
        gtype = node.gtype
        inverting = gtype.is_inverting if gtype is not None else False
        controlling = gtype.controlling_value if gtype is not None else None
        for pin, source in enumerate(node.fanin):
            if len(model.fanout[source]) == 1 and model.nodes[source].kind not in (
                NodeKind.CONST0,
                NodeKind.CONST1,
            ):
                for value in (0, 1):
                    uf.union((source, None, value), (node.index, pin, value))
            if gtype in (GateType.BUF, GateType.NOT):
                for value in (0, 1):
                    out_value = value ^ 1 if inverting else value
                    uf.union((node.index, pin, value), (node.index, None, out_value))
            elif controlling is not None:
                c = controlling.to_int()
                out_value = c ^ 1 if inverting else c
                uf.union((node.index, pin, c), (node.index, None, out_value))
    return uf


def _reference_polarity(fault):
    if isinstance(fault, StuckAtFault):
        return fault.value
    return fault.kind.equivalent_stuck_value


def _reference_collapse(model, faults):
    """``(representatives, class_of)`` as the tuple-keyed collapse built them."""
    uf = _reference_classes(model)
    classes = {}
    for fault in faults:
        root = uf.find((fault.site.node, fault.site.pin, _reference_polarity(fault)))
        classes.setdefault(root, []).append(fault)
    representatives, class_of = [], {}
    for members in classes.values():
        representative = min(members, key=fault_order_key) if len(members) > 1 else members[0]
        representatives.append(representative)
        for member in members:
            class_of[member] = representative
    representatives.sort(key=fault_order_key)
    return representatives, class_of


def _reference_equivalent(model, fault):
    uf = _reference_classes(model)
    target = uf.find((fault.site.node, fault.site.pin, _reference_polarity(fault)))
    result = []
    for site in _reference_sites(model):
        for polarity in (0, 1):
            if uf.find((site.node, site.pin, polarity)) == target:
                if isinstance(fault, StuckAtFault):
                    result.append(StuckAtFault(site=site, value=polarity))
                else:
                    kind = (TransitionKind.SLOW_TO_RISE, TransitionKind.SLOW_TO_FALL)[polarity]
                    result.append(TransitionFault(site=site, kind=kind))
    return sorted(result, key=fault_order_key)


def _tie_model():
    """Tie cells driving a single-fanout AND pin, a fanout of two and a BUF,
    so the universe has CONST nodes and gate pins read from them."""
    builder = NetlistBuilder("ties")
    a, b = builder.input("a"), builder.input("b")
    zero, one = builder.tie0(), builder.tie1()
    builder.output_from(builder.and_([a, zero]), "y0")
    builder.output_from(builder.or_([b, one]), "y1")
    builder.output_from(builder.nand([one, builder.buf(a)]), "y2")
    return build_model(builder.build())


_ORACLE_MODELS: dict[str, object] = {}


def _oracle_model(name):
    if name not in _ORACLE_MODELS:
        if name == "c17":
            _ORACLE_MODELS[name] = build_model(c17())
        elif name == "random":
            _ORACLE_MODELS[name] = build_model(random_sequential(5, 8, 60, 3, seed=11))
        elif name == "ties":
            _ORACLE_MODELS[name] = _tie_model()
        else:
            from repro.api.design import prepare_from_spec
            from repro.hier.designs import register_hier_designs

            register_hier_designs()
            _ORACLE_MODELS[name] = prepare_from_spec(name).model
    return _ORACLE_MODELS[name]


def _variants(faults):
    shuffled = list(faults)
    random.Random(7).shuffle(shuffled)
    duplicated = list(faults[::2]) + list(faults[1::3]) + list(faults[::5])
    random.Random(8).shuffle(duplicated)
    # Equal sites that are not the table's own objects (as a defect spec or
    # a caller's hand-built list has them).
    rebuilt = [replace(f, site=FaultSite(f.site.node, f.site.pin)) for f in shuffled]
    return {
        "universe": list(faults),
        "shuffled": shuffled,
        "every-third": list(faults[::3]),
        "every-third-offset": list(faults[2::3]),
        "duplicates": duplicated,
        "rebuilt": rebuilt,
    }


def _assert_matches_reference(model, faults):
    want_reps, want_class_of = _reference_collapse(model, faults)
    got = collapse_faults(model, faults)
    assert got.representatives == want_reps
    assert list(got.class_of.items()) == list(want_class_of.items())
    want_ratio = len(want_class_of) / len(want_reps) if want_reps else 1.0
    assert got.collapse_ratio == want_ratio
    sizes = {}
    for representative in want_class_of.values():
        sizes[representative] = sizes.get(representative, 0) + 1
    assert got.class_sizes == [sizes[rep] for rep in want_reps]


@pytest.mark.parametrize("universe", [all_stuck_at_faults, all_transition_faults])
@pytest.mark.parametrize("design", ["c17", "random", "ties", "hier-soc-1k"])
def test_collapse_matches_the_tuple_keyed_reference(design, universe):
    model = _oracle_model(design)
    faults = universe(model)
    assert enumerate_fault_sites(model) == _reference_sites(model)
    for name, variant in _variants(faults).items():
        _assert_matches_reference(model, variant)


@pytest.mark.parametrize("universe", [all_stuck_at_faults, all_transition_faults])
def test_faults_off_the_site_table_stay_singletons(universe):
    """Faults on sites the model does not have — CONST nodes, a pin of a
    primary input, a pin past a gate's fanin, a node past the model — given
    twice and mixed into the universe, each form one class, as in the
    reference."""
    model = _oracle_model("ties")
    consts = [n.index for n in model.nodes if n.kind in (NodeKind.CONST0, NodeKind.CONST1)]
    assert len(consts) == 2
    last = model.nodes[-1]
    assert last.kind is NodeKind.GATE
    sites = [FaultSite(node) for node in consts] + [
        FaultSite(model.pi_nodes[0], 0),
        FaultSite(last.index, len(last.fanin)),
        FaultSite(len(model.nodes)),
    ]
    if universe is all_stuck_at_faults:
        off_table = [StuckAtFault(site, value) for site in sites for value in (0, 1)]
    else:
        off_table = [TransitionFault(site, kind) for site in sites for kind in TransitionKind]
    faults = universe(model) + off_table + off_table[:2]
    random.Random(9).shuffle(faults)
    _assert_matches_reference(model, faults)
    result = collapse_faults(model, faults)
    for fault in off_table:
        assert result.class_of[fault] == fault
        assert equivalent_faults(model, fault) == _reference_equivalent(model, fault) == []


@pytest.mark.parametrize("design", ["c17", "random", "ties", "hier-soc-1k"])
def test_equivalent_faults_match_the_reference(design):
    model = _oracle_model(design)
    for universe in (all_stuck_at_faults, all_transition_faults):
        faults = universe(model)
        for fault in random.Random(5).sample(faults, min(6, len(faults))):
            assert equivalent_faults(model, fault) == _reference_equivalent(model, fault)


def test_hier_soc_10k_transition_universe_is_pinned():
    """The fault-grade digest depends on the representatives' order: the
    count and the order-key digest are the tuple-keyed collapse's."""
    model = _order_model("hier-soc-10k")
    faults = all_transition_faults(model)
    result = collapse_faults(model, faults)
    assert (len(faults), len(result.representatives)) == (88106, 57273)
    keys = [[*fault_order_key(fault)[:2], fault.kind.value] for fault in result.representatives]
    digest = hashlib.sha256(json.dumps(keys).encode()).hexdigest()
    assert digest == "2ec7f7657f9d45ffd32d6e1ecdd38ceab54aeb7f658fcf7d93ae31d7298a6a5a"
    assert sum(result.class_sizes) == len(faults)


# ------------------------------------------------------ memo lifecycle


def test_pickled_model_carries_no_site_table():
    model = build_model(random_sequential(5, 8, 60, 3, seed=12))
    table = fault_site_table(model)
    assert model.__dict__["_fault_sites"] is table
    copy = pickle.loads(pickle.dumps(model))
    assert "_fault_sites" not in copy.__dict__
    assert fault_site_table(copy) is not table
    faults = all_transition_faults(model)
    assert (
        collapse_faults(copy, all_transition_faults(copy)).representatives
        == collapse_faults(model, faults).representatives
    )


def test_flat_copy_builds_its_own_site_table():
    model = _oracle_model("hier-soc-1k")
    assert model.hierarchy is not None
    flat = model.without_hierarchy()
    assert "_fault_sites" not in flat.__dict__
    assert fault_site_table(flat) is not fault_site_table(model)
    assert fault_site_table(flat).model is flat
    for universe in (all_stuck_at_faults, all_transition_faults):
        assert (
            collapse_faults(flat, universe(flat)).representatives
            == collapse_faults(model, universe(model)).representatives
        )


def test_concurrent_first_use_builds_one_site_table():
    """Four threads hit a fresh model's table at once, with a 1 µs switch
    interval: all of them get the same table object."""
    model = build_model(random_sequential(6, 12, 400, 4, seed=13))
    start = threading.Barrier(4)
    tables = {}

    def work(worker):
        start.wait(timeout=60)
        tables[worker] = fault_site_table(model)

    threads = [threading.Thread(target=work, args=(worker,)) for worker in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(tables) == [0, 1, 2, 3]
    assert len({id(table) for table in tables.values()}) == 1
    assert model.__dict__["_fault_sites"] is tables[0]
