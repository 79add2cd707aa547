"""Structural fault-equivalence collapsing.

Two faults are structurally equivalent when every test for one is a test for
the other.  The classic local rules are applied with a union-find:

* a stuck-at-*c* fault on any input of a gate whose controlling value is *c*
  is equivalent to stuck-at-(*c* xor inversion) at the gate output
  (AND: in-sa0 == out-sa0, NAND: in-sa0 == out-sa1, OR: in-sa1 == out-sa1,
  NOR: in-sa1 == out-sa0);
* both faults of a BUF/NOT input are equivalent to the corresponding output
  faults (with inversion for NOT);
* an input-pin fault on a fanout-free connection is equivalent to the output
  (stem) fault of its driver.

Transition faults collapse with exactly the same classes once each fault is
mapped to its *equivalent stuck value* (slow-to-rise behaves like stuck-at-0
for one cycle), which is why the collapsed transition-fault count equals the
collapsed stuck-at count — the property the paper notes for its device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

from repro.faults.models import (
    FaultSite,
    StuckAtFault,
    TransitionFault,
    TransitionKind,
    enumerate_fault_sites,
)
from repro.netlist.gates import GateType
from repro.simulation.model import CircuitModel, NodeKind

FaultT = TypeVar("FaultT", StuckAtFault, TransitionFault)


class _UnionFind:
    """Minimal union-find over hashable keys."""

    def __init__(self) -> None:
        self._parent: dict[object, object] = {}

    def find(self, key: object) -> object:
        self._parent.setdefault(key, key)
        root = key
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[key] != root:
            self._parent[key], key = root, self._parent[key]
        return root

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def classes(self) -> dict[object, list[object]]:
        groups: dict[object, list[object]] = {}
        for key in list(self._parent):
            groups.setdefault(self.find(key), []).append(key)
        return groups


def _equivalence_classes(model: CircuitModel) -> _UnionFind:
    """Union-find of ``(node, pin, stuck value or equivalent)`` keys under
    the local equivalence rules."""
    uf = _UnionFind()
    # Seed every terminal with both polarities so singleton classes exist.
    for site in enumerate_fault_sites(model):
        uf.find((site.node, site.pin, 0))
        uf.find((site.node, site.pin, 1))

    for node in model.nodes:
        if node.kind is not NodeKind.GATE:
            continue
        gtype = node.gtype
        inverting = gtype.is_inverting if gtype is not None else False
        controlling = gtype.controlling_value if gtype is not None else None
        for pin, source in enumerate(node.fanin):
            # Input pin fault on a fanout-free connection == driver stem fault.
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


@dataclass
class CollapseResult:
    """Result of collapsing a fault list.

    Attributes:
        representatives: One fault per equivalence class (sorted).
        class_of: Maps every original fault to its representative.
    """

    representatives: list
    class_of: dict

    @property
    def collapse_ratio(self) -> float:
        """Original fault count divided by collapsed count."""
        if not self.representatives:
            return 1.0
        return len(self.class_of) / len(self.representatives)


def fault_order_key(fault: StuckAtFault | TransitionFault) -> tuple:
    """Sort key with exactly the dataclass order of one fault model.

    ``(node, pin or -1, value)`` for stuck-at faults and ``(node, pin or -1,
    kind)`` for transition faults — the fields the generated ``__lt__``
    compares, in order, as plain ints and ``str``-valued kinds, so sorting
    never calls back into Python-level comparisons.
    """
    site = fault.site
    pin = -1 if site.pin is None else site.pin
    if isinstance(fault, StuckAtFault):
        return (site.node, pin, fault.value)
    return (site.node, pin, fault.kind)


def _polarity_of(fault: StuckAtFault | TransitionFault) -> int:
    if isinstance(fault, StuckAtFault):
        return fault.value
    return fault.kind.equivalent_stuck_value


def _fault_with_polarity(template: FaultT, site: FaultSite, polarity: int) -> FaultT:
    if isinstance(template, StuckAtFault):
        return StuckAtFault(site=site, value=polarity)
    kind = (
        TransitionKind.SLOW_TO_RISE if polarity == 0 else TransitionKind.SLOW_TO_FALL
    )
    return TransitionFault(site=site, kind=kind)


def collapse_faults(model: CircuitModel, faults: Sequence[FaultT]) -> CollapseResult:
    """Collapse a stuck-at or transition fault list into equivalence classes.

    Args:
        model: The base circuit model the faults are defined on.
        faults: Uncollapsed faults (all of the same model — stuck-at or
            transition; mixing is not supported).

    Returns:
        A :class:`CollapseResult` with one representative per class and the
        mapping from every input fault to its representative.
    """
    if not faults:
        return CollapseResult(representatives=[], class_of={})
    # Choose, per union-find class, the smallest member fault as representative.
    representatives: list[FaultT] = []
    class_of: dict[FaultT, FaultT] = {}
    for members in _class_members(model, faults):
        representative = (
            min(members, key=fault_order_key) if len(members) > 1 else members[0]
        )
        representatives.append(representative)
        for member in members:
            class_of[member] = representative
    representatives.sort(key=fault_order_key)
    return CollapseResult(representatives=representatives, class_of=class_of)


def _class_members(model: CircuitModel, faults: Sequence[FaultT]) -> list[list[FaultT]]:
    """The faults grouped by equivalence class, in first-seen order.

    The union-find is local to this call, so it is freed before the caller
    picks and sorts the representatives; kept alive, it would add to the
    collapse's memory peak.
    """
    uf = _equivalence_classes(model)
    classes: dict[object, list[FaultT]] = {}
    for fault in faults:
        root = uf.find((fault.site.node, fault.site.pin, _polarity_of(fault)))
        classes.setdefault(root, []).append(fault)
    return list(classes.values())


def equivalent_faults(model: CircuitModel, fault: FaultT) -> list[FaultT]:
    """All faults of the uncollapsed universe equivalent to ``fault``."""
    uf = _equivalence_classes(model)
    target_root = uf.find((fault.site.node, fault.site.pin, _polarity_of(fault)))
    result: list[FaultT] = []
    for site in enumerate_fault_sites(model):
        for polarity in (0, 1):
            if uf.find((site.node, site.pin, polarity)) == target_root:
                result.append(_fault_with_polarity(fault, site, polarity))
    return sorted(result, key=fault_order_key)
