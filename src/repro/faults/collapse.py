"""Structural fault-equivalence collapsing.

Two faults are structurally equivalent when every test for one is a test for
the other.  The classic local rules are applied once per model, with an
integer union-find over its fault sites
(:class:`repro.faults.models.FaultSiteTable`):

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

from functools import cached_property
from typing import Sequence, TypeVar

from repro.faults.models import (
    FaultSite,
    StuckAtFault,
    TransitionFault,
    TransitionKind,
    fault_site_table,
)
from repro.simulation.model import CircuitModel

FaultT = TypeVar("FaultT", StuckAtFault, TransitionFault)


class CollapseResult:
    """Result of collapsing a fault list.

    Attributes:
        representatives: One fault per equivalence class (sorted).
        class_sizes: Per representative, the number of distinct input
            faults in its class.
    """

    def __init__(
        self,
        representatives: list,
        class_sizes: list[int],
        faults: Sequence = (),
        fault_classes: Sequence = (),
        class_keys: Sequence = (),
    ) -> None:
        self.representatives = representatives
        self.class_sizes = class_sizes
        # What ``class_of`` is built from on first access: each input fault's
        # class key, and the class key of each representative.
        self._faults = faults
        self._fault_classes = fault_classes
        self._class_keys = class_keys

    @cached_property
    def class_of(self) -> dict:
        """Maps every input fault to its representative, grouped by class in
        the order the classes were first seen (built on first access)."""
        representative_of = dict(zip(self._class_keys, self.representatives))
        members: dict[object, list] = {}
        for fault, key in zip(self._faults, self._fault_classes):
            members.setdefault(key, []).append(fault)
        class_of: dict = {}
        for key, klass in members.items():
            representative = representative_of[key]
            for fault in klass:
                class_of[fault] = representative
        return class_of

    @property
    def collapse_ratio(self) -> float:
        """Distinct input fault count divided by collapsed count."""
        if not self.representatives:
            return 1.0
        return sum(self.class_sizes) / len(self.representatives)


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


#: Per transition kind, its polarity (equivalent stuck value).
_TRANSITION_POLARITY = {
    kind: kind.equivalent_stuck_value for kind in TransitionKind
}


def _polarities(faults: Sequence[FaultT]) -> tuple[list[int], int]:
    """Each fault's polarity, and the bit that turns a fault key into an
    order key: ``2 * site_id + (flip ^ polarity)`` sorts like
    :func:`fault_order_key` (stuck values 0 < 1; ``"STF" < "STR"``, and
    slow-to-fall has polarity 1).

    Raises:
        ValueError: If the list is not all stuck-at or all transition faults.
    """
    models = {type(fault) for fault in faults}
    if models == {StuckAtFault}:
        return [fault.value for fault in faults], 0
    if models == {TransitionFault}:
        return [_TRANSITION_POLARITY[fault.kind] for fault in faults], 1
    names = ", ".join(sorted(model.__name__ for model in models))
    raise ValueError(
        f"collapse_faults needs faults of one model, stuck-at or transition; got {names}"
    )


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
        faults: Uncollapsed faults, all stuck-at or all transition.  A fault
            on a site the model does not have (say, on a CONST node) is a
            class of its own.

    Returns:
        A :class:`CollapseResult` with one representative per class — its
        smallest member — and the mapping from every input fault to its
        representative.

    Raises:
        ValueError: If ``faults`` mixes fault models.
    """
    if not faults:
        return CollapseResult(representatives=[], class_sizes=[])
    polarities, flip = _polarities(faults)
    table = fault_site_table(model)
    roots = table.roots
    size = len(roots)
    # Keys at or above ``size`` name faults off the table, one per distinct
    # (node, pin, polarity); such a key is its own class and order key.
    loose: dict[tuple, int] = {}
    first_of_key: list = [None] * size  # per order key, the first fault with it
    smallest: list[int] = [size] * size  # per class root, its smallest order key
    members: list[int] = [0] * size  # per class root, its distinct faults
    seen: list[int] = []  # class roots in first-seen order
    fault_classes: list[int] = []
    for fault, polarity in zip(faults, polarities):
        sid = table.site_id(fault.site)
        if sid is None:
            site = fault.site
            identity = (site.node, site.pin, polarity)
            order = loose.get(identity)
            if order is None:
                order = loose[identity] = size + len(loose)
                first_of_key.append(None)
                smallest.append(order)
                members.append(0)
            root = order
        else:
            key = 2 * sid + polarity
            root = roots[key]
            order = key ^ flip
        if first_of_key[order] is None:
            first_of_key[order] = fault
            if not members[root]:
                seen.append(root)
            members[root] += 1
            if order < smallest[root]:
                smallest[root] = order
        fault_classes.append(root)
    class_keys = sorted(seen, key=smallest.__getitem__)
    representatives = [first_of_key[smallest[root]] for root in class_keys]
    class_sizes = [members[root] for root in class_keys]
    if loose:
        # Off-table order keys do not interleave with site ids.
        order_of = sorted(
            range(len(class_keys)), key=lambda i: fault_order_key(representatives[i])
        )
        class_keys = [class_keys[i] for i in order_of]
        representatives = [representatives[i] for i in order_of]
        class_sizes = [class_sizes[i] for i in order_of]
    return CollapseResult(representatives, class_sizes, tuple(faults), fault_classes, class_keys)


def equivalent_faults(model: CircuitModel, fault: FaultT) -> list[FaultT]:
    """All faults of the uncollapsed universe equivalent to ``fault``."""
    table = fault_site_table(model)
    sid = table.site_id(fault.site)
    if sid is None:
        return []
    polarities, _ = _polarities([fault])
    roots = table.roots
    target = roots[2 * sid + polarities[0]]
    result = [
        _fault_with_polarity(fault, table.sites[key >> 1], key & 1)
        for key in range(len(roots))
        if roots[key] == target
    ]
    return sorted(result, key=fault_order_key)
