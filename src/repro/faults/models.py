"""Fault models: stuck-at, transition (gate-delay), and path-delay faults.

Faults are located at *gate terminals* of the flattened circuit model
(:class:`~repro.simulation.model.CircuitModel`): every node output (the
"stem") and every input pin of every gate node.  This matches the paper's
fault universe ("both fault models are targeting two faults at each gate
terminal"), and makes the stuck-at and transition fault universes the same
size by construction — exactly the property the paper points out about its
collapsed fault counts.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass
from enum import Enum

from repro.logic import Logic
from repro.netlist.gates import GateType
from repro.simulation.model import CircuitModel, NodeKind


class FaultSiteKind(str, Enum):
    """Where on a gate a fault sits."""

    OUTPUT = "output"
    INPUT_PIN = "input"


@dataclass(frozen=True)
class FaultSite:
    """A gate terminal of the base (single time frame) circuit model.

    Attributes:
        node: Index of the node that owns the terminal.
        pin: ``None`` for the node's output terminal, otherwise the input pin
            index on that node.
    """

    node: int
    pin: int | None = None

    def __lt__(self, other: "FaultSite") -> bool:
        if not isinstance(other, FaultSite):
            return NotImplemented
        mine = (self.node, -1 if self.pin is None else self.pin)
        theirs = (other.node, -1 if other.pin is None else other.pin)
        return mine < theirs

    @property
    def kind(self) -> FaultSiteKind:
        return FaultSiteKind.OUTPUT if self.pin is None else FaultSiteKind.INPUT_PIN

    def describe(self, model: CircuitModel) -> str:
        node = model.nodes[self.node]
        if self.pin is None:
            return f"{node.net}"
        driver = model.nodes[node.fanin[self.pin]]
        return f"{node.instance or node.net}.in{self.pin}({driver.net})"


@dataclass(frozen=True, order=True)
class StuckAtFault:
    """A single stuck-at fault."""

    site: FaultSite
    value: int  # 0 or 1

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError("stuck-at value must be 0 or 1")

    @property
    def stuck_value(self) -> Logic:
        return Logic.from_int(self.value)

    def describe(self, model: CircuitModel) -> str:
        return f"{self.site.describe(model)} stuck-at-{self.value}"


class TransitionKind(str, Enum):
    """Direction of the slow transition."""

    SLOW_TO_RISE = "STR"
    SLOW_TO_FALL = "STF"

    @property
    def initial_value(self) -> Logic:
        """Value the site must hold in the launch frame."""
        return Logic.ZERO if self is TransitionKind.SLOW_TO_RISE else Logic.ONE

    @property
    def final_value(self) -> Logic:
        """Fault-free value the site must reach in the capture frame."""
        return Logic.ONE if self is TransitionKind.SLOW_TO_RISE else Logic.ZERO

    @property
    def equivalent_stuck_value(self) -> int:
        """Stuck-at value whose detection in the capture frame detects the
        transition fault (a slow-to-rise site behaves like stuck-at-0 for one
        cycle)."""
        return 0 if self is TransitionKind.SLOW_TO_RISE else 1


@dataclass(frozen=True, order=True)
class TransitionFault:
    """A gate-delay (transition) fault."""

    site: FaultSite
    kind: TransitionKind

    def describe(self, model: CircuitModel) -> str:
        return f"{self.site.describe(model)} {self.kind.value}"

    @property
    def capture_frame_stuck_at(self) -> StuckAtFault:
        """The stuck-at fault that must be detected in the capture frame."""
        return StuckAtFault(site=self.site, value=self.kind.equivalent_stuck_value)


@dataclass(frozen=True)
class PathDelayFault:
    """A path-delay fault: a structural path plus a transition polarity at its
    launch point.

    Attributes:
        nodes: Node indices along the path, from launch point to capture
            point, each node being in the previous one's fanout.
        rising: True if the launched transition at ``nodes[0]`` is rising.
    """

    nodes: tuple[int, ...]
    rising: bool

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError("a path-delay fault needs at least two nodes")

    def describe(self, model: CircuitModel) -> str:
        names = " -> ".join(model.nodes[n].net for n in self.nodes)
        return f"path[{names}] {'rising' if self.rising else 'falling'}"


Fault = StuckAtFault | TransitionFault | PathDelayFault


class FaultSiteTable:
    """A model's fault sites and their structural equivalence classes, in ints.

    Built once per model by :func:`fault_site_table`.  A fault on site id
    ``s`` with polarity ``p`` (the stuck value, or a transition's equivalent
    stuck value) has the integer key ``2 * s + p``.

    Attributes:
        model: The model the table was built for.
        sites: Every gate terminal in site order (node index, then the output
            before the input pins); site id ``s`` is ``sites[s]``.
        first_site: Per node, the id of its output site, so input pin ``p``
            is ``first_site[node] + 1 + p``; ``-1`` for CONST nodes, which
            carry no sites.
        roots: Per fault key, the key that names its equivalence class under
            the local rules listed in :mod:`repro.faults.collapse`.
    """

    def __init__(self, model: CircuitModel) -> None:
        # Weak: the model memoises this table, and a strong reference back
        # would make the model a reference cycle (see
        # repro.engine.compile.CompiledCircuit).
        self._model = weakref.ref(model)
        sites: list[FaultSite] = []
        first_site: list[int] = []
        for node in model.nodes:
            if node.kind in (NodeKind.CONST0, NodeKind.CONST1):
                first_site.append(-1)
                continue
            first_site.append(len(sites))
            sites.append(FaultSite(node=node.index, pin=None))
            if node.kind is NodeKind.GATE:
                sites.extend(FaultSite(node=node.index, pin=pin) for pin in range(len(node.fanin)))
        self.sites = sites
        self.first_site = first_site
        self.roots = _equivalence_roots(model, first_site, 2 * len(sites))

    @property
    def model(self) -> CircuitModel | None:
        """The model the table was built for (``None`` once it is gone)."""
        return self._model()

    def site_id(self, site: FaultSite) -> int | None:
        """The id of ``site``, or ``None`` when the model has no such site."""
        node, pin = site.node, site.pin
        if not 0 <= node < len(self.first_site):
            return None
        first = self.first_site[node]
        sid = first if pin is None else first + 1 + pin
        if first < 0 or not 0 <= sid < len(self.sites):
            return None
        found = self.sites[sid]
        return sid if found is site or found == site else None


def _equivalence_roots(model: CircuitModel, first_site: list[int], size: int) -> list[int]:
    """Union the fault keys of every local equivalence rule and return each
    key's class root."""
    parent = list(range(size))

    def find(key: int) -> int:
        while parent[key] != key:
            parent[key] = parent[parent[key]]
            key = parent[key]
        return key

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    fanout = model.fanout
    for node in model.nodes:
        if node.kind is not NodeKind.GATE:
            continue
        gtype = node.gtype
        inverting = 1 if gtype is not None and gtype.is_inverting else 0
        controlling = gtype.controlling_value if gtype is not None else None
        out = 2 * first_site[node.index]
        for pin, source in enumerate(node.fanin):
            key = out + 2 * (pin + 1)
            # Input pin fault on a fanout-free connection == driver stem fault.
            if len(fanout[source]) == 1 and first_site[source] >= 0:
                stem = 2 * first_site[source]
                union(stem, key)
                union(stem + 1, key + 1)
            if gtype in (GateType.BUF, GateType.NOT):
                union(key, out + inverting)
                union(key + 1, out + (1 ^ inverting))
            elif controlling is not None:
                c = controlling.to_int()
                union(key + c, out + (c ^ inverting))
    return [find(key) for key in range(size)]


#: Serializes the creation of a model's fault-site table, so concurrent first
#: uses of one model share one table.
_SITE_TABLE_LOCK = threading.Lock()


def fault_site_table(model: CircuitModel) -> FaultSiteTable:
    """The model's :class:`FaultSiteTable` (memoised on the instance, like
    :func:`repro.engine.compile.compile_circuit`; dropped when the model is
    pickled)."""
    table = model.__dict__.get("_fault_sites")
    if table is None or table.model is not model:
        with _SITE_TABLE_LOCK:
            table = model.__dict__.get("_fault_sites")
            if table is None or table.model is not model:
                table = model.__dict__["_fault_sites"] = FaultSiteTable(model)
    return table


def enumerate_fault_sites(model: CircuitModel, include_checkpoints_only: bool = False) -> list[FaultSite]:
    """Enumerate every gate terminal of a circuit model.

    Args:
        model: The base circuit model.
        include_checkpoints_only: When True only checkpoint sites (primary
            inputs and fanout branches) are returned — the classical reduced
            fault universe; when False (default) every output terminal and
            every gate input pin is a site, matching the paper's counting.

    Returns:
        Sites sorted by node index then pin.
    """
    if not include_checkpoints_only:
        return list(fault_site_table(model).sites)
    sites: list[FaultSite] = []
    for node in model.nodes:
        if node.kind in (NodeKind.PI, NodeKind.PPI, NodeKind.RAM_OUT):
            sites.append(FaultSite(node=node.index, pin=None))
        elif node.kind is NodeKind.GATE:
            for pin in range(len(node.fanin)):
                source = node.fanin[pin]
                if len(model.fanout[source]) > 1:
                    sites.append(FaultSite(node=node.index, pin=pin))
    return sites


def all_stuck_at_faults(model: CircuitModel) -> list[StuckAtFault]:
    """The uncollapsed stuck-at fault universe (two faults per terminal)."""
    return [
        StuckAtFault(site=site, value=value)
        for site in fault_site_table(model).sites
        for value in (0, 1)
    ]


def all_transition_faults(model: CircuitModel) -> list[TransitionFault]:
    """The uncollapsed transition fault universe (two faults per terminal)."""
    kinds = (TransitionKind.SLOW_TO_RISE, TransitionKind.SLOW_TO_FALL)
    return [
        TransitionFault(site=site, kind=kind)
        for site in fault_site_table(model).sites
        for kind in kinds
    ]
