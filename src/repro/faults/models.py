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

from dataclasses import dataclass
from enum import Enum

from repro.logic import Logic
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
    sites: list[FaultSite] = []
    for node in model.nodes:
        if node.kind in (NodeKind.CONST0, NodeKind.CONST1):
            continue
        if not include_checkpoints_only:
            sites.append(FaultSite(node=node.index, pin=None))
            if node.kind is NodeKind.GATE:
                for pin in range(len(node.fanin)):
                    sites.append(FaultSite(node=node.index, pin=pin))
        else:
            if node.kind in (NodeKind.PI, NodeKind.PPI, NodeKind.RAM_OUT):
                sites.append(FaultSite(node=node.index, pin=None))
            elif node.kind is NodeKind.GATE:
                for pin in range(len(node.fanin)):
                    source = node.fanin[pin]
                    if len(model.fanout[source]) > 1:
                        sites.append(FaultSite(node=node.index, pin=pin))
    return sorted(sites, key=lambda site: (site.node, -1 if site.pin is None else site.pin))


def all_stuck_at_faults(model: CircuitModel) -> list[StuckAtFault]:
    """The uncollapsed stuck-at fault universe (two faults per terminal)."""
    faults: list[StuckAtFault] = []
    for site in enumerate_fault_sites(model):
        faults.append(StuckAtFault(site=site, value=0))
        faults.append(StuckAtFault(site=site, value=1))
    return faults


def all_transition_faults(model: CircuitModel) -> list[TransitionFault]:
    """The uncollapsed transition fault universe (two faults per terminal)."""
    faults: list[TransitionFault] = []
    for site in enumerate_fault_sites(model):
        faults.append(TransitionFault(site=site, kind=TransitionKind.SLOW_TO_RISE))
        faults.append(TransitionFault(site=site, kind=TransitionKind.SLOW_TO_FALL))
    return faults


def site_value(model: CircuitModel, site: FaultSite, values: list[Logic]) -> Logic:
    """Fault-free value currently present at a fault site.

    For an output site this is the node value; for an input pin site it is
    the value of the driving node (the distinction matters only when a fault
    is *injected*, not when it is read).
    """
    node = model.nodes[site.node]
    if site.pin is None:
        return values[site.node]
    return values[node.fanin[site.pin]]
