"""Classification of not-detected faults into explanatory groups.

The paper's conclusions announce exactly this kind of analysis as follow-up
work: "an attempt will be made to classify and group these faults as
non-functional scan path, low-speed and other faults that cannot cause the
device to fail at-speed operation".  This module provides that classifier for
our reproduction: given a circuit model, the clock-domain map and the test
configuration, every undetected fault is tagged with the structural reason
that best explains why the configured clocking cannot cover it.

Groups (in priority order — the first matching group wins):

* ``ram-shadow``        — the fault needs a RAM output value to be launched or
                          propagated and RAM-sequential patterns are disabled;
* ``non-scan-shadow``   — the fault's activation cone is dominated by non-scan
                          flip-flops that cannot be initialized with the
                          available number of clock pulses;
* ``cross-domain``      — activation and observation lie in different clock
                          domains and the configuration has no inter-domain
                          capture procedure;
* ``outside-at-speed-domains`` — the only observation points are flip-flops of
                          domains that are never pulsed at speed (e.g. the
                          test-controller clock domain) or masked primary
                          outputs;
* ``scan-path``         — the fault sits on the scan-path side of a scan
                          multiplexer and capture-time scan-enable is
                          constrained to functional mode;
* ``constrained-pin``   — the fault requires a value on a constrained pin
                          (reset, test enables) that the constraint forbids;
* ``unclassified``      — none of the structural reasons applies (genuinely
                          hard or aborted faults).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.clocking.domains import ClockDomainMap
from repro.faults.fault_list import FaultList, FaultStatus
from repro.faults.models import FaultSite, StuckAtFault, TransitionFault
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.logic import Logic
from repro.simulation.model import CircuitModel, NodeKind


@dataclass
class ClassifierContext:
    """Everything the classifier needs to know about the test configuration."""

    netlist: Netlist
    model: CircuitModel
    domain_map: ClockDomainMap
    at_speed_domains: frozenset[str]
    inter_domain_allowed: bool
    observe_pos: bool
    scan_enable_net: str | None
    scan_enable_constrained: bool
    constrained_pins: Mapping[str, Logic]
    ram_sequential: bool = False
    max_pulses: int = 2


class FaultClassifier:
    """Tags undetected faults with the structural reason they are untested."""

    def __init__(self, context: ClassifierContext) -> None:
        self.context = context
        self._scan_flop_names = {f.name for f in context.netlist.flops.values() if f.is_scan}
        self._nonscan_q_nodes = self._collect_nonscan_q_nodes()
        self._ram_nodes = set(context.model.ram_out_nodes)
        self._scan_path_nodes = self._collect_scan_path_nodes()
        self._constrained_pi_nodes = self._collect_constrained_pi_nodes()
        self._domain_of_node_cache: dict[int, frozenset[str]] = {}

    # ------------------------------------------------------------------ public
    def classify_fault(self, fault: StuckAtFault | TransitionFault) -> str:
        """Return the group name for a single fault."""
        site = fault.site
        fanin = self._fanin_region(site)
        fanout = self._fanout_region(site)

        if not self.context.ram_sequential and self._ram_nodes & fanin:
            return "ram-shadow"
        if self.context.max_pulses <= 2 and self._nonscan_q_nodes & fanin:
            return "non-scan-shadow"
        launch_domains = self._domains_of_nodes(fanin | {site.node})
        capture_domains = self._capture_domains(fanout)
        capture_at_speed = capture_domains & self.context.at_speed_domains
        observable_at_speed = bool(capture_at_speed)
        if self.context.observe_pos:
            observable_at_speed = observable_at_speed or self._reaches_po(fanout)
        if not observable_at_speed:
            return "outside-at-speed-domains"
        if capture_at_speed and launch_domains:
            if not (capture_at_speed & launch_domains) and not self.context.inter_domain_allowed:
                return "cross-domain"
        if self.context.scan_enable_constrained and site.node in self._scan_path_nodes:
            return "scan-path"
        if self._constrained_pi_nodes & (fanin | {site.node}):
            return "constrained-pin"
        return "unclassified"

    def classify_list(self, fault_list: FaultList) -> dict[str, int]:
        """Tag every not-detected fault in a fault list; returns the histogram."""
        not_detected = [s for s in FaultStatus if s is not FaultStatus.DETECTED]
        for fault in fault_list.with_status(*not_detected):
            fault_list.set_group(fault, self.classify_fault(fault))
        return fault_list.group_histogram()

    # --------------------------------------------------------------- internals
    def _collect_nonscan_q_nodes(self) -> set[int]:
        nodes: set[int] = set()
        for element in self.context.model.state_elements:
            if not element.flop.is_scan:
                nodes.add(element.q_node)
        # Latch outputs behave like uninitialized state as well.
        for node in self.context.model.nodes:
            if node.kind is NodeKind.PPI and node.instance in self.context.netlist.latches:
                nodes.add(node.index)
        return nodes

    def _collect_scan_path_nodes(self) -> set[int]:
        """Nodes that belong to the scan path side of scan multiplexers."""
        nodes: set[int] = set()
        se_net = self.context.scan_enable_net
        if se_net is None:
            return nodes
        model = self.context.model
        se_node = model.node_of_net.get(se_net)
        for node in model.nodes:
            if node.kind is NodeKind.GATE and node.gtype is GateType.MUX2 and node.fanin:
                if se_node is not None and node.fanin[0] == se_node:
                    nodes.add(node.index)
        return nodes

    def _collect_constrained_pi_nodes(self) -> set[int]:
        nodes: set[int] = set()
        for net in self.context.constrained_pins:
            idx = self.context.model.node_of_net.get(net)
            if idx is not None:
                nodes.add(idx)
        return nodes

    def _fanin_region(self, site: FaultSite) -> set[int]:
        model = self.context.model
        start = site.node if site.pin is None else model.nodes[site.node].fanin[site.pin]
        return set(model.transitive_fanin(start)) | {start}

    def _fanout_region(self, site: FaultSite) -> set[int]:
        model = self.context.model
        return set(model.transitive_fanout(site.node)) | {site.node}

    def _domains_of_nodes(self, nodes: set[int]) -> frozenset[str]:
        domains: set[str] = set()
        model = self.context.model
        for element in model.state_elements:
            if element.q_node in nodes:
                domain = self.context.domain_map.domain_of(element.name)
                if domain is not None:
                    domains.add(domain)
        # Purely PI-fed cones can launch in any pulsed domain.
        if not domains:
            domains.update(self.context.at_speed_domains)
        return frozenset(domains)

    def _capture_domains(self, fanout: set[int]) -> frozenset[str]:
        domains: set[str] = set()
        model = self.context.model
        for element in model.state_elements:
            if element.d_node is not None and element.d_node in fanout:
                domain = self.context.domain_map.domain_of(element.name)
                if domain is not None:
                    domains.add(domain)
        return frozenset(domains)

    def _reaches_po(self, fanout: set[int]) -> bool:
        po_nodes = {idx for _, idx in self.context.model.po_nodes}
        return bool(po_nodes & fanout)
