"""Clock domains and the mapping from sequential elements to domains.

The paper's device has two synchronous functional clock domains (75 MHz and
150 MHz) plus the slow external scan clock.  Throughout the library a *clock
domain* is identified by name; flip-flops belong to the domain whose clock
net drives them.  The mapping is computed once per (possibly CPF-instrumented)
netlist and then consulted by the ATPG clocking schemes, the fault
classifier and the sequential simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.netlist.netlist import Netlist


@dataclass(frozen=True)
class ClockDomain:
    """One functional clock domain.

    Attributes:
        name: Domain name (e.g. ``"fast"``, ``"slow"``).
        clock_net: The net that clocks the domain's flip-flops in the netlist
            currently under analysis (the PLL output before CPF insertion, the
            CPF ``clk_out`` after).
        frequency_mhz: Functional frequency; only ratios matter to the tests.
        pll_output: Name of the PLL output feeding this domain (informational).
    """

    name: str
    clock_net: str
    frequency_mhz: float
    pll_output: str | None = None

    @property
    def period_ns(self) -> float:
        return 1000.0 / self.frequency_mhz

    @property
    def period_ps(self) -> float:
        return 1_000_000.0 / self.frequency_mhz


class ClockDomainMap:
    """Assignment of every flip-flop to a clock domain."""

    def __init__(self, domains: Iterable[ClockDomain]) -> None:
        self._domains: dict[str, ClockDomain] = {}
        for domain in domains:
            if domain.name in self._domains:
                raise ValueError(f"duplicate clock domain {domain.name!r}")
            self._domains[domain.name] = domain
        self._flop_domain: dict[str, str] = {}

    # ------------------------------------------------------------- properties
    @property
    def domains(self) -> dict[str, ClockDomain]:
        return dict(self._domains)

    def domain(self, name: str) -> ClockDomain:
        return self._domains[name]

    def domain_names(self) -> list[str]:
        return sorted(self._domains)

    # ------------------------------------------------------------ assignment
    @classmethod
    def from_netlist(cls, netlist: Netlist, domains: Iterable[ClockDomain]) -> "ClockDomainMap":
        """Assign flip-flops to domains by matching their clock nets.

        Flip-flops whose clock net does not match any declared domain are left
        unassigned; :meth:`domain_of` returns ``None`` for them (this is where
        test-controller or always-slow logic ends up when it is intentionally
        excluded from at-speed clocking).
        """
        mapping = cls(domains)
        net_to_domain = {d.clock_net: d.name for d in mapping._domains.values()}
        for flop in netlist.flops.values():
            domain_name = net_to_domain.get(flop.clock)
            if domain_name is not None:
                mapping._flop_domain[flop.name] = domain_name
        return mapping

    # --------------------------------------------------------------- queries
    def domain_of(self, flop_name: str) -> str | None:
        """Domain of a flip-flop (None when the flop is outside all domains)."""
        return self._flop_domain.get(flop_name)

    def clock_nets(self, domain_names: Iterable[str]) -> set[str]:
        return {self._domains[name].clock_net for name in domain_names}

    def summary(self) -> dict[str, int]:
        """Number of flip-flops per domain (plus ``None`` bucket for unassigned)."""
        counts: dict[str, int] = {name: 0 for name in self._domains}
        for domain_name in self._flop_domain.values():
            counts[domain_name] += 1
        return counts
