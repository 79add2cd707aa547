"""Named capture procedures — the behavioral clock model the ATPG uses.

Section 4 of the paper explains that simulating every tester cycle through
the CPF would cripple ATPG efficiency ("six or more [scan-clk] pulses ... may
be required to produce a desired clock pulse pair"), so *named capture
procedures* were introduced: a simple behavioral description of which internal
clock pulses appear, in which order, in which clock domains.  The ATPG
generates patterns against this abstraction; when patterns are written for
the ATE the internal pulses are converted back into the primary-input
(scan-en / scan-clk) protocol that makes the CPF emit them
(:mod:`repro.clocking.occ` does that conversion).

A procedure is an ordered list of capture pulses.  Each pulse names the clock
domains it clocks simultaneously.  The last two pulses of an at-speed
procedure are the launch and capture pulses; any earlier pulses are
initialization ("clock sequential") cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.records import JsonRecord


@dataclass(frozen=True)
class CapturePulse(JsonRecord):
    """One internal clock pulse during the capture phase.

    Attributes:
        domains: Names of the clock domains pulsed simultaneously.
        at_speed: Whether the pulse is at functional frequency (launch/capture
            pulses) or relaxed (initialization pulses may be slow).
    """

    domains: frozenset[str]
    at_speed: bool = True

    @staticmethod
    def of(*domains: str, at_speed: bool = True) -> "CapturePulse":
        return CapturePulse(domains=frozenset(domains), at_speed=at_speed)

    # ------------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        """The fields, with ``domains`` as a sorted list."""
        return {**super().to_dict(), "domains": sorted(self.domains)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CapturePulse":
        return super().from_dict({**data, "domains": frozenset(data["domains"])})


@dataclass(frozen=True)
class NamedCaptureProcedure(JsonRecord):
    """A named capture procedure: the ATPG-visible clocking abstraction.

    Attributes:
        name: Procedure name (appears in pattern files).
        pulses: The internal pulses, in application order.
        description: Human-readable summary.
    """

    nested = {"pulses": CapturePulse}

    name: str
    pulses: tuple[CapturePulse, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.pulses:
            raise ValueError("a capture procedure needs at least one pulse")

    # ------------------------------------------------------------------ sizes
    @property
    def num_pulses(self) -> int:
        return len(self.pulses)

    @property
    def num_frames(self) -> int:
        """Number of combinational evaluation frames (== number of pulses)."""
        return len(self.pulses)

    @property
    def is_at_speed(self) -> bool:
        """True when the procedure ends in an at-speed launch/capture pair."""
        return self.num_pulses >= 2 and self.pulses[-1].at_speed and self.pulses[-2].at_speed

    # ---------------------------------------------------------------- framing
    @property
    def launch_frame(self) -> int:
        """Index of the evaluation frame whose values are launched (k-2)."""
        return max(0, self.num_pulses - 2)

    @property
    def capture_frame(self) -> int:
        """Index of the final evaluation frame (k-1)."""
        return self.num_pulses - 1

    @property
    def launch_domains(self) -> frozenset[str]:
        """Domains pulsed by the launch (second-to-last) pulse."""
        if self.num_pulses < 2:
            return self.pulses[-1].domains
        return self.pulses[-2].domains

    @property
    def capture_domains(self) -> frozenset[str]:
        """Domains pulsed by the final capture pulse — these flip-flops are
        the at-speed observation points."""
        return self.pulses[-1].domains

    @property
    def all_domains(self) -> frozenset[str]:
        result: set[str] = set()
        for pulse in self.pulses:
            result |= pulse.domains
        return frozenset(result)

    @property
    def is_inter_domain(self) -> bool:
        """True when launch and capture pulse different domains (the enhanced
        CPF capability of experiment (d))."""
        return self.num_pulses >= 2 and self.launch_domains != self.capture_domains

    def describe(self) -> str:
        parts = []
        for i, pulse in enumerate(self.pulses):
            speed = "@speed" if pulse.at_speed else "@slow"
            parts.append(f"P{i + 1}[{'+'.join(sorted(pulse.domains))} {speed}]")
        return f"{self.name}: " + " -> ".join(parts)


# --------------------------------------------------------------------------
# Standard procedure families used by the Table 1 experiments.
# --------------------------------------------------------------------------
def stuck_at_procedure(domains: Iterable[str], name: str = "stuck_at_capture") -> NamedCaptureProcedure:
    """Single slow capture pulse clocking every domain (experiment (a))."""
    return NamedCaptureProcedure(
        name=name,
        pulses=(CapturePulse(frozenset(domains), at_speed=False),),
        description="single external capture pulse, all domains",
    )


def stuck_at_procedures(
    domains: Iterable[str],
    max_pulses: int = 2,
    name_prefix: str = "stuck_at",
) -> list[NamedCaptureProcedure]:
    """Slow capture procedures for stuck-at test (experiment (a)).

    The single-pulse procedure is the plain scan capture; procedures with more
    pulses are the "clock sequential" patterns that initialize non-scan cells
    before the observing capture (the paper allows these for all experiments —
    only RAM-sequential patterns are switched off).
    """
    domain_set = frozenset(domains)
    procedures = [stuck_at_procedure(domain_set, name=f"{name_prefix}_1pulse")]
    for pulses in range(2, max_pulses + 1):
        procedures.append(
            NamedCaptureProcedure(
                name=f"{name_prefix}_{pulses}pulse",
                pulses=tuple(
                    CapturePulse(domain_set, at_speed=False) for _ in range(pulses)
                ),
                description=f"clock-sequential stuck-at capture, {pulses} slow pulses",
            )
        )
    return procedures


def external_clock_procedures(
    domains: Iterable[str],
    max_pulses: int = 4,
    name_prefix: str = "ext",
) -> list[NamedCaptureProcedure]:
    """Broadside procedures for a common external clock (experiments (b)/(e)).

    All domains are pulsed together; procedures with 2..max_pulses pulses are
    produced so the ATPG may use extra initialization cycles for non-scan
    cells ("clock sequential" patterns).
    """
    domain_set = frozenset(domains)
    procedures = []
    for pulses in range(2, max_pulses + 1):
        procedures.append(
            NamedCaptureProcedure(
                name=f"{name_prefix}_{pulses}pulse",
                pulses=tuple(CapturePulse(domain_set) for _ in range(pulses)),
                description=f"external clock, {pulses} pulses, all domains together",
            )
        )
    return procedures


def simple_cpf_procedures(
    domains: Iterable[str], name_prefix: str = "cpf"
) -> list[NamedCaptureProcedure]:
    """Procedures offered by the simple two-pulse CPF of Figure 3
    (experiment (c)): exactly two at-speed pulses, one domain per scan load."""
    procedures = []
    for domain in sorted(set(domains)):
        procedures.append(
            NamedCaptureProcedure(
                name=f"{name_prefix}_{domain}_2pulse",
                pulses=(CapturePulse.of(domain), CapturePulse.of(domain)),
                description=f"simple CPF: 2 pulses in domain {domain}",
            )
        )
    return procedures


def enhanced_cpf_procedures(
    domains: Iterable[str],
    max_pulses: int = 4,
    inter_domain: bool = True,
    name_prefix: str = "ecpf",
) -> list[NamedCaptureProcedure]:
    """Procedures offered by the enhanced CPF (experiment (d)).

    Per domain: 2, 3, ... max_pulses pulse bursts.  When ``inter_domain`` is
    set, launch-in-A / capture-in-B procedures are added for every ordered
    domain pair (with optional leading initialization pulses in the launch
    domain).
    """
    ordered = sorted(set(domains))
    procedures: list[NamedCaptureProcedure] = []
    for domain in ordered:
        for pulses in range(2, max_pulses + 1):
            procedures.append(
                NamedCaptureProcedure(
                    name=f"{name_prefix}_{domain}_{pulses}pulse",
                    pulses=tuple(CapturePulse.of(domain) for _ in range(pulses)),
                    description=f"enhanced CPF: {pulses} pulses in domain {domain}",
                )
            )
    if inter_domain:
        for launch in ordered:
            for capture in ordered:
                if launch == capture:
                    continue
                procedures.append(
                    NamedCaptureProcedure(
                        name=f"{name_prefix}_{launch}_to_{capture}",
                        pulses=(CapturePulse.of(launch), CapturePulse.of(capture)),
                        description=(
                            f"enhanced CPF: inter-domain launch in {launch}, "
                            f"capture in {capture}"
                        ),
                    )
                )
                if max_pulses >= 3:
                    procedures.append(
                        NamedCaptureProcedure(
                            name=f"{name_prefix}_{launch}_to_{capture}_init",
                            pulses=(
                                CapturePulse.of(launch, at_speed=False),
                                CapturePulse.of(launch),
                                CapturePulse.of(capture),
                            ),
                            description=(
                                f"enhanced CPF: init pulse + inter-domain launch in "
                                f"{launch}, capture in {capture}"
                            ),
                        )
                    )
    return procedures
