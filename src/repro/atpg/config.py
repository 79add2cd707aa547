"""ATPG configuration: per-experiment constraints and knobs.

A :class:`TestSetup` captures everything the paper's Section 5.1 lists as the
differences between experiments (a)–(e): which named capture procedures the
clock generation hardware offers, whether primary outputs may be strobed,
whether primary inputs may change during the capture phase, pin constraints
(system reset held off, test-controller clock never pulsed, scan-enable
inactive during capture), and the ATPG effort knobs (random-fill batches,
backtrack limit, dynamic compaction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.clocking.named_capture import NamedCaptureProcedure
from repro.logic import Logic


@dataclass
class AtpgOptions:
    """Effort/behaviour knobs of the test generator itself.

    ``sim_backend`` selects the execution backend of :mod:`repro.engine`:
    ``"serial"`` (interpreted reference path) or ``"compiled"`` (default).
    It is validated on construction, so a typo fails where the option is
    set, not inside the first job.  Both backends produce bit-identical
    patterns and coverage for a given ``random_seed``.

    ``prune_untestable`` runs the static untestability prover
    (:mod:`repro.analyze.testability`) before any pattern is generated:
    faults it proves dead are marked UNTESTABLE up front, so neither the
    random nor the deterministic phase spends time on them.  The prune set
    is computed from structure and constants alone, so it — and the
    resulting coverage accounting, which excludes UNTESTABLE faults from
    the test-coverage denominator — is identical on every backend.
    """

    backtrack_limit: int = 64
    random_pattern_batches: int = 8
    patterns_per_batch: int = 64
    random_seed: int = 2005
    dynamic_compaction: bool = True
    dynamic_compaction_limit: int = 24
    fill: str = "random"  # how unassigned scan cells / PIs are filled
    max_patterns: int | None = None
    sim_backend: str = "compiled"
    prune_untestable: bool = False

    def __post_init__(self) -> None:
        from repro.engine.scheduler import BACKENDS

        if self.sim_backend not in BACKENDS:
            raise ValueError(
                f"unknown engine backend {self.sim_backend!r} "
                f"(expected one of {BACKENDS})"
            )


@dataclass
class TestSetup:
    """Constraint environment for one ATPG experiment.

    Attributes:
        name: Experiment label ("(a) stuck-at external clock", ...).
        procedures: Named capture procedures the clocking hardware offers.
        observe_pos: Whether primary outputs may be strobed by the tester
            during the capture phase (False == "mask outputs").
        hold_pis: Whether primary inputs must keep one value over all capture
            frames (True for every on-chip-clocked configuration).
        pin_constraints: Fixed values on primary inputs during capture
            (e.g. reset inactive, test-mode pins).
        scan_enable_net: Name of the scan-enable net, when scan exists.
        constrain_scan_enable: Force scan-enable to functional mode (0)
            during the capture phase.
        allow_nonscan_init: Whether the flow may rely on initialization pulses
            to set non-scan cells (true whenever some procedure has more than
            two pulses).
        options: ATPG effort knobs.
    """

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    name: str
    procedures: Sequence[NamedCaptureProcedure]
    observe_pos: bool = True
    hold_pis: bool = True
    pin_constraints: dict[str, Logic] = field(default_factory=dict)
    scan_enable_net: str | None = None
    constrain_scan_enable: bool = True
    options: AtpgOptions = field(default_factory=AtpgOptions)

    def __post_init__(self) -> None:
        if not self.procedures:
            raise ValueError("a TestSetup needs at least one capture procedure")

    # ------------------------------------------------------------- properties
    @property
    def max_pulses(self) -> int:
        return max(p.num_pulses for p in self.procedures)

    @property
    def at_speed_domains(self) -> frozenset[str]:
        """Domains that some procedure pulses at speed."""
        domains: set[str] = set()
        for procedure in self.procedures:
            for pulse in procedure.pulses:
                if pulse.at_speed:
                    domains |= pulse.domains
        return frozenset(domains)

    @property
    def all_domains(self) -> frozenset[str]:
        domains: set[str] = set()
        for procedure in self.procedures:
            domains |= procedure.all_domains
        return frozenset(domains)

    def effective_pin_constraints(self) -> dict[str, Logic]:
        """Pin constraints including the scan-enable constraint when active."""
        constraints = dict(self.pin_constraints)
        if self.scan_enable_net is not None and self.constrain_scan_enable:
            constraints[self.scan_enable_net] = Logic.ZERO
        return constraints

    def describe(self) -> str:
        lines = [f"TestSetup {self.name}"]
        lines.append(f"  procedures: {', '.join(p.name for p in self.procedures)}")
        lines.append(f"  observe POs: {self.observe_pos}, hold PIs: {self.hold_pis}")
        constraints = ", ".join(f"{n}={v}" for n, v in self.effective_pin_constraints().items())
        lines.append(f"  pin constraints: {constraints or 'none'}")
        return "\n".join(lines)
