"""Defect specifications and netlist-preserving defect injection.

A :class:`DefectSpec` is the diagnosis-side analogue of the declarative
:class:`~repro.api.scenario.ScenarioSpec` / :class:`~repro.api.design.DesignSpec`
pair: a frozen, JSON-round-trippable description of one physical defect
hypothesis, located by *net name* (not node index) so a spec survives design
rebuilds and travels between processes and sessions.  Three defect families
are modelled, matching the fault universes of the ATPG flow:

* ``stuck-at`` — the terminal is permanently 0 or 1;
* ``transition`` — a gross gate-delay defect: slow-to-rise or slow-to-fall,
  visible to every at-speed launch/capture pair;
* ``inter-domain`` — a delay defect on a cross-domain path that only
  manifests when launch and capture happen in *different* clock domains (the
  defect class the enhanced CPF's inter-domain procedures exist to catch).

A :class:`DefectInjector` evaluates the *injected device* — the machine with
the defect present — against good-machine planes.  Nothing is mutated: the
injection happens in the compiled kernels' versioned scratch planes
(:mod:`repro.engine.compile`), so the same :class:`~repro.simulation.model.CircuitModel`
keeps serving fault-free ATPG, fault simulation and diagnosis concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.clocking.named_capture import NamedCaptureProcedure
from repro.engine.compile import CompiledCircuit, compile_circuit
from repro.faults.models import (
    FaultSite,
    StuckAtFault,
    TransitionFault,
    TransitionKind,
)
from repro.records import JsonRecord
from repro.simulation.model import CircuitModel
from repro.simulation.parallel_sim import PackedPatterns

#: Recognised defect families.
DEFECT_KINDS = ("stuck-at", "transition", "inter-domain")

#: Transition polarities a delay defect may carry.
POLARITIES = ("slow-to-rise", "slow-to-fall")

_KIND_OF_POLARITY = {
    "slow-to-rise": TransitionKind.SLOW_TO_RISE,
    "slow-to-fall": TransitionKind.SLOW_TO_FALL,
}
_POLARITY_OF_KIND = {v: k for k, v in _KIND_OF_POLARITY.items()}


@dataclass(frozen=True)
class DefectSpec(JsonRecord):
    """One declarative, injectable defect hypothesis.

    Attributes:
        kind: One of :data:`DEFECT_KINDS`.
        net: Name of the net whose driving node owns the defective terminal.
        pin: ``None`` for the node's output terminal, otherwise the input pin
            index on that (gate) node.
        value: Stuck value (0/1) — ``stuck-at`` defects only.
        polarity: One of :data:`POLARITIES` — delay defects only.
    """

    json_indent = None

    kind: str
    net: str
    pin: int | None = None
    value: int | None = None
    polarity: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in DEFECT_KINDS:
            raise ValueError(
                f"unknown defect kind {self.kind!r} (expected one of {DEFECT_KINDS})"
            )
        if not self.net:
            raise ValueError("a defect needs a non-empty net name")
        if self.kind == "stuck-at":
            if self.value not in (0, 1):
                raise ValueError("a stuck-at defect needs value 0 or 1")
            if self.polarity is not None:
                raise ValueError("a stuck-at defect carries no polarity")
        else:
            if self.polarity not in POLARITIES:
                raise ValueError(
                    f"a {self.kind} defect needs a polarity "
                    f"(one of {POLARITIES})"
                )
            if self.value is not None:
                raise ValueError(f"a {self.kind} defect carries no stuck value")

    # ------------------------------------------------------------------ labels
    def describe(self) -> str:
        terminal = self.net if self.pin is None else f"{self.net}.in{self.pin}"
        if self.kind == "stuck-at":
            return f"{terminal} stuck-at-{self.value}"
        return f"{terminal} {self.kind} {self.polarity}"

    # ------------------------------------------------------------ model binding
    def site(self, model: CircuitModel) -> FaultSite:
        """Resolve the defective terminal against a circuit model."""
        try:
            node = model.node_of_net[self.net]
        except KeyError:
            raise KeyError(
                f"defect net {self.net!r} does not exist in design {model.name!r}"
            ) from None
        if self.pin is not None:
            fanin = model.nodes[node].fanin
            if not 0 <= self.pin < len(fanin):
                raise ValueError(
                    f"defect pin {self.pin} out of range for {self.net!r} "
                    f"({len(fanin)} input pins)"
                )
        return FaultSite(node=node, pin=self.pin)

    def as_fault(self, model: CircuitModel) -> StuckAtFault | TransitionFault:
        """The classical fault the injected device behaves as.

        Inter-domain defects reduce to a transition fault; their "only on
        inter-domain procedures" activation is applied by the caller
        (:class:`DefectInjector` / the diagnosis scorer), not by the fault.
        """
        site = self.site(model)
        if self.kind == "stuck-at":
            assert self.value is not None
            return StuckAtFault(site=site, value=self.value)
        assert self.polarity is not None
        return TransitionFault(site=site, kind=_KIND_OF_POLARITY[self.polarity])

    @classmethod
    def from_fault(
        cls,
        model: CircuitModel,
        fault: StuckAtFault | TransitionFault,
        *,
        inter_domain: bool = False,
    ) -> "DefectSpec":
        """Build the spec describing a classical fault (site -> net name).

        ``inter_domain=True`` lifts a transition fault into the
        inter-domain-only defect family.
        """
        net = model.nodes[fault.site.node].net
        if isinstance(fault, StuckAtFault):
            if inter_domain:
                raise ValueError("an inter-domain defect must be a delay defect")
            return cls(kind="stuck-at", net=net, pin=fault.site.pin, value=fault.value)
        kind = "inter-domain" if inter_domain else "transition"
        return cls(
            kind=kind,
            net=net,
            pin=fault.site.pin,
            polarity=_POLARITY_OF_KIND[fault.kind],
        )


def _coerce_defects(
    defect: "DefectSpec | Sequence[DefectSpec]",
) -> tuple[DefectSpec, ...]:
    """Normalise the single-defect and multi-defect spellings to a tuple."""
    if isinstance(defect, DefectSpec):
        return (defect,)
    defects = tuple(defect)
    if not defects:
        raise ValueError("a defect injector needs at least one DefectSpec")
    for spec in defects:
        if not isinstance(spec, DefectSpec):
            raise TypeError(f"expected DefectSpec, got {type(spec).__name__}")
    return defects


class DefectInjector:
    """Evaluates the defect-injected device against good-machine planes.

    The netlist and circuit model are never mutated: the injector resolves
    each defect to its classical fault once and reuses the compiled kernels'
    scratch-plane propagation (:class:`~repro.engine.compile.CompiledCircuit`)
    for every batch, so injection costs one integer version bump per fault
    per call.

    A *list* of specs injects every defect into the same device in one
    capture pass (the multi-defect die volume diagnosis faces): the device's
    miscompares are the union of each defect's syndromes, with inter-domain
    gating applied per defect.  ``.defect`` / ``.fault`` keep pointing at the
    first spec for single-defect callers.
    """

    def __init__(
        self, model: CircuitModel, defect: "DefectSpec | Sequence[DefectSpec]"
    ) -> None:
        self.model = model
        self.defects = _coerce_defects(defect)
        self.defect = self.defects[0]
        self.faults = tuple(spec.as_fault(model) for spec in self.defects)
        self.fault = self.faults[0]
        self._compiled: CompiledCircuit = compile_circuit(model)

    def syndrome(
        self,
        final: PackedPatterns,
        observation: list[int],
        launch: PackedPatterns | None = None,
        procedure: NamedCaptureProcedure | None = None,
    ) -> list[int]:
        """Per-observation-node miscompare masks of the injected device.

        Bit *p* of entry *i* is set when pattern *p* of the batch observes a
        known-value difference between the injected device and the good
        machine at ``observation[i]`` — exactly the bits an ATE comparator
        flags while unloading.  With several defects injected the masks are
        the OR of each defect's syndromes (independent-defect superposition),
        each defect gated by its own procedure activation.
        """
        active = [
            fault
            for spec, fault in zip(self.defects, self.faults)
            if procedure is None
            or spec.kind != "inter-domain"
            or procedure.is_inter_domain
        ]
        if launch is None and any(isinstance(f, TransitionFault) for f in active):
            raise ValueError("delay-defect syndromes need launch-frame planes")
        merged = [0] * len(observation)
        for masks in self._compiled.syndrome_batch(final, active, observation, launch):
            for index, mask in enumerate(masks):
                merged[index] |= mask
        return merged
