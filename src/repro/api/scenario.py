"""Declarative scenario specifications and the scenario registry.

A :class:`ScenarioSpec` captures everything that defines one test-generation
configuration — fault model, capture-procedure factory, output observability,
input holding, pin constraints, ATPG options — plus the post-ATPG stage knobs
(static compaction, EDT compression, pattern export).

Scenarios are *named executable configurations*: registering one makes it
runnable by name through :class:`repro.api.session.TestSession` without any
call site learning a new code path.  The registry is the extension point for
new workloads — a new fault-model mix or clocking scheme is one
``register_scenario(ScenarioSpec(...))`` away.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.atpg.config import AtpgOptions, TestSetup
from repro.clocking.named_capture import NamedCaptureProcedure
from repro.logic import Logic

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.api.design import PreparedDesign

#: Builds the capture procedures a scenario offers, given the prepared design
#: (so procedure factories can reference the design's actual domain names).
ProcedureFactory = Callable[["PreparedDesign"], Sequence[NamedCaptureProcedure]]

#: Fault models a scenario may select.
FAULT_MODELS = ("stuck-at", "transition", "path-delay", "mixed")


class ScenarioNotFound(KeyError):
    """Raised when a scenario name is not in the registry."""


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, declarative test-generation scenario.

    Attributes:
        name: Registry key ("table1-a", "stuck-at-edt", ...).
        description: Human-readable configuration summary (the Table row text).
        procedures: Factory producing the named capture procedures from the
            prepared design.
        fault_model: One of :data:`FAULT_MODELS`.  "mixed" runs stuck-at and
            transition ATPG back to back under the same constraint environment.
        observe_pos: Whether the tester may strobe primary outputs during
            capture (False == "mask outputs").
        hold_pis: Whether primary inputs keep one value over all capture frames.
        constrain_scan_enable: Force scan-enable to functional mode during
            capture.
        constrain_reset: Hold the design's reset net inactive during capture.
        pin_constraints: Extra fixed primary-input values during capture.
        options: Per-scenario :class:`AtpgOptions` override (None == use the
            session's options).
        legacy_key: The paper experiment letter ("a".."e") when the scenario
            is one of the Table 1 configurations; used for report row labels.
        static_compaction: Run the static compaction stage on the generated
            pattern set.
        edt_channels: When set, run the EDT compression stage with this many
            external channels and record the compression statistics.
        export_patterns: Run the export stage (STIL serialization).
        path_count: Number of critical paths to target (path-delay only).
        rng_seed: Explicit RNG seed for this scenario's ATPG run (overrides
            ``AtpgOptions.random_seed``); with a fixed seed the run is
            bit-reproducible across engine backends.
        backend: Engine execution backend for this scenario's fault
            simulation (one of :data:`repro.engine.scheduler.BACKENDS`;
            ``None`` == use the options' ``sim_backend``).
        tags: Free-form labels ("paper", "compression", ...) for filtering.
    """

    name: str
    description: str
    procedures: ProcedureFactory
    fault_model: str = "transition"
    observe_pos: bool = True
    hold_pis: bool = True
    constrain_scan_enable: bool = True
    constrain_reset: bool = True
    pin_constraints: Mapping[str, Logic] = field(default_factory=dict)
    options: AtpgOptions | None = None
    legacy_key: str | None = None
    static_compaction: bool = False
    edt_channels: int | None = None
    export_patterns: bool = False
    path_count: int = 12
    rng_seed: int | None = None
    backend: str | None = None
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.fault_model not in FAULT_MODELS:
            raise ValueError(
                f"unknown fault model {self.fault_model!r} "
                f"(expected one of {FAULT_MODELS})"
            )
        if not self.name:
            raise ValueError("a scenario needs a non-empty name")
        if self.backend is not None:
            from repro.engine.scheduler import BACKENDS

            if self.backend not in BACKENDS:
                raise ValueError(
                    f"unknown engine backend {self.backend!r} "
                    f"(expected one of {BACKENDS})"
                )

    # ------------------------------------------------------------------ labels
    @property
    def row_key(self) -> str:
        """Report row label: the paper letter for Table 1 rows, else the name."""
        return self.legacy_key or self.name

    @property
    def setup_name(self) -> str:
        """The :class:`TestSetup` display name (legacy-compatible for a–e)."""
        if self.legacy_key:
            return f"({self.legacy_key}) {self.description}"
        return f"{self.name}: {self.description}"

    # ----------------------------------------------------------------- builder
    def build_setup(
        self, prepared: "PreparedDesign", options: AtpgOptions | None = None
    ) -> TestSetup:
        """Materialize the constraint environment against a prepared design."""
        constraints: dict[str, Logic] = {}
        if self.constrain_reset:
            constraints[prepared.soc.reset_net] = Logic.ZERO
        constraints.update(self.pin_constraints)
        effective = self.options or options or AtpgOptions()
        overrides: dict[str, object] = {}
        if self.rng_seed is not None:
            overrides["random_seed"] = self.rng_seed
        if self.backend is not None:
            overrides["sim_backend"] = self.backend
        if overrides:
            effective = replace(effective, **overrides)  # type: ignore[arg-type]
        return TestSetup(
            name=self.setup_name,
            procedures=list(self.procedures(prepared)),
            observe_pos=self.observe_pos,
            hold_pis=self.hold_pis,
            pin_constraints=constraints,
            scan_enable_net=prepared.scan_enable_net,
            constrain_scan_enable=self.constrain_scan_enable,
            options=effective,
        )


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------
_REGISTRY: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, *, replace_existing: bool = False) -> ScenarioSpec:
    """Register a scenario under its name; returns the spec for chaining.

    Raises:
        ValueError: When the name is already taken and ``replace_existing``
            is not set.
    """
    if spec.name in _REGISTRY and not replace_existing:
        raise ValueError(
            f"scenario {spec.name!r} is already registered; pass "
            f"replace_existing=True to overwrite it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_scenario(name: str) -> None:
    """Remove a scenario from the registry (no-op when absent)."""
    _REGISTRY.pop(name, None)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario by name.

    Raises:
        ScenarioNotFound: With the list of available names in the message.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        available = ", ".join(sorted(_REGISTRY)) or "<registry is empty>"
        raise ScenarioNotFound(
            f"unknown scenario {name!r}; available scenarios: {available}"
        ) from None


def scenario_names(*, tag: str | None = None) -> list[str]:
    """Sorted names of all registered scenarios (optionally filtered by tag)."""
    if tag is None:
        return sorted(_REGISTRY)
    return sorted(name for name, spec in _REGISTRY.items() if tag in spec.tags)


def resolve_scenario(spec_or_name: "ScenarioSpec | str") -> ScenarioSpec:
    """Accept either a spec object or a registered name."""
    if isinstance(spec_or_name, ScenarioSpec):
        return spec_or_name
    return get_scenario(spec_or_name)
