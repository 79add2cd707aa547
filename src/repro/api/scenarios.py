"""Built-in scenario catalog: the paper's Table 1 set plus extended workloads.

The five configurations of Beck et al. Section 5.1 are registered as
``table1-a`` .. ``table1-e``; :func:`table1` returns them in order for
``TestSession.add_scenarios(*table1())``.  The extended scenarios exercise
combinations the legacy hard-coded experiment ladder could not express —
path-delay test under the simple CPF, stuck-at with EDT compression,
a mixed stuck-at+transition sweep, inter-domain-only transition test, and a
compressed-and-exported CPF pattern set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.api.scenario import (
    ScenarioSpec,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.clocking.named_capture import (
    NamedCaptureProcedure,
    enhanced_cpf_procedures,
    external_clock_procedures,
    simple_cpf_procedures,
    stuck_at_procedures,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.design import PreparedDesign

#: The paper's experiment letters, in Table 1 order.
TABLE1_KEYS = ("a", "b", "c", "d", "e")

#: The paper's per-experiment configuration summaries (the Table 1 row text).
TABLE1_DESCRIPTIONS: Mapping[str, str] = {
    "a": "Stuck-at test, single external clock",
    "b": "Transition test, single external clock (reference)",
    "c": "Transition test, simple 2-pulse CPF per domain",
    "d": "Transition test, enhanced CPF (2-4 pulses, inter-domain)",
    "e": "Transition test, external clock with ATE constraints/masking",
}


# ------------------------------------------------------------------ factories
def _procs_a(prepared: "PreparedDesign") -> Sequence[NamedCaptureProcedure]:
    return stuck_at_procedures(prepared.all_domain_names, max_pulses=2)


def _procs_b(prepared: "PreparedDesign") -> Sequence[NamedCaptureProcedure]:
    return external_clock_procedures(prepared.all_domain_names, max_pulses=4)


def _procs_c(prepared: "PreparedDesign") -> Sequence[NamedCaptureProcedure]:
    return simple_cpf_procedures(prepared.functional_domain_names)


def _procs_d(prepared: "PreparedDesign") -> Sequence[NamedCaptureProcedure]:
    return enhanced_cpf_procedures(
        prepared.functional_domain_names, max_pulses=4, inter_domain=True
    )


def _procs_e(prepared: "PreparedDesign") -> Sequence[NamedCaptureProcedure]:
    return external_clock_procedures(
        prepared.functional_domain_names, max_pulses=4, name_prefix="extc"
    )


def _procs_interdomain_only(prepared: "PreparedDesign") -> Sequence[NamedCaptureProcedure]:
    """Only the launch-in-A / capture-in-B procedures of the enhanced CPF."""
    return [
        procedure
        for procedure in enhanced_cpf_procedures(
            prepared.functional_domain_names, max_pulses=3, inter_domain=True
        )
        if procedure.is_inter_domain
    ]


# ----------------------------------------------------------- Table 1 built-ins
TABLE1_A = register_scenario(
    ScenarioSpec(
        name="table1-a",
        description=TABLE1_DESCRIPTIONS["a"],
        procedures=_procs_a,
        fault_model="stuck-at",
        observe_pos=True,
        hold_pis=False,
        constrain_scan_enable=False,
        legacy_key="a",
        tags=("paper", "table1"),
    )
)

TABLE1_B = register_scenario(
    ScenarioSpec(
        name="table1-b",
        description=TABLE1_DESCRIPTIONS["b"],
        procedures=_procs_b,
        fault_model="transition",
        observe_pos=True,
        hold_pis=False,
        constrain_scan_enable=False,
        legacy_key="b",
        tags=("paper", "table1"),
    )
)

TABLE1_C = register_scenario(
    ScenarioSpec(
        name="table1-c",
        description=TABLE1_DESCRIPTIONS["c"],
        procedures=_procs_c,
        fault_model="transition",
        observe_pos=False,
        hold_pis=True,
        constrain_scan_enable=True,
        legacy_key="c",
        tags=("paper", "table1"),
    )
)

TABLE1_D = register_scenario(
    ScenarioSpec(
        name="table1-d",
        description=TABLE1_DESCRIPTIONS["d"],
        procedures=_procs_d,
        fault_model="transition",
        observe_pos=False,
        hold_pis=True,
        constrain_scan_enable=True,
        legacy_key="d",
        tags=("paper", "table1"),
    )
)

TABLE1_E = register_scenario(
    ScenarioSpec(
        name="table1-e",
        description=TABLE1_DESCRIPTIONS["e"],
        procedures=_procs_e,
        fault_model="transition",
        observe_pos=False,
        hold_pis=True,
        constrain_scan_enable=True,
        legacy_key="e",
        tags=("paper", "table1"),
    )
)


# --------------------------------------------------------- extended scenarios
PATH_DELAY_SIMPLE_CPF = register_scenario(
    ScenarioSpec(
        name="path-delay-simple-cpf",
        description="Path-delay test on critical paths, simple 2-pulse CPF",
        procedures=_procs_c,
        fault_model="path-delay",
        observe_pos=False,
        hold_pis=True,
        constrain_scan_enable=True,
        path_count=12,
        tags=("extended", "path-delay"),
    )
)

STUCK_AT_EDT = register_scenario(
    ScenarioSpec(
        name="stuck-at-edt",
        description="Stuck-at test with EDT compression (2 channels)",
        procedures=_procs_a,
        fault_model="stuck-at",
        observe_pos=True,
        hold_pis=False,
        constrain_scan_enable=False,
        static_compaction=True,
        edt_channels=2,
        tags=("extended", "compression"),
    )
)

MIXED_CONSTRAINED_SWEEP = register_scenario(
    ScenarioSpec(
        name="mixed-constrained-sweep",
        description="Mixed stuck-at + transition sweep under ATE constraints",
        procedures=_procs_e,
        fault_model="mixed",
        observe_pos=False,
        hold_pis=True,
        constrain_scan_enable=True,
        tags=("extended", "mixed"),
    )
)

TRANSITION_INTERDOMAIN_ONLY = register_scenario(
    ScenarioSpec(
        name="transition-interdomain-only",
        description="Transition test restricted to inter-domain launch/capture",
        procedures=_procs_interdomain_only,
        fault_model="transition",
        observe_pos=False,
        hold_pis=True,
        constrain_scan_enable=True,
        tags=("extended", "inter-domain"),
    )
)

TRANSITION_CPF_EDT_EXPORT = register_scenario(
    ScenarioSpec(
        name="transition-cpf-edt-export",
        description="Simple-CPF transition test, EDT-compressed, STIL export",
        procedures=_procs_c,
        fault_model="transition",
        observe_pos=False,
        hold_pis=True,
        constrain_scan_enable=True,
        edt_channels=2,
        export_patterns=True,
        tags=("extended", "compression", "export"),
    )
)


# ----------------------------------------------------------------- accessors
def table1() -> tuple[ScenarioSpec, ...]:
    """The five Table 1 scenarios (a)–(e), in paper order."""
    return (TABLE1_A, TABLE1_B, TABLE1_C, TABLE1_D, TABLE1_E)


def table1_scenario(key: str) -> ScenarioSpec:
    """The Table 1 scenario for one paper experiment letter ("a".."e")."""
    key = key.lower()
    if key not in TABLE1_KEYS:
        raise KeyError(
            f"unknown experiment {key!r} (expected one of {TABLE1_KEYS})"
        )
    return get_scenario(f"table1-{key}")


def extended() -> tuple[ScenarioSpec, ...]:
    """The registered non-paper scenarios, sorted by name."""
    return tuple(get_scenario(name) for name in scenario_names(tag="extended"))


def resolve_scenario_or_letter(spec_or_name: "ScenarioSpec | str") -> ScenarioSpec:
    """Scenario lookup that also accepts the paper's experiment letters.

    The shared resolver behind campaign and diagnosis front doors: a
    :class:`ScenarioSpec` passes through unchanged (registered or not), a
    letter "a".."e" maps to its ``table1-*`` scenario, anything else is a
    registry name.
    """
    from repro.api.scenario import resolve_scenario

    if isinstance(spec_or_name, str) and spec_or_name.lower() in TABLE1_KEYS:
        return table1_scenario(spec_or_name)
    return resolve_scenario(spec_or_name)
