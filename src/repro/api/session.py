"""`TestSession` — the library's front door.

A session binds one device under test (a synthetic SOC, a registered design
or an externally prepared design) to any number of registered scenarios::

    from repro.api import TestSession, scenarios
    from repro.runtime import Executor

    report = (
        TestSession.for_soc(size=2)
        .with_chains(8)
        .with_options(backtrack_limit=30)
        .add_scenarios(*scenarios.table1())
        .add_scenario("stuck-at-edt")
        .run(executor=Executor(backend="threads"))
    )
    print(report.table())

A session is a one-design :class:`~repro.api.campaign.Campaign` behind a
session-shaped facade: its queued scenarios are the campaign's scenario
axis, and planning, execution, caching, the pattern store, telemetry, kept
runs and diagnosis are the campaign's, so both front doors compute the same
keys and keep the same runs.  The session adds design overrides in place
(``with_size``/``with_seed``/``with_chains``/``with_soc``), lookups by
scenario name (:attr:`TestSession.artifacts`, :meth:`~TestSession.result_of`),
a :class:`~repro.api.report.RunReport` with the session header,
:meth:`~TestSession.diagnose`'s flexible arguments, and
:meth:`~TestSession.lint`/:meth:`~TestSession.instrumented`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Mapping, Sequence

from repro.api.campaign import Campaign
from repro.api.design import (
    DesignSpec,
    PreparedDesign,
    instrument_soc,
    prepare_from_spec,
    resolve_design,
)
from repro.api.pipeline import ScenarioRun
from repro.api.report import RunReport, ScenarioOutcome
from repro.api.scenario import ScenarioSpec
from repro.api.scenarios import resolve_scenario_or_letter
from repro.atpg.config import AtpgOptions, TestSetup
from repro.atpg.generator import AtpgResult
from repro.circuits.soc import SocDesign
from repro.engine.cache import ResultCache
from repro.obs.telemetry import Telemetry
from repro.patterns.store import PatternStore
from repro.runtime import Executor, Plan


class TestSession:
    """Fluent builder binding one device under test to scenario runs."""

    __test__ = False  # "Test" prefix is domain vocabulary, not a pytest class

    def __init__(
        self,
        *,
        size: int = 2,
        seed: int = 2005,
        num_chains: int = 6,
        options: AtpgOptions | None = None,
        soc: SocDesign | None = None,
        prepared: PreparedDesign | None = None,
        design: "DesignSpec | str | None" = None,
    ) -> None:
        #: The ad-hoc geometry of a ``for_soc`` session (None otherwise);
        #: the report header carries its size and seed.
        self._knobs: DesignSpec | None = None
        if prepared is not None:
            entry: DesignSpec | PreparedDesign = prepared
        elif design is not None:
            entry = resolve_design(design)
        else:
            entry = self._knobs = DesignSpec(
                name="adhoc", size=size, seed=seed, num_chains=num_chains
            )
            if soc is not None:
                entry = prepare_from_spec(self._knobs, soc=soc)
        self._campaign = Campaign._single(entry, options)
        self.report: RunReport | None = None

    # ----------------------------------------------------------- constructors
    @classmethod
    def for_soc(
        cls,
        size: int = 2,
        *,
        seed: int = 2005,
        num_chains: int = 6,
        soc: SocDesign | None = None,
    ) -> "TestSession":
        """Start a session on the synthetic SOC: the ``"adhoc"`` design spec
        of these knobs, or a caller-built ``soc`` (scan-inserted at once, in
        place, and then fixed like a :meth:`from_prepared` design)."""
        return cls(size=size, seed=seed, num_chains=num_chains, soc=soc)

    @classmethod
    def from_prepared(
        cls, prepared: PreparedDesign, options: AtpgOptions | None = None
    ) -> "TestSession":
        """Start a session on an already prepared (scan-inserted) design."""
        return cls(prepared=prepared, options=options)

    @classmethod
    def for_design(
        cls, design: "DesignSpec | str", options: AtpgOptions | None = None
    ) -> "TestSession":
        """Start a session on a registered (or ad-hoc) design spec, built
        lazily; ``with_size``/``with_seed``/``with_chains`` override its
        fields."""
        return cls(design=design, options=options)

    # -------------------------------------------------------- design overrides
    @property
    def _design(self) -> "tuple[str, DesignSpec | PreparedDesign]":
        """The campaign's one design: its label and its entry."""
        ((label, entry),) = self._campaign._designs.items()
        return label, entry

    def _restructure(self, **changes: object) -> "TestSession":
        """Override fields of the design spec; kept runs are dropped."""
        entry = self._design[1]
        if isinstance(entry, PreparedDesign):
            raise RuntimeError(
                "this session's design is already prepared (from_prepared or "
                "a caller-built SOC); its structure (size/seed/chains) cannot "
                "be changed"
            )
        spec = entry.with_overrides(**changes)
        if self._knobs is not None:
            self._knobs = spec
        self._campaign._rebind_design(spec)
        return self

    def with_size(self, size: int) -> "TestSession":
        return self._restructure(size=size)

    def with_seed(self, seed: int) -> "TestSession":
        return self._restructure(seed=seed)

    def with_chains(self, num_chains: int) -> "TestSession":
        return self._restructure(num_chains=num_chains)

    def with_soc(self, soc: SocDesign) -> "TestSession":
        """Switch to a caller-built SOC, scan-inserted at once with this
        session's ad-hoc chain count (the default geometry otherwise)."""
        if self._knobs is None and isinstance(self._design[1], PreparedDesign):
            raise RuntimeError(
                "this session was created from an already prepared design; "
                "its SOC cannot be changed"
            )
        self._knobs = self._knobs or DesignSpec(name="adhoc")
        self._campaign._rebind_design(prepare_from_spec(self._knobs, soc=soc))
        return self

    # ------------------------------------------- builders shared with Campaign
    def with_options(
        self, options: AtpgOptions | None = None, **knobs: object
    ) -> "TestSession":
        """See :meth:`Campaign.with_options <repro.api.campaign.Campaign.with_options>`."""
        self._campaign.with_options(options, **knobs)
        return self

    def with_cache(self, cache: "ResultCache | str | bool | None" = True) -> "TestSession":
        """See :meth:`Campaign.with_cache <repro.api.campaign.Campaign.with_cache>`."""
        self._campaign.with_cache(cache)
        return self

    def with_pattern_store(
        self, store: "PatternStore | str | None", *, stream: bool = False
    ) -> "TestSession":
        """See :meth:`Campaign.with_pattern_store <repro.api.campaign.Campaign.with_pattern_store>`."""
        self._campaign.with_pattern_store(store, stream=stream)
        return self

    def with_telemetry(self, telemetry: "Telemetry | bool | None" = True) -> "TestSession":
        """See :meth:`Campaign.with_telemetry <repro.api.campaign.Campaign.with_telemetry>`."""
        self._campaign.with_telemetry(telemetry)
        return self

    @property
    def options(self) -> AtpgOptions:
        return self._campaign.options

    @property
    def telemetry(self) -> Telemetry:
        return self._campaign.telemetry

    # ---------------------------------------------------------------- scenarios
    def add_scenario(
        self, spec_or_name: ScenarioSpec | str, **overrides: object
    ) -> "TestSession":
        """Queue a scenario (by spec, registered name or paper letter
        "a".."e") for the next run."""
        spec = resolve_scenario_or_letter(spec_or_name)
        if overrides:
            spec = replace(spec, **overrides)
        if spec.name in self._campaign.scenario_names:
            raise ValueError(f"scenario {spec.name!r} is already queued in this session")
        self._campaign._scenarios.append(spec)
        return self

    def add_scenarios(self, *specs_or_names: ScenarioSpec | str) -> "TestSession":
        for item in specs_or_names:
            self.add_scenario(item)
        return self

    @property
    def queued_scenarios(self) -> list[ScenarioSpec]:
        return list(self._campaign._scenarios)

    # --------------------------------------------------------- design views
    @property
    def prepared(self) -> PreparedDesign:
        """The (lazily built, cached) ATPG view of the device under test."""
        return self._campaign._prepared(self._design[0])

    @property
    def design_spec(self) -> "DesignSpec | None":
        """The declarative design spec this session builds from (if any)."""
        entry = self._design[1]
        return entry if isinstance(entry, DesignSpec) else entry.spec

    def instrumented(self, enhanced: bool = False):
        """The Figure 1 physical top (memoised per session and CPF flavour)."""
        return instrument_soc(self.prepared, enhanced=enhanced)

    def lint(self, setup: TestSetup | None = None, *, waivers=(), categories=None):
        """Run the static rule registry over the device under test and
        return a :class:`repro.analyze.LintReport`.  The constraint-aware
        rules use ``setup``, else the first queued scenario's, else none.
        """
        from repro.analyze import lint_design

        queued = self._campaign._scenarios
        if setup is None and queued:
            setup = queued[0].build_setup(self.prepared, self.options)
        return lint_design(
            self.prepared, setup, waivers=waivers, categories=categories
        )

    # ----------------------------------------------------------------- running
    def _queued(self) -> list[ScenarioSpec]:
        if not self._campaign._scenarios:
            raise RuntimeError("no scenarios queued; call add_scenario() first")
        return self._campaign._scenarios

    def plan(self) -> Plan:
        """Compile the queued scenarios into a declarative runtime plan
        (the one-design campaign's :meth:`~repro.api.campaign.Campaign.plan`)."""
        self._queued()
        return self._campaign.plan()

    def run_scenario(self, spec_or_name: ScenarioSpec | str) -> ScenarioOutcome:
        """Execute one scenario immediately (a one-job plan, run serially)."""
        spec = resolve_scenario_or_letter(spec_or_name)
        (cell,) = self._campaign._run_grid([spec], Executor(), {}).cells
        return cell.outcome

    def run(
        self,
        *,
        executor: "Executor | None" = None,
        on_event: "Callable | None" = None,
    ) -> RunReport:
        """Execute every queued scenario on ``executor`` (default: serial)
        and return the session report; results are identical across
        backends.  ``on_event`` sees every :class:`~repro.runtime.Event`.
        """
        queued = self._queued()
        metadata = self._session_metadata()
        grid = self._campaign._run_grid(
            queued, executor or Executor(), metadata, on_event=on_event
        )
        self.report = RunReport(
            session=metadata, outcomes=[cell.outcome for cell in grid.cells]
        )
        return self.report

    @property
    def artifacts(self) -> dict[str, ScenarioRun]:
        """Every kept scenario run (executed, cache-served or a diagnosis
        pattern provider), by scenario name."""
        return {
            scenario: run for (_, scenario), run in self._campaign.artifacts.items()
        }

    def result_of(self, name: str) -> AtpgResult:
        """The raw :class:`AtpgResult` of an executed fault-model scenario."""
        return self._campaign.result_of(self._design[0], name)

    def exported_patterns(self, name: str) -> str:
        """The STIL text an export-enabled scenario produced."""
        run = self.artifacts[name]
        if run.stil is None:
            raise ValueError(f"scenario {name!r} did not export patterns")
        return run.stil

    def table(self) -> str:
        """The last run's result table."""
        if self.report is None:
            raise RuntimeError("run() has not been called yet")
        return self.report.table()

    # --------------------------------------------------------------- diagnosis
    def diagnose(
        self,
        spec_or_defect: "object",
        *,
        scenario: "ScenarioSpec | str | None" = None,
        fail_log: "object | None" = None,
        executor: "Executor | None" = None,
        on_event: "Callable | None" = None,
        bp: "bool | object" = False,
        defects: "Sequence | None" = None,
        **overrides: object,
    ):
        """Diagnose a failing device against one scenario's pattern set.

        Closes the tester loop: the scenario's patterns are generated (or
        taken from :attr:`artifacts` or the cache), the defect is injected
        into the compiled circuit model, an ATE-style fail log is captured,
        and every cone-intersection candidate is fault-simulated on the
        session's engine backend and ranked by syndrome match.  Runs as the
        two-job plan of :meth:`diagnosis_plan`; a cached diagnosis prunes
        the provider (no ATPG), and a provider that lands is kept (and
        spilled) for the next diagnosis of the same scenario.

        Args:
            spec_or_defect: A :class:`~repro.diagnose.DiagnosisSpec`, a bare
                :class:`~repro.diagnose.DefectSpec` (then ``scenario`` is
                required), or a defect list (like ``defects=``).
            scenario: Scenario supplying the pattern set (name, spec or
                paper letter); overrides the spec's scenario.
            fail_log: An externally captured
                :class:`~repro.diagnose.FailLog` to diagnose instead of
                injecting a defect (content-addressed: a re-diagnosed
                tester log is a cache hit).
            executor: The :class:`~repro.runtime.Executor` (default: serial).
            on_event: Streaming :class:`~repro.runtime.Event` callback.
            bp: ``True`` (or a :class:`~repro.volume.BpOptions`) selects the
                loopy-BP plane (:func:`~repro.volume.run_bp_diagnosis`).
            defects: Several :class:`~repro.diagnose.DefectSpec` values to
                inject into one device (implies ``bp``).
            **overrides: Diagnosis spec field overrides
                (``candidate_kinds``, ``max_sites``, ``backend``, ...).

        Returns:
            A :class:`~repro.diagnose.DiagnosisResult`, or a
            :class:`~repro.volume.BpDiagnosisResult` on the BP plane.
        """
        if isinstance(spec_or_defect, (list, tuple)):
            # A defect *list* is the multi-defect front door: inject them
            # all into one device and let BP select the explaining set.
            if defects is not None:
                raise ValueError(
                    "pass the defect list either positionally or as "
                    "defects=, not both"
                )
            if not spec_or_defect:
                raise ValueError("the defect list is empty")
            defects = list(spec_or_defect)
            spec_or_defect = defects[0]
        spec, scenario_spec = self._resolve_diagnosis_request(
            spec_or_defect, scenario, overrides
        )
        bp_options = None
        if bp or defects is not None:
            from repro.volume import BpOptions

            bp_options = bp if isinstance(bp, BpOptions) else BpOptions()
        return self._campaign._diagnose_case(
            spec, scenario_spec, executor=executor or Executor(), on_event=on_event,
            fail_log=fail_log, bp=bp_options, defects=defects,
        )

    def diagnosis_plan(
        self,
        spec_or_defect: "object",
        *,
        scenario: "ScenarioSpec | str | None" = None,
        fail_log: "object | None" = None,
        **overrides: object,
    ) -> Plan:
        """Compile one diagnosis into a two-job runtime plan: an
        ``if_needed`` pattern provider (pruned when the diagnosis is served
        from the cache) feeding one diagnosis job."""
        spec, scenario_spec = self._resolve_diagnosis_request(
            spec_or_defect, scenario, overrides
        )
        return self._campaign._case_plan(spec, scenario_spec, fail_log=fail_log)

    def _resolve_diagnosis_request(
        self,
        spec_or_defect: "object",
        scenario: "ScenarioSpec | str | None",
        overrides: Mapping[str, object],
    ):
        """Normalize diagnose()'s flexible arguments to (spec, scenario spec).

        The resolved scenario *object* drives execution, so ad-hoc
        (unregistered) ScenarioSpec values work; only its name is stored on
        the JSON-safe DiagnosisSpec.
        """
        from repro.diagnose import DefectSpec, DiagnosisSpec

        scenario_spec = (
            resolve_scenario_or_letter(scenario) if scenario is not None else None
        )
        if isinstance(spec_or_defect, DefectSpec):
            if scenario_spec is None:
                raise ValueError(
                    "diagnosing a bare DefectSpec needs a scenario= argument"
                )
            spec = DiagnosisSpec(scenario=scenario_spec.name, defect=spec_or_defect)
        elif isinstance(spec_or_defect, DiagnosisSpec):
            spec = spec_or_defect
            if scenario_spec is not None:
                spec = spec.with_overrides(scenario=scenario_spec.name)
        else:
            raise TypeError(
                f"diagnose() takes a DiagnosisSpec or DefectSpec, "
                f"not {type(spec_or_defect).__name__}"
            )
        if overrides:
            spec = spec.with_overrides(**overrides)
        if scenario_spec is None:
            scenario_spec = resolve_scenario_or_letter(spec.scenario)
        return spec, scenario_spec

    def _session_metadata(self) -> dict[str, object]:
        """The :class:`RunReport` header (builds the design if needed)."""
        prepared = self.prepared
        meta: dict[str, object] = {
            "design": prepared.netlist.name,
            "num_chains": prepared.scan.num_chains,
            "scenarios": self._campaign.scenario_names,
        }
        spec = self.design_spec
        if spec is not None:
            meta["design_spec"] = spec.name
            meta["design_size"] = spec.size_estimate()
        if self._knobs is not None:
            meta["size"] = self._knobs.size
            meta["seed"] = self._knobs.seed
        return meta
