"""`Campaign` — design×scenario sweeps on the unified execution plane.

A campaign is the grid product of registered (or ad-hoc) designs and
registered scenarios::

    from repro.api import Campaign
    from repro.runtime import Executor

    report = (
        Campaign(designs=["table1-soc", "wide-edt"], scenarios=["a", "b", "c"])
        .with_cache(True)
        .run(executor=Executor(backend="processes"))
    )
    print(report.table("table1-soc"))   # byte-compatible with format_table1

Every cell (one design, one scenario) runs the fixed scenario pipeline of
:mod:`repro.api.pipeline`; a :class:`~repro.api.session.TestSession` is a
one-design campaign behind a session-shaped facade.  The campaign is a
*plan compiler*: :meth:`Campaign.plan` and :meth:`Campaign.diagnosis_plan`
lower the grid into :class:`~repro.runtime.Plan` graphs and
``run()``/``diagnose()`` hand them to a :class:`~repro.runtime.Executor`:

* **declarative device axis** — designs are
  :class:`~repro.api.design.DesignSpec` values resolved from the design
  registry (or built :class:`~repro.api.design.PreparedDesign` objects),
  built (:func:`~repro.api.design.prepare_from_spec`) once per design (and
  once per worker on the process backend);
* **cache-backed resume** — with :meth:`with_cache`, every cell job carries
  an engine cache key derived from the *spec* fingerprint
  (:func:`repro.engine.cache.campaign_cell_key`), so a re-run of an
  interrupted campaign serves completed cells from disk without even
  building their designs (the executor skips those jobs outright);
* **kept runs** — every pattern run that lands (grid cell or diagnosis
  provider) is kept in :attr:`Campaign.artifacts`, spilled to the pattern
  store, and seeds later diagnosis plans; new options drop them;
* **streaming report** — :class:`CampaignReport` grows cell by cell as the
  executor's events land (cache hits first, then executed cells in
  completion order) and an ``on_cell`` callback observes each one;
  per-design ``table()`` output stays byte-compatible with the legacy
  ``format_table1``.

Scenario names accept the paper's experiment letters ("a".."e") as
shorthand for the registered ``table1-*`` scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Mapping, Sequence

from repro.api.design import DesignSpec, PreparedDesign, resolve_design
from repro.api.lowering import (
    CampaignHandle,
    DiagnosisCase,
    execute_plan,
    fold_events,
    lower_diagnoses,
    scenario_job,
)
from repro.api.report import RunReport, ScenarioOutcome
from repro.api.scenario import ScenarioSpec
from repro.api.scenarios import resolve_scenario_or_letter
from repro.api.pipeline import ScenarioRun, materialize_design, outcome_of, spill_run
from repro.atpg.config import AtpgOptions
from repro.atpg.generator import AtpgResult
from repro.engine.cache import ResultCache, coerce_cache, design_identity
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, coerce_telemetry
from repro.patterns.store import PatternStore
from repro.records import JsonRecord
from repro.runtime import Event, Executor, Job, Plan, PlanResult
from repro.runtime.report import PlanReport, mark_cache_hit


# --------------------------------------------------------------------------
# Design entries
# --------------------------------------------------------------------------
def _design_entry(
    design: "DesignSpec | str | PreparedDesign",
) -> "tuple[str, DesignSpec | PreparedDesign]":
    """One design axis entry: its name and its plan resource."""
    if isinstance(design, PreparedDesign):
        # A spec-built design keeps its declarative name (and identity, see
        # design_identity), so cells computed from the prepared object and
        # from the bare spec share cache entries.
        return (design.spec.name if design.spec is not None else design.netlist.name), design
    spec = resolve_design(design)
    return spec.name, spec


# --------------------------------------------------------------------------
# Report
# --------------------------------------------------------------------------
@dataclass
class CampaignCell(JsonRecord):
    """One completed (design, scenario) grid cell, in JSON-safe form."""

    nested = {"outcome": ScenarioOutcome}

    design: str
    scenario: str
    outcome: ScenarioOutcome
    cell_key: str | None = None
    cache_hit: bool = False
    wall_seconds: float = 0.0


class CampaignReport(PlanReport):
    """Streaming per-cell campaign results.

    Cells are appended as they complete (:meth:`add_cell`); per-design views
    reshape them into the session-level :class:`~repro.api.report.RunReport`,
    whose ``table()`` is byte-compatible with ``format_table1`` for the
    built-in Table 1 scenarios.
    """

    cell_type = CampaignCell

    def designs(self) -> list[str]:
        return list(dict.fromkeys(cell.design for cell in self.cells))

    def scenarios(self) -> list[str]:
        return list(dict.fromkeys(cell.scenario for cell in self.cells))

    def cell(self, design: str, scenario: str) -> CampaignCell:
        """Look up one cell (scenario accepts name or experiment letter)."""
        for cell in self.cells:
            if cell.design == design and scenario in (
                cell.scenario, cell.outcome.legacy_key
            ):
                return cell
        raise KeyError(f"no campaign cell for design={design!r} scenario={scenario!r}")

    # ------------------------------------------------------------- formatting
    def run_report(self, design: str) -> RunReport:
        """One design's row of the grid as a session-level RunReport."""
        outcomes = [cell.outcome for cell in self.cells if cell.design == design]
        if not outcomes:
            available = ", ".join(self.designs()) or "<empty report>"
            raise KeyError(f"no cells for design {design!r}; report has: {available}")
        session = dict(self.campaign)
        session["design"] = design
        return RunReport(session=session, outcomes=outcomes)

    def table(
        self,
        design: str,
        title: str = "Table 1: Experimental Results",
        *,
        show_size: bool = False,
    ) -> str:
        """One design's fixed-width result table (format_table1-compatible).

        ``show_size=True`` appends the design's size-estimate NOTE line
        (from the campaign's ``design_sizes`` metadata); the default output
        stays byte-compatible with ``format_table1``.
        """
        return self.run_report(design).table(title=title, show_size=show_size)

    def summary(self) -> str:
        """One line per cell, in completion order."""
        lines = []
        for cell in self.cells:
            origin = "cache" if cell.cache_hit else "run"
            lines.append(
                f"{cell.design:<20} {cell.scenario:<28} "
                f"TC={cell.outcome.test_coverage:6.2f}%  "
                f"patterns={cell.outcome.pattern_count:5d}  "
                f"{origin:<5} {cell.wall_seconds:8.2f}s"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------- comparison
    def same_results(self, other: "CampaignReport") -> bool:
        """Deterministic-field equality over the full grid (ignores timing
        and cache provenance — a cache-resumed campaign must compare equal
        to the run that populated the cache)."""
        mine = {(c.design, c.scenario): c for c in self.cells}
        theirs = {(c.design, c.scenario): c for c in other.cells}
        if mine.keys() != theirs.keys():
            return False
        return all(
            mine[key].outcome.same_results(theirs[key].outcome) for key in mine
        )


# --------------------------------------------------------------------------
# The campaign
# --------------------------------------------------------------------------
class Campaign:
    """Fluent builder running a design×scenario grid through the engine."""

    def __init__(
        self,
        designs: Iterable["DesignSpec | str | PreparedDesign"],
        scenarios: Iterable["ScenarioSpec | str"],
        options: AtpgOptions | None = None,
    ) -> None:
        entries = [_design_entry(design) for design in designs]
        specs = [resolve_scenario_or_letter(item) for item in scenarios]
        if not entries:
            raise ValueError("a campaign needs at least one design")
        if not specs:
            raise ValueError("a campaign needs at least one scenario")
        names = [name for name, _ in entries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate designs in campaign: {names}")
        scenario_names = [spec.name for spec in specs]
        if len(set(scenario_names)) != len(scenario_names):
            raise ValueError(f"duplicate scenarios in campaign: {scenario_names}")
        self._bind(dict(entries), specs, options)

    @classmethod
    def _single(cls, design, options: AtpgOptions | None) -> "Campaign":
        """A one-design campaign whose scenario axis starts empty (the
        campaign behind a :class:`~repro.api.session.TestSession`)."""
        campaign = cls.__new__(cls)
        campaign._bind(dict([_design_entry(design)]), [], options)
        return campaign

    def _bind(self, designs: dict, scenarios: list, options: AtpgOptions | None) -> None:
        #: Design name -> declarative spec or built design (plan resource).
        self._designs = designs
        #: Designs built so far by design identity, shared with every plan
        #: as its ``_materialized`` resource: a design built by one run
        #: (in-parent) is reused, ATPG artefacts and all, by the next
        #: without a rebuild.
        self._built: dict[str, PreparedDesign] = {
            design_identity(design): design for design in designs.values()
            if isinstance(design, PreparedDesign)
        }
        self._scenarios = scenarios
        self.options = options or AtpgOptions()
        self._cache: ResultCache | None = None
        self._pattern_store: "PatternStore | None" = None
        self._pattern_store_stream = False
        self._telemetry: Telemetry = NULL_TELEMETRY
        self._lint = False
        self._lint_waivers: tuple = ()
        #: Diagnosis scoring schedulers, bound into every plan as the
        #: ``_schedulers`` memo: reused across diagnose() calls so one
        #: compiled circuit serves a whole device stream.  Dropped when the
        #: design or the options change.
        self._schedulers: dict = {}
        #: Syndrome dictionaries per pattern set, bound into every plan as
        #: the ``_syndromes`` memo: each diagnosis candidate is simulated
        #: once per pattern set across all diagnose() calls.
        self._syndromes: dict = {}
        #: LintReport per design from the last pre-flight gate (if enabled).
        self.lint_reports: dict[str, object] = {}
        #: Raw ScenarioRun per executed/cached cell, keyed (design, scenario).
        self.artifacts: dict[tuple[str, str], ScenarioRun] = {}
        self.report: CampaignReport | None = None
        #: The last :meth:`diagnose` sweep's report (None before the first).
        self.diagnosis_report = None
        #: The last :meth:`diagnose_volume` run's report (None before the first).
        self.volume_report = None

    def _rebind_design(self, design: "DesignSpec | PreparedDesign") -> None:
        """Replace a one-design campaign's design (a session's override)."""
        name, entry = _design_entry(design)
        self._designs = {name: entry}
        self._built = (
            {design_identity(entry): entry} if isinstance(entry, PreparedDesign) else {}
        )
        self._forget()

    def _forget(self) -> None:
        """Drop the kept runs, syndrome dictionaries and memoised
        schedulers: they describe the previous design or options."""
        self.artifacts.clear()
        self._syndromes.clear()
        self._schedulers.clear()

    # -------------------------------------------------------- fluent builders
    def with_options(
        self, options: AtpgOptions | None = None, **knobs: object
    ) -> "Campaign":
        """Set the ATPG options, or tweak individual knobs (the engine
        backend is one: ``sim_backend``).

        Kept :attr:`artifacts` and memoised schedulers are dropped:
        they were made under the old options (reusing them would pair stale
        patterns with a cache key derived from the new ones).
        """
        if options is not None and knobs:
            raise ValueError("pass either an AtpgOptions object or keyword knobs")
        self.options = options if options is not None else replace(self.options, **knobs)  # type: ignore[arg-type]
        self._forget()
        return self

    def with_cache(self, cache: "ResultCache | str | bool | None" = True) -> "Campaign":
        """Attach the persistent engine result cache (cell-level resume).

        Every job is keyed on (design identity, scenario+options
        fingerprint, engine version), so a rerun of an unchanged cell — in
        this or any later campaign or session — is served from disk without
        rebuilding its design (spec identities need no build).  ``cache``:
        ``True`` (default root, honoring ``REPRO_ENGINE_CACHE``), a
        directory, a :class:`~repro.engine.cache.ResultCache`, or
        ``False``/``None`` to detach.
        """
        self._cache = coerce_cache(cache)
        return self

    def with_pattern_store(
        self,
        store: "PatternStore | str | None",
        *,
        stream: bool = False,
    ) -> "Campaign":
        """Spill every kept run's patterns to a disk-backed store.

        Every run that lands — a grid cell or a diagnosis/volume pattern
        provider, executed or cache-served — is written to the
        :class:`~repro.patterns.store.PatternStore` (a path or store;
        ``None`` detaches) grouped by ``(design, scenario)``, once per group
        (:func:`~repro.api.pipeline.spill_run`).  ``stream=True`` replaces
        the kept in-memory sets by the store's lazy views (memory-bounded;
        the store file must outlive the run).
        """
        if store is not None and not isinstance(store, PatternStore):
            store = PatternStore(store)
        self._pattern_store = store
        self._pattern_store_stream = stream
        return self

    def with_telemetry(
        self, telemetry: "Telemetry | bool | None" = True
    ) -> "Campaign":
        """Attach an observability plane to every execution.

        Each plan runs with it active, so every layer below records spans
        and counters into it; the report header (``campaign``/``session``)
        carries the ``"telemetry"`` snapshot.  Accepts a
        :class:`~repro.obs.Telemetry`, ``True`` (fresh enabled) or
        ``False``/``None`` (detach: reports stay byte-identical).
        """
        self._telemetry = coerce_telemetry(telemetry)
        return self

    @property
    def telemetry(self) -> Telemetry:
        """The attached telemetry (the shared no-op unless attached)."""
        return self._telemetry

    def with_lint(self, enabled: bool = True, *, waivers: "Sequence | tuple" = ()) -> "Campaign":
        """Enable the static-analysis pre-flight gate: before any cell runs,
        every design is linted (:func:`repro.analyze.lint_design`, first
        scenario's setup) and unwaived ERROR findings raise
        :class:`repro.analyze.LintError`.  Opt-in: the gate builds every
        design up front, which defeats spec-laziness and cache-only resumes.
        """
        self._lint = enabled
        self._lint_waivers = tuple(waivers)
        return self

    def _preflight_lint(self) -> None:
        """Lint every design; raise ``LintError`` on unwaived errors."""
        if not self._lint:
            return
        from repro.analyze import lint_design

        self.lint_reports = {}
        failed: list[str] = []
        for name in self._designs:
            prepared = self._prepared(name)
            setup = self._scenarios[0].build_setup(prepared, self.options)
            report = lint_design(prepared, setup, waivers=self._lint_waivers)
            self.lint_reports[name] = report
            if not report.ok:
                failed.append(
                    f"{name}: " + "; ".join(str(f) for f in report.errors[:3])
                )
        if failed:
            from repro.analyze import LintError

            raise LintError(
                "campaign pre-flight lint failed — " + " | ".join(failed)
            )

    # --------------------------------------------------------------- queries
    @property
    def design_names(self) -> list[str]:
        return list(self._designs)

    @property
    def scenario_names(self) -> list[str]:
        return [spec.name for spec in self._scenarios]

    def grid(self) -> list[tuple[str, str]]:
        """The (design, scenario) cell grid, design-major."""
        return [
            (design, spec.name) for design in self._designs for spec in self._scenarios
        ]

    def _prepared(self, name: str) -> PreparedDesign:
        """One design of the grid, built at most once (memoised in
        ``_built``, which every plan shares as ``_materialized``)."""
        return materialize_design(
            {"designs": self._designs, "_materialized": self._built}, name
        )

    def result_of(self, design: str, scenario: str) -> AtpgResult:
        """The raw AtpgResult of one executed fault-model cell."""
        for (design_name, scenario_name), run in self.artifacts.items():
            if design_name == design and scenario in (
                scenario_name, run.spec.legacy_key
            ):
                if run.result is None:
                    raise ValueError(
                        f"cell ({design!r}, {scenario!r}) produced no AtpgResult "
                        f"(fault model {run.spec.fault_model!r})"
                    )
                return run.result
        raise KeyError(
            f"cell ({design!r}, {scenario!r}) has not been executed; "
            f"executed: {sorted(self.artifacts) or '<none>'}"
        )

    # ------------------------------------------------------- plan compilation
    def plan(self) -> Plan:
        """Compile the grid into a runtime plan: one ``"scenario"`` job per
        cell, keyed on the design identity (the *spec* fingerprint for
        spec-backed entries), so a cached executor skips completed cells of
        an interrupted run without building their designs."""
        return self._grid_plan(self._scenarios)

    def _grid_plan(self, specs: Sequence[ScenarioSpec]) -> Plan:
        resources = self._plan_resources(specs)
        return Plan(
            name="campaign",
            jobs=tuple(
                scenario_job(f"cell:{design}:{spec.name}", design, spec, resources)
                for design in self._designs
                for spec in specs
            ),
            metadata={
                "designs": self.design_names,
                "scenarios": [spec.name for spec in specs],
            },
            resources=resources,
        )

    def _plan_resources(self, specs: Sequence[ScenarioSpec]) -> dict[str, object]:
        """Runtime bindings for this campaign's plans: built designs ride
        along as-is, spec entries stay declarative (workers build only what
        their jobs touch); ``_``-prefixed memos never ship to workers."""
        return {
            "options": self.options,
            "designs": {
                name: self._built.get(design_identity(design), design)
                for name, design in self._designs.items()
            },
            "scenarios": {spec.name: spec for spec in specs},
            "_materialized": self._built,
            "_schedulers": self._schedulers,
            "_syndromes": self._syndromes,
        }

    # --------------------------------------------------------------- execution
    def _cached(self, executor: "Executor | None") -> bool:
        """Whether a result cache is in effect (the campaign's or the
        executor's; a serve tenant, ``executor=None``, always has one)."""
        return executor is None or executor.effective_cache(self._cache) is not None

    def _keep(self, job: Job, run: ScenarioRun, cache_hit: bool, cached: bool) -> ScenarioRun:
        """Keep one landed pattern run: spill it, stamp its cache
        provenance, record it in :attr:`artifacts`."""
        design, scenario = job.params["design"], job.params["scenario"]
        run = spill_run(
            run, self._pattern_store, design, stream=self._pattern_store_stream
        )
        if cached:
            run.cache_info = {"hit": cache_hit, "key": job.cache_key}
        self.artifacts[(design, scenario)] = run
        return run

    def _execute(
        self,
        plan: Plan,
        executor: Executor,
        *,
        metadata: "dict[str, object] | None" = None,
        on_event: "Callable[[Event], None] | None" = None,
    ) -> PlanResult:
        """The execute step behind every run: seed pattern providers from
        :attr:`artifacts`, execute under the campaign's cache and telemetry
        (``metadata`` is the report header), keep every provider that ran or
        came from the cache.  Grid cells are kept by :meth:`_fold`."""
        providers = [job for job in plan.jobs if job.if_needed]
        seeds: dict[str, object] = {}
        for job in providers:
            run = self.artifacts.get((job.params["design"], job.params["scenario"]))
            if run is not None and run.patterns is not None:
                seeds[job.id] = run
        result = execute_plan(
            plan, executor, cache=self._cache, telemetry=self._telemetry,
            metadata=metadata, seeds=seeds, on_event=on_event,
        )
        cached = self._cached(executor)
        for job in providers:
            landed = result.results.get(job.id)
            if landed is not None and landed.reason in (None, "cache", "coalesced"):
                self._keep(job, landed.value, landed.skipped, cached)
        return result

    def _run_grid(
        self,
        specs: Sequence[ScenarioSpec],
        executor: Executor,
        metadata: dict[str, object],
        *,
        on_cell: "Callable[[CampaignCell], None] | None" = None,
        on_event: "Callable[[Event], None] | None" = None,
    ) -> CampaignReport:
        """Run ``specs`` on every design; ``metadata`` is the report header."""
        plan = self._grid_plan(specs)
        report, handle, finalize = self._fold(
            plan, metadata, self._cached(executor), on_cell=on_cell, on_event=on_event
        )
        self._execute(plan, executor, metadata=report.campaign, on_event=handle)
        return finalize()

    # ----------------------------------------------------------------- running
    def run(
        self,
        *,
        on_cell: "Callable[[CampaignCell], None] | None" = None,
        executor: "Executor | None" = None,
        on_event: "Callable[[Event], None] | None" = None,
    ) -> CampaignReport:
        """Execute the grid (:meth:`plan`) on ``executor`` (default: serial)
        and return the streaming campaign report; results are identical
        across backends.  ``on_cell`` observes each :class:`CampaignCell`
        as it lands (cache hits first, then completion order); ``on_event``
        sees every raw :class:`~repro.runtime.Event`.
        """
        executor = executor or Executor()
        self._preflight_lint()
        return self._run_grid(
            self._scenarios, executor, self._metadata(executor),
            on_cell=on_cell, on_event=on_event,
        )

    # ------------------------------------------------------------- submission
    def submit(
        self,
        client,
        *,
        tenant: str = "default",
        name: "str | None" = None,
        metadata: "Mapping[str, object] | None" = None,
    ) -> CampaignHandle:
        """Submit the grid to a running serve server; returns a handle.

        The fire-and-forget counterpart of :meth:`run`: the same plan ships
        to the server (a :class:`~repro.serve.ServeClient`, or anything with
        ``submit``/``wait``/``status``/``cancel``) and executes there
        against ``tenant``'s persistent result cache; ``metadata`` (e.g.
        ``{"backend": "threads"}``) rides with the submission.  The
        :class:`~repro.api.lowering.CampaignHandle` streams progress,
        cancels, and assembles the :class:`CampaignReport` through the fold
        ``run()`` uses, so the report is identical to a local run's.
        """
        self._preflight_lint()
        plan = self.plan()
        job_id = client.submit(
            plan, tenant=tenant, name=name or "campaign", metadata=metadata
        )
        header = self._metadata(None)
        return CampaignHandle(
            client, job_id, plan,
            fold=lambda **callbacks: self._fold(plan, header, cached=True, **callbacks),
        )

    # --------------------------------------------------------------- diagnosis
    def diagnosis_plan(
        self, defects: Iterable[object], **spec_overrides: object
    ) -> Plan:
        """Compile a design×scenario×defect sweep into one runtime plan.

        Per (design, scenario) row one ``if_needed`` pattern provider (keyed
        like the :meth:`plan` cells), per defect one ``"diagnosis"`` job on
        it; a fully cached sweep prunes every provider (no build, no ATPG).
        """
        from repro.diagnose import DiagnosisSpec

        defect_list = list(defects)
        if not defect_list:
            raise ValueError("a diagnosis campaign needs at least one defect")
        cases = [
            DiagnosisCase(
                id=f"diagnose:{design}:{scenario.name}:{index}",
                design=design,
                scenario=scenario.name,
                spec=DiagnosisSpec(
                    scenario=scenario.name, defect=defect, **spec_overrides  # type: ignore[arg-type]
                ),
                described=defect.describe(),
            )
            for design in self._designs
            for scenario in self._scenarios
            for index, defect in enumerate(defect_list)
        ]
        return lower_diagnoses(
            cases,
            self._plan_resources(self._scenarios),
            name="campaign-diagnosis",
            metadata={
                "designs": self.design_names,
                "scenarios": self.scenario_names,
                "defects": [defect.describe() for defect in defect_list],
            },
        )

    def diagnose(
        self,
        defects: Iterable[object],
        *,
        on_cell: "Callable[[object], None] | None" = None,
        executor: "Executor | None" = None,
        on_event: "Callable[[Event], None] | None" = None,
        **spec_overrides: object,
    ):
        """Sweep a design x scenario x defect diagnosis grid.

        Every cell injects one of ``defects`` into one design, runs the
        scenario's patterns against it, captures the fail log and ranks the
        candidates — one :class:`~repro.diagnose.DiagnosisCell` per cell,
        streamed into a :class:`~repro.diagnose.DiagnosisReport`.  The sweep
        is one plan (:meth:`diagnosis_plan`): each (design, scenario) row's
        patterns are generated once — or taken from :attr:`artifacts` — and
        the provider that lands is kept (and spilled) like a grid cell; with
        :meth:`with_cache` both resume from the engine cache.
        ``spec_overrides`` are extra :class:`~repro.diagnose.DiagnosisSpec`
        fields for every cell; ``executor``/``on_cell``/``on_event`` as in
        :meth:`run`.
        """
        from repro.diagnose import DiagnosisCell, DiagnosisReport, DiagnosisSpec

        def cell_of(job: Job, result, cache_hit: bool) -> DiagnosisCell:
            spec = DiagnosisSpec.from_dict(job.params["spec"])
            return DiagnosisCell.from_result(
                job.params["design"], spec, mark_cache_hit(result, cache_hit)
            )

        executor = executor or Executor()
        self._preflight_lint()
        plan = self.diagnosis_plan(defects, **spec_overrides)
        header = {**self._metadata(executor), "defects": list(plan.metadata["defects"])}
        report, handle, finalize = fold_events(
            plan, DiagnosisReport(campaign=header), cell_of,
            on_cell=on_cell, on_event=on_event,
        )
        self._execute(plan, executor, metadata=report.campaign, on_event=handle)
        self.diagnosis_report = finalize()
        return self.diagnosis_report

    def _case_plan(
        self,
        spec,
        scenario_spec: ScenarioSpec,
        *,
        fail_log: "object | None" = None,
        bp: "object | None" = None,
        defects: "Sequence | None" = None,
    ) -> Plan:
        """Lower one diagnosis on a one-design campaign: an ``if_needed``
        pattern provider feeding one diagnosis job (``bp``, a
        :class:`~repro.volume.BpOptions`, selects the BP plane)."""
        (design,) = self._designs
        if defects:
            described = " + ".join(defect.describe() for defect in defects)
        elif spec.defect is not None:
            described = spec.defect.describe()
        else:
            described = "fail-log"
        prefix = "diagnose" if bp is None else "bp-diagnose"
        case = DiagnosisCase(
            id=f"{prefix}:{scenario_spec.name}",
            design=design,
            scenario=scenario_spec.name,
            spec=spec,
            described=described,
            bp=bp,
            defects=tuple(defects or ()),
            log=None if fail_log is None else "external",
            fail_log=fail_log,
        )
        return lower_diagnoses(
            [case],
            self._plan_resources([scenario_spec]),
            name=f"{prefix}:{design}:{scenario_spec.name}",
            metadata={
                "design": design,
                "scenario": scenario_spec.name,
                "defect": described,
            },
        )

    def _diagnose_case(
        self,
        spec,
        scenario_spec: ScenarioSpec,
        *,
        executor: Executor,
        on_event: "Callable[[Event], None] | None" = None,
        **case: object,
    ):
        """Execute one :meth:`_case_plan` diagnosis; returns the raw
        :class:`~repro.diagnose.DiagnosisResult` (or BP result), flagged
        ``cache_hit`` when the diagnosis came from the cache."""
        plan = self._case_plan(spec, scenario_spec, **case)
        diagnosis = self._execute(plan, executor, on_event=on_event)[plan.jobs[-1].id]
        return mark_cache_hit(diagnosis.value, diagnosis.skipped)

    # ----------------------------------------------------------------- volume
    def volume_plan(
        self,
        store,
        spec=None,
        *,
        scenario: "ScenarioSpec | str | None" = None,
        **spec_overrides: object,
    ) -> Plan:
        """Compile a fail-log store's share of this campaign (records of
        other designs are skipped) into one plan of content-addressed
        ``"bp-diagnosis"`` jobs (:func:`~repro.volume.run.volume_plan`).

        The plan binds the campaign's memos, so built designs, scoring
        schedulers and syndrome dictionaries carry over between
        :meth:`diagnose_volume` calls."""
        from repro.volume.run import VolumeSpec
        from repro.volume.run import volume_plan as compile_volume_plan

        records = list(store.records() if hasattr(store, "records") else store)
        records = [record for record in records if record.design in self._designs]
        if not records:
            raise ValueError(
                f"the fail-log store holds no records for this campaign's "
                f"designs ({sorted(self._designs)})"
            )
        if scenario is None:
            scenario_name = self._scenarios[0].name
        else:
            scenario_name = resolve_scenario_or_letter(scenario).name
        if spec is None:
            spec = VolumeSpec(scenario=scenario_name, **spec_overrides)  # type: ignore[arg-type]
        elif spec_overrides or scenario is not None:
            spec = spec.with_overrides(scenario=scenario_name, **spec_overrides)
        resources = self._plan_resources(self._scenarios)
        return compile_volume_plan(
            records,
            resources["designs"],
            resources["scenarios"],
            spec,
            options=self.options,
            memos={key: value for key, value in resources.items() if key.startswith("_")},
        )

    def diagnose_volume(
        self,
        store,
        spec=None,
        *,
        on_cell: "Callable[[object], None] | None" = None,
        scenario: "ScenarioSpec | str | None" = None,
        executor: "Executor | None" = None,
        on_event: "Callable[[Event], None] | None" = None,
        **spec_overrides: object,
    ):
        """Diagnose every stored fail log with loopy BP as one plan.

        The volume counterpart of :meth:`diagnose`: the evidence axis is a
        :class:`~repro.volume.FailLogStore` (or any record iterable) and
        each log's verdict is a BP-selected candidate *set* with calibrated
        confidences, streamed into a
        :class:`~repro.volume.BpDiagnosisReport`.  Pattern providers behave
        as in :meth:`diagnose`.  ``spec`` (a
        :class:`~repro.volume.VolumeSpec`) is built from ``scenario`` (for
        records without their own label; default: the first scenario) and
        ``spec_overrides`` when omitted; ``executor``/``on_cell``/
        ``on_event`` as in :meth:`run`.
        """
        from repro.volume.run import volume_report_builder

        executor = executor or Executor()
        self._preflight_lint()
        plan = self.volume_plan(store, spec, scenario=scenario, **spec_overrides)
        report, handle, finalize = volume_report_builder(
            plan, metadata=self._metadata(executor), on_cell=on_cell, on_event=on_event
        )
        self._execute(plan, executor, metadata=report.campaign, on_event=handle)
        self.volume_report = finalize()
        return self.volume_report

    def submit_volume(
        self,
        client,
        store,
        spec=None,
        *,
        scenario: "ScenarioSpec | str | None" = None,
        tenant: str = "default",
        name: "str | None" = None,
        metadata: "Mapping[str, object] | None" = None,
        **spec_overrides: object,
    ) -> CampaignHandle:
        """Submit a volume-diagnosis plan to a running serve server.

        The fire-and-forget counterpart of :meth:`diagnose_volume`, as
        :meth:`submit` is of :meth:`run`.
        """
        from repro.volume.run import submit_volume as submit_volume_plan

        self._preflight_lint()
        plan = self.volume_plan(store, spec, scenario=scenario, **spec_overrides)
        return submit_volume_plan(
            client, plan, tenant=tenant, name=name or "volume", metadata=metadata
        )

    # -------------------------------------------------------------- internals
    def _metadata(self, executor: "Executor | None") -> dict[str, object]:
        """The report header; ``executor=None`` == a serve submission."""
        return {
            "designs": self.design_names,
            "scenarios": self.scenario_names,
            "design_sizes": self._design_sizes(),
            "backend": "serve" if executor is None else executor.backend,
            "cached": self._cached(executor),
        }

    def _design_sizes(self) -> dict[str, dict[str, object]]:
        """Build-free size estimates per design (scaling-report metadata).

        Spec-backed entries use :meth:`DesignSpec.size_estimate`; designs
        already built report their exact netlist stats instead.
        """
        sizes: dict[str, dict[str, object]] = {}
        for name, design in self._designs.items():
            prepared = self._built.get(design_identity(design))
            if prepared is not None:
                stats = prepared.netlist.stats()
                sizes[name] = {
                    "family": "prepared",
                    "gates": stats.num_gates,
                    "flops": stats.num_flops,
                    "exact": True,
                }
            else:
                sizes[name] = design.size_estimate()
        return sizes

    def _fold(
        self,
        plan: Plan,
        metadata: dict[str, object],
        cached: bool,
        *,
        on_cell: "Callable[[CampaignCell], None] | None" = None,
        on_event: "Callable[[Event], None] | None" = None,
    ) -> "tuple[CampaignReport, Callable[[Event], None], Callable[[], CampaignReport]]":
        """Fold a grid plan's events into a :class:`CampaignReport`, keeping
        each landed cell's run (:meth:`_keep`).  Shared by local runs and
        the serve handle, so both assemble the same report."""

        def cell_of(job: Job, run: ScenarioRun, cache_hit: bool) -> CampaignCell:
            run = self._keep(job, run, cache_hit, cached)
            return CampaignCell(
                design=job.params["design"],
                scenario=job.params["scenario"],
                outcome=outcome_of(run),
                cell_key=job.cache_key if cached else None,
                cache_hit=cache_hit,
                wall_seconds=sum(run.stage_seconds.values()),
            )

        report, handle, finalize = fold_events(
            plan, CampaignReport(campaign=metadata), cell_of,
            on_cell=on_cell, on_event=on_event,
        )

        def keep() -> CampaignReport:
            self.report = finalize()
            return self.report

        return report, handle, keep
