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

Each cell (one design, one scenario) executes the same scenario pipeline a
:class:`~repro.api.session.TestSession` runs, so a one-design campaign and a
session produce identical outcomes.  The campaign itself is a *plan
compiler*: :meth:`Campaign.plan` and :meth:`Campaign.diagnosis_plan` lower
the grid into declarative :class:`~repro.runtime.Plan` graphs and
``run()``/``diagnose()`` hand them to a :class:`~repro.runtime.Executor`.
What the campaign layer adds:

* **declarative device axis** — designs are
  :class:`~repro.api.design.DesignSpec` values resolved from the design
  registry, built (:func:`~repro.api.design.prepare_from_spec`) once per
  design (and once per worker on the process backend);
* **cache-backed resume** — with :meth:`with_cache`, every cell job carries
  an engine cache key derived from the *spec* fingerprint
  (:func:`repro.engine.cache.campaign_cell_key`), so a re-run of an
  interrupted campaign serves completed cells from disk without even
  building their designs (the executor skips those jobs outright);
* **streaming report** — :class:`CampaignReport` grows cell by cell as the
  executor's events land (cache hits first, then executed cells in
  completion order) and an ``on_cell`` callback observes each one;
  per-design ``table()`` output stays byte-compatible with the legacy
  ``format_table1``.

Scenario names accept the paper's experiment letters ("a".."e") as
shorthand for the registered ``table1-*`` scenarios.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
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
from repro.api.session import ScenarioRun, materialize_design, outcome_of, spill_run
from repro.atpg.config import AtpgOptions
from repro.atpg.generator import AtpgResult
from repro.engine.cache import ResultCache, coerce_cache
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, coerce_telemetry
from repro.patterns.store import PatternStore
from repro.runtime import Event, Executor, Job, Plan


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
class CampaignCell:
    """One completed (design, scenario) grid cell, in JSON-safe form."""

    design: str
    scenario: str
    outcome: ScenarioOutcome
    cell_key: str | None = None
    cache_hit: bool = False
    wall_seconds: float = 0.0

    def to_dict(self) -> dict[str, object]:
        return {
            "design": self.design,
            "scenario": self.scenario,
            "outcome": self.outcome.to_dict(),
            "cell_key": self.cell_key,
            "cache_hit": self.cache_hit,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignCell":
        payload = dict(data)
        payload["outcome"] = ScenarioOutcome.from_dict(payload["outcome"])  # type: ignore[arg-type]
        return cls(**payload)  # type: ignore[arg-type]


@dataclass
class CampaignReport:
    """Streaming per-cell campaign results.

    Cells are appended as they complete (:meth:`add_cell`); per-design views
    reshape them into the session-level :class:`~repro.api.report.RunReport`,
    whose ``table()`` is byte-compatible with ``format_table1`` for the
    built-in Table 1 scenarios.
    """

    campaign: dict[str, object] = field(default_factory=dict)
    cells: list[CampaignCell] = field(default_factory=list)

    # ------------------------------------------------------------- collection
    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def add_cell(self, cell: CampaignCell) -> CampaignCell:
        self.cells.append(cell)
        return cell

    def designs(self) -> list[str]:
        seen: list[str] = []
        for cell in self.cells:
            if cell.design not in seen:
                seen.append(cell.design)
        return seen

    def scenarios(self) -> list[str]:
        seen: list[str] = []
        for cell in self.cells:
            if cell.scenario not in seen:
                seen.append(cell.scenario)
        return seen

    def cell(self, design: str, scenario: str) -> CampaignCell:
        """Look up one cell (scenario accepts name or experiment letter)."""
        for cell in self.cells:
            if cell.design == design and scenario in (
                cell.scenario, cell.outcome.legacy_key
            ):
                return cell
        raise KeyError(f"no campaign cell for design={design!r} scenario={scenario!r}")

    def cache_hits(self) -> int:
        return sum(1 for cell in self.cells if cell.cache_hit)

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

    # ---------------------------------------------------------- serialization
    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "campaign": self.campaign,
            "cells": [cell.to_dict() for cell in self.cells],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignReport":
        payload = json.loads(text)
        return cls(
            campaign=dict(payload.get("campaign", {})),
            cells=[CampaignCell.from_dict(item) for item in payload.get("cells", [])],
        )

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
        self._scenarios = [resolve_scenario_or_letter(item) for item in scenarios]
        if not entries:
            raise ValueError("a campaign needs at least one design")
        if not self._scenarios:
            raise ValueError("a campaign needs at least one scenario")
        names = [name for name, _ in entries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate designs in campaign: {names}")
        #: Design name -> declarative spec or built design (plan resource).
        self._designs: dict[str, DesignSpec | PreparedDesign] = dict(entries)
        #: Designs built so far, shared with every plan as its
        #: ``_materialized`` resource: a design built by one run (in-parent)
        #: is reused by the next without a rebuild.
        self._built: dict[str, PreparedDesign] = {
            name: design for name, design in entries
            if isinstance(design, PreparedDesign)
        }
        scenario_names = [spec.name for spec in self._scenarios]
        if len(set(scenario_names)) != len(scenario_names):
            raise ValueError(f"duplicate scenarios in campaign: {scenario_names}")
        self.options = options or AtpgOptions()
        self._cache: ResultCache | None = None
        self._pattern_store: "PatternStore | None" = None
        self._pattern_store_stream = False
        self._telemetry: Telemetry = NULL_TELEMETRY
        self._lint = False
        self._lint_waivers: tuple = ()
        #: LintReport per design from the last pre-flight gate (if enabled).
        self.lint_reports: dict[str, object] = {}
        #: Raw ScenarioRun per executed/cached cell, keyed (design, scenario).
        self.artifacts: dict[tuple[str, str], ScenarioRun] = {}
        self.report: CampaignReport | None = None
        #: The last :meth:`diagnose` sweep's report (None before the first).
        self.diagnosis_report = None
        #: The last :meth:`diagnose_volume` run's report (None before the first).
        self.volume_report = None

    # -------------------------------------------------------- fluent builders
    def with_options(
        self, options: AtpgOptions | None = None, **knobs: object
    ) -> "Campaign":
        """Set the campaign's ATPG options, or tweak individual knobs
        (``sim_backend``/``sim_shards``/``sim_workers`` select the engine
        backend fault simulation runs on inside each cell)."""
        if options is not None and knobs:
            raise ValueError("pass either an AtpgOptions object or keyword knobs")
        if options is not None:
            self.options = options
        else:
            self.options = replace(self.options, **knobs)  # type: ignore[arg-type]
        return self

    def with_cache(self, cache: "ResultCache | str | bool | None" = True) -> "Campaign":
        """Attach the persistent engine result cache (cell-level resume).

        Every cell is keyed on (design fingerprint, scenario+options
        fingerprint, engine version); re-running a campaign after an
        interruption serves all previously completed cells from disk —
        without rebuilding their designs, because spec-backed fingerprints
        are computed from the declarative spec alone.
        """
        self._cache = coerce_cache(cache)
        return self

    def with_pattern_store(
        self,
        store: "PatternStore | str | None",
        *,
        stream: bool = False,
    ) -> "Campaign":
        """Spill every landed grid cell's patterns to a disk-backed store.

        Each cell's pattern set — executed or served from the cache — lands
        in the :class:`~repro.patterns.store.PatternStore` grouped by
        ``(design, scenario)`` as the cell folds into the report
        (:func:`~repro.api.session.spill_run`): written once per group, so
        an interrupted campaign resumed over the same store does not
        duplicate.  With ``stream=True`` the kept runs' in-memory sets are
        replaced by the store's lazy views (memory-bounded at SoC scale).
        Diagnosis and volume pattern providers do not spill.
        """
        self._pattern_store = (
            store
            if store is None or isinstance(store, PatternStore)
            else PatternStore(store)
        )
        self._pattern_store_stream = stream
        return self

    def with_telemetry(
        self, telemetry: "Telemetry | bool | None" = True
    ) -> "Campaign":
        """Attach an observability plane to this campaign's executions.

        ``run()``/``diagnose()`` activate it around their plan execution —
        every layer below (executor waves, scenario pipelines, ATPG, fault-sim
        shards, the cache) records spans and counters into it, and the
        report's ``campaign["telemetry"]`` carries the metrics snapshot.
        Accepts a :class:`~repro.obs.Telemetry`, ``True`` (fresh enabled)
        or ``False``/``None`` (detach; the default no-op leaves reports
        byte-identical to an un-instrumented campaign).
        """
        self._telemetry = coerce_telemetry(telemetry)
        return self

    @property
    def telemetry(self) -> Telemetry:
        """The campaign's telemetry (the shared no-op unless attached)."""
        return self._telemetry

    def with_lint(self, enabled: bool = True, *, waivers: "Sequence | tuple" = ()) -> "Campaign":
        """Enable the static-analysis pre-flight gate.

        Before any cell executes, every design on the grid is linted
        (:func:`repro.analyze.lint_design`, with the first scenario's
        :class:`~repro.atpg.config.TestSetup` as the constraint
        environment).  Unwaived ERROR findings abort the campaign with a
        :class:`repro.analyze.LintError` before a single pattern is
        generated.  Opt-in because the gate must materialize every design
        up front, which defeats spec-laziness and cache-only resumes.
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
        resources = self._plan_resources()
        for name in self._designs:
            prepared = materialize_design(resources, name)
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
        """Compile the design×scenario grid into a declarative runtime plan.

        One ``"scenario"`` job per cell, no inter-cell dependencies; each
        job's cache key derives from the design identity (the *spec*
        fingerprint for spec-backed entries), so an
        :class:`~repro.runtime.Executor` with this campaign's cache skips
        completed cells of an interrupted run without building their
        designs.
        """
        resources = self._plan_resources()
        return Plan(
            name="campaign",
            jobs=tuple(
                scenario_job(f"cell:{design}:{spec.name}", design, spec, resources)
                for design in self._designs
                for spec in self._scenarios
            ),
            metadata={"designs": self.design_names, "scenarios": self.scenario_names},
            resources=resources,
        )

    def _plan_resources(self) -> dict[str, object]:
        """Runtime bindings for this campaign's plans.

        Built designs ride along as-is; spec-backed entries stay declarative
        so process workers (and cache-resumed runs) only build the designs
        their jobs actually touch.
        """
        return {
            "options": self.options,
            "designs": {
                name: self._built.get(name, design)
                for name, design in self._designs.items()
            },
            "scenarios": {spec.name: spec for spec in self._scenarios},
            "_materialized": self._built,
        }

    def _execute(self, plan: Plan, executor: Executor, report, handle) -> None:
        """The shared execute step, bound to this campaign's cache and
        telemetry; fallbacks and the snapshot land in the report header."""
        execute_plan(
            plan, executor, cache=self._cache, telemetry=self._telemetry,
            metadata=report.campaign, on_event=handle,
        )

    # ----------------------------------------------------------------- running
    def run(
        self,
        *,
        on_cell: "Callable[[CampaignCell], None] | None" = None,
        executor: "Executor | None" = None,
        on_event: "Callable[[Event], None] | None" = None,
    ) -> CampaignReport:
        """Execute the grid and return the streaming campaign report.

        The grid compiles to a :class:`~repro.runtime.Plan` (see
        :meth:`plan`) and runs on a :class:`~repro.runtime.Executor`;
        results are deterministic and identical across backends.

        Args:
            on_cell: Callback observing each :class:`CampaignCell` as it
                lands in the report: cache hits first (grid order), then
                executed cells in completion order.
            executor: A configured :class:`~repro.runtime.Executor`
                (default: a serial one).
            on_event: Raw :class:`~repro.runtime.Event` callback (job and
                plan-progress granularity; ``on_cell`` is derived from it).
        """
        executor = executor or Executor()
        self._preflight_lint()
        plan = self.plan()
        report, handle, finalize = self._fold(
            plan, self._metadata(executor), on_cell=on_cell, on_event=on_event
        )
        self._execute(plan, executor, report, handle)
        return finalize()

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

        The fire-and-forget counterpart of :meth:`run`: the grid compiles to
        the same plan, ships to the server (declarative plan JSON plus the
        pickled resource bindings) and executes there — on the server's
        remote workers when any are registered, locally otherwise, always
        against the tenant's persistent result cache.  The returned
        :class:`~repro.api.lowering.CampaignHandle` can stream progress,
        cancel, and assemble the final :class:`CampaignReport` through the
        exact same fold ``run()`` uses, so the report is identical to a
        local run's.

        Args:
            client: A :class:`~repro.serve.ServeClient` connected to the
                server (duck-typed — anything with ``submit``/``wait``/
                ``status``/``cancel``).
            tenant: Result-store tenant the execution is billed to.
            name: Queue display name (defaults to the plan's).
            metadata: Extra submission metadata (e.g. ``{"backend":
                "threads"}`` to pin the server's local backend).
        """
        self._preflight_lint()
        plan = self.plan()
        job_id = client.submit(
            plan, tenant=tenant, name=name or "campaign", metadata=metadata
        )
        header = self._metadata(None)
        return CampaignHandle(
            client, job_id, plan,
            fold=lambda **callbacks: self._fold(plan, header, **callbacks),
        )

    # --------------------------------------------------------------- diagnosis
    def diagnosis_plan(
        self, defects: Iterable[object], **spec_overrides: object
    ) -> Plan:
        """Compile a design×scenario×defect sweep into one runtime plan.

        Per (design, scenario) row one ``if_needed`` pattern-provider job
        (sharing its cache key with the ordinary :meth:`plan` cells, so
        pattern sets flow between scenario campaigns and diagnosis sweeps);
        per defect one ``"diagnosis"`` job depending on its row's provider.
        A fully cache-resumed sweep therefore prunes every provider — no
        design build, no ATPG.
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
            self._plan_resources(),
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

        Every cell injects one defect into one design, runs the scenario's
        pattern set against the injected device, captures the fail log and
        ranks the cone-intersection candidates — streaming one
        :class:`~repro.diagnose.DiagnosisCell` per completed cell into a
        :class:`~repro.diagnose.DiagnosisReport` (rank of the true defect,
        resolution, candidate counts).

        The sweep compiles to one plan (see :meth:`diagnosis_plan`): pattern
        sets are generated once per (design, scenario) provider job and
        shared by every defect on that row; with :meth:`with_cache` attached
        both the pattern sets and the diagnosis results resume from the
        persistent engine cache.

        Args:
            defects: The :class:`~repro.diagnose.DefectSpec` values to
                inject (the defect axis of the grid).
            on_cell: Callback observing each cell as it lands in the report.
            executor: A configured :class:`~repro.runtime.Executor`
                (default: a serial one).  Results are deterministic and
                identical across backends.
            on_event: Raw :class:`~repro.runtime.Event` callback.
            **spec_overrides: Extra :class:`~repro.diagnose.DiagnosisSpec`
                fields applied to every cell (``candidate_kinds``,
                ``max_sites``, ``rerank_iterations``, ...).
        """
        from repro.diagnose import DiagnosisCell, DiagnosisReport, DiagnosisSpec

        def cell_of(job: Job, result, cache_hit: bool) -> DiagnosisCell:
            if cache_hit:
                result.cache_hit = True
            spec = DiagnosisSpec.from_dict(job.params["spec"])
            return DiagnosisCell.from_result(job.params["design"], spec, result)

        executor = executor or Executor()
        self._preflight_lint()
        plan = self.diagnosis_plan(defects, **spec_overrides)
        header = {**self._metadata(executor), "defects": list(plan.metadata["defects"])}
        report, handle, finalize = fold_events(
            plan, DiagnosisReport(campaign=header), cell_of,
            on_cell=on_cell, on_event=on_event,
        )
        self._execute(plan, executor, report, handle)
        self.diagnosis_report = finalize()
        return self.diagnosis_report

    # ----------------------------------------------------------------- volume
    def volume_plan(
        self,
        store,
        spec=None,
        *,
        scenario: "ScenarioSpec | str | None" = None,
        **spec_overrides: object,
    ) -> Plan:
        """Compile a fail-log store's share of this campaign into one plan.

        Records whose design is not part of this campaign are filtered out
        (one store can hold several campaigns' logs); every surviving log
        becomes one content-addressed ``"bp-diagnosis"`` job (see
        :func:`~repro.volume.run.volume_plan`), so an interrupted run
        resumes from the cache with zero re-runs.
        """
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
        resources = self._plan_resources()
        return compile_volume_plan(
            records,
            resources["designs"],
            resources["scenarios"],
            spec,
            options=self.options,
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

        The volume counterpart of :meth:`diagnose`: instead of a defect
        grid, the evidence axis is a persistent
        :class:`~repro.volume.FailLogStore` (or any record iterable), and
        each log's verdict is a BP-selected candidate *set* with
        calibrated confidences — streamed into a
        :class:`~repro.volume.BpDiagnosisReport`.  Pattern sets are
        generated once per (design, scenario) row and shared by every log
        on it; with :meth:`with_cache` attached both the pattern sets and
        the per-log BP results resume from the persistent engine cache.

        Args:
            store: A :class:`~repro.volume.FailLogStore` or iterable of
                :class:`~repro.volume.FailLogRecord`.
            spec: A :class:`~repro.volume.VolumeSpec`; built from
                ``scenario``/``spec_overrides`` when omitted.
            on_cell: Callback observing each landed
                :class:`~repro.volume.BpDiagnosisCell`.
            scenario: Pattern-set scenario for records without their own
                label (default: the campaign's first scenario).
            executor: A configured :class:`~repro.runtime.Executor`
                (default: a serial one).  Reports are deterministic and
                identical across backends.
            on_event: Raw :class:`~repro.runtime.Event` callback.
            **spec_overrides: Extra :class:`~repro.volume.VolumeSpec`
                fields (``candidate_kinds``, ``bp``, ...).
        """
        from repro.volume.run import volume_report_builder

        executor = executor or Executor()
        self._preflight_lint()
        plan = self.volume_plan(store, spec, scenario=scenario, **spec_overrides)
        report, handle, finalize = volume_report_builder(
            plan, metadata=self._metadata(executor), on_cell=on_cell, on_event=on_event
        )
        self._execute(plan, executor, report, handle)
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

        The fire-and-forget counterpart of :meth:`diagnose_volume`: the
        identical plan ships to the server and executes there against the
        tenant's persistent result cache.  The returned handle streams
        progress, cancels, and assembles the final
        :class:`~repro.volume.BpDiagnosisReport` through the exact same
        fold a local run uses.
        """
        from repro.volume.run import submit_volume as submit_volume_plan

        self._preflight_lint()
        plan = self.volume_plan(store, spec, scenario=scenario, **spec_overrides)
        return submit_volume_plan(
            client, plan, tenant=tenant, name=name or "volume", metadata=metadata
        )

    # -------------------------------------------------------------- internals
    def _metadata(self, executor: "Executor | None") -> dict[str, object]:
        """The report header; ``executor=None`` == a serve submission.

        ``cached`` reflects the *effective* cache — the campaign's own
        (which wins) or one attached to the executor; a serve tenant always
        has one.
        """
        return {
            "designs": self.design_names,
            "scenarios": self.scenario_names,
            "design_sizes": self._design_sizes(),
            "backend": "serve" if executor is None else executor.backend,
            "cached": executor is None or executor.effective_cache(self._cache) is not None,
        }

    def _design_sizes(self) -> dict[str, dict[str, object]]:
        """Build-free size estimates per design (scaling-report metadata).

        Spec-backed entries use :meth:`DesignSpec.size_estimate`; designs
        already built report their exact netlist stats instead.
        """
        sizes: dict[str, dict[str, object]] = {}
        for name, design in self._designs.items():
            prepared = self._built.get(name)
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
        *,
        on_cell: "Callable[[CampaignCell], None] | None" = None,
        on_event: "Callable[[Event], None] | None" = None,
    ) -> "tuple[CampaignReport, Callable[[Event], None], Callable[[], CampaignReport]]":
        """Fold a grid plan's events into a :class:`CampaignReport`.

        Shared by :meth:`run` and the serve handle, so a remotely executed
        campaign's report is assembled exactly like a local one.  Each
        landed cell's run is spilled to the pattern store (if attached) and
        kept in :attr:`artifacts`; with a cache in effect
        (``metadata["cached"]``) it carries its cache provenance.
        """
        cached = bool(metadata["cached"])

        def cell_of(job: Job, run: ScenarioRun, cache_hit: bool) -> CampaignCell:
            design, scenario = job.params["design"], job.params["scenario"]
            run = spill_run(
                run, self._pattern_store, design, stream=self._pattern_store_stream
            )
            key = job.cache_key if cached else None
            if key is not None:
                run.cache_info = {"hit": cache_hit, "key": key}
            self.artifacts[(design, scenario)] = run
            return CampaignCell(
                design=design,
                scenario=scenario,
                outcome=outcome_of(run),
                cell_key=key,
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
