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

Each cell (one design, one scenario) executes the same stage pipeline a
:class:`~repro.api.session.TestSession` runs, so a one-design campaign and a
session produce identical outcomes.  The campaign itself is a *plan
compiler*: :meth:`Campaign.plan` and :meth:`Campaign.diagnosis_plan` lower
the grid into declarative :class:`~repro.runtime.Plan` graphs and
``run()``/``diagnose()`` hand them to a :class:`~repro.runtime.Executor`.
What the campaign layer adds:

* **declarative device axis** — designs are
  :class:`~repro.api.design.DesignSpec` values resolved from the design
  registry, built through the staged design pipeline once per design (and
  once per worker on the process backend);
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

from repro.api.design import DesignSpec, PreparedDesign, prepare_from_spec, resolve_design
from repro.api.report import RunReport, ScenarioOutcome
from repro.api.scenario import ScenarioSpec
from repro.api.scenarios import resolve_scenario_or_letter
from repro.api.session import DEFAULT_STAGES, ScenarioRun, outcome_of
from repro.atpg.config import AtpgOptions
from repro.atpg.generator import AtpgResult
from repro.engine.cache import (
    ResultCache,
    campaign_cell_key,
    coerce_cache,
    design_fingerprint,
    design_spec_fingerprint,
)
from repro.engine.scheduler import BACKENDS, validate_pool_size
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, coerce_telemetry
from repro.patterns.store import PatternStore
from repro.runtime import EXECUTOR_BACKENDS, Event, Executor, Job, Plan, PlanCancelled

#: Fan-out backends ``Campaign.diagnose``/``diagnose_volume`` accept — the
#: executor backend set (engine set minus ``compiled``), aliased so the
#: front door and the executor can never drift.
CAMPAIGN_BACKENDS = EXECUTOR_BACKENDS


def resolve_campaign_scenario(spec_or_name: "ScenarioSpec | str") -> ScenarioSpec:
    """Scenario lookup that also accepts the paper's experiment letters."""
    return resolve_scenario_or_letter(spec_or_name)


# --------------------------------------------------------------------------
# Design entries
# --------------------------------------------------------------------------
@dataclass
class _DesignEntry:
    """One design axis entry: a declarative spec or an already built design."""

    name: str
    spec: DesignSpec | None = None
    prepared: PreparedDesign | None = None

    @property
    def fingerprint(self) -> str:
        if self.spec is not None:
            return design_spec_fingerprint(self.spec)
        assert self.prepared is not None
        return design_fingerprint(self.prepared.model)

    def materialize(self) -> PreparedDesign:
        """The built design (cached on the entry for the campaign's lifetime)."""
        if self.prepared is None:
            assert self.spec is not None
            self.prepared = prepare_from_spec(self.spec)
        return self.prepared


def _design_entry(design: "DesignSpec | str | PreparedDesign") -> _DesignEntry:
    if isinstance(design, PreparedDesign):
        if design.spec is not None:
            # A spec-built design keeps its declarative identity, so cells
            # computed from the prepared object and from the bare spec share
            # cache entries.
            return _DesignEntry(name=design.spec.name, spec=design.spec, prepared=design)
        return _DesignEntry(name=design.netlist.name, prepared=design)
    spec = resolve_design(design)
    return _DesignEntry(name=spec.name, spec=spec)


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
        self._designs = [_design_entry(design) for design in designs]
        self._scenarios = [resolve_campaign_scenario(item) for item in scenarios]
        if not self._designs:
            raise ValueError("a campaign needs at least one design")
        if not self._scenarios:
            raise ValueError("a campaign needs at least one scenario")
        names = [entry.name for entry in self._designs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate designs in campaign: {names}")
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
        """Set the campaign's ATPG options, or tweak individual knobs."""
        if options is not None and knobs:
            raise ValueError("pass either an AtpgOptions object or keyword knobs")
        if options is not None:
            self.options = options
        else:
            self.options = replace(self.options, **knobs)  # type: ignore[arg-type]
        return self

    def with_backend(
        self,
        backend: str,
        *,
        shards: int | None = None,
        workers: int | None = None,
    ) -> "Campaign":
        """Select the engine backend fault simulation runs on inside each cell."""
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown engine backend {backend!r} (expected one of {BACKENDS})"
            )
        validate_pool_size("shards", shards)
        validate_pool_size("workers", workers)
        changes: dict[str, object] = {"sim_backend": backend}
        if shards is not None:
            changes["sim_shards"] = shards
        if workers is not None:
            changes["sim_workers"] = workers
        self.options = replace(self.options, **changes)  # type: ignore[arg-type]
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
        """Spill every executed cell's patterns to a disk-backed store.

        Each cell's pattern set lands in the
        :class:`~repro.patterns.store.PatternStore` grouped by
        ``(design, scenario)`` — written once per group, so an interrupted
        campaign resumed over the same store does not duplicate.  With
        ``stream=True`` the runs' in-memory sets are replaced by the
        store's lazy views (memory-bounded at SoC scale; prefer the sqlite
        backend for process fan-out).  Cache-served cells skip their jobs
        entirely and therefore do not spill.
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
        every layer below (executor waves, stage pipelines, ATPG, fault-sim
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
        for entry in self._designs:
            prepared = entry.materialize()
            setup = self._scenarios[0].build_setup(prepared, self.options)
            report = lint_design(prepared, setup, waivers=self._lint_waivers)
            self.lint_reports[entry.name] = report
            if not report.ok:
                failed.append(
                    f"{entry.name}: " + "; ".join(str(f) for f in report.errors[:3])
                )
        if failed:
            from repro.analyze import LintError

            raise LintError(
                "campaign pre-flight lint failed — " + " | ".join(failed)
            )

    # --------------------------------------------------------------- queries
    @property
    def design_names(self) -> list[str]:
        return [entry.name for entry in self._designs]

    @property
    def scenario_names(self) -> list[str]:
        return [spec.name for spec in self._scenarios]

    def grid(self) -> list[tuple[str, str]]:
        """The (design, scenario) cell grid, design-major."""
        return [
            (entry.name, spec.name)
            for entry in self._designs
            for spec in self._scenarios
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
        job's cache key derives from the design *spec* fingerprint (when the
        entry is spec-backed), so an :class:`~repro.runtime.Executor` with
        this campaign's cache skips completed cells of an interrupted run
        without building their designs.
        """
        jobs = tuple(
            Job(
                id=f"cell:{entry.name}:{spec.name}",
                kind="scenario",
                params={"design": entry.name, "scenario": spec.name},
                cache_key=self._cell_key(entry, spec),
                label=f"{entry.name}::{spec.name}",
            )
            for entry in self._designs
            for spec in self._scenarios
        )
        return Plan(
            name="campaign",
            jobs=jobs,
            metadata={"designs": self.design_names, "scenarios": self.scenario_names},
            resources=self._plan_resources(),
        )

    def _plan_resources(self) -> dict[str, object]:
        """Runtime bindings for this campaign's plans.

        Built designs ride along as-is; spec-backed entries stay declarative
        so process workers (and cache-resumed runs) only build the designs
        their jobs actually touch.
        """
        resources: dict[str, object] = {
            "options": self.options,
            "stages": tuple(DEFAULT_STAGES),
            "designs": {
                entry.name: entry.prepared if entry.prepared is not None else entry.spec
                for entry in self._designs
            },
            "scenarios": {spec.name: spec for spec in self._scenarios},
        }
        if self._pattern_store is not None:
            resources["pattern_store"] = str(self._pattern_store.path)
            resources["pattern_store_stream"] = self._pattern_store_stream
        return resources

    def _resolve_executor(
        self,
        backend: str | None,
        max_workers: int | None,
        executor: "Executor | None",
    ) -> Executor:
        """One executor-or-knobs resolution for ``diagnose`` and
        ``diagnose_volume``."""
        if executor is not None:
            if backend is not None or max_workers is not None:
                raise ValueError(
                    "pass either executor= or the backend/max_workers knobs"
                )
            return executor
        if backend is None:
            backend = "serial"
        elif backend not in CAMPAIGN_BACKENDS:
            raise ValueError(
                f"unknown campaign backend {backend!r} "
                f"(expected one of {CAMPAIGN_BACKENDS})"
            )
        return Executor(backend=backend, max_workers=max_workers)

    def _harvest_builds(self, plan: Plan) -> None:
        """Keep designs built in-parent for later runs/diagnoses."""
        built = (plan.resources or {}).get("_materialized", {})
        for entry in self._designs:
            if entry.prepared is None and entry.name in built:
                entry.prepared = built[entry.name]

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
        cached = executor.effective_cache(self._cache) is not None
        report, handle, finalize = self._report_builder(
            plan, metadata=self._metadata(executor), cached=cached,
            on_cell=on_cell, on_event=on_event,
        )
        with self._telemetry.activate():
            result = executor.execute(plan, cache=self._cache, on_event=handle)
        self._harvest_builds(plan)
        if result.fallbacks:
            report.campaign["backend_fallbacks"] = list(result.fallbacks)
        if self._telemetry:
            report.campaign["telemetry"] = self._telemetry.snapshot()
        return finalize()

    # ------------------------------------------------------------- submission
    def submit(
        self,
        client,
        *,
        tenant: str = "default",
        name: "str | None" = None,
        metadata: "Mapping[str, object] | None" = None,
    ) -> "CampaignHandle":
        """Submit the grid to a running serve server; returns a handle.

        The fire-and-forget counterpart of :meth:`run`: the grid compiles to
        the same plan, ships to the server (declarative plan JSON plus the
        pickled resource bindings) and executes there — on the server's
        remote workers when any are registered, locally otherwise, always
        against the tenant's persistent result cache.  The returned
        :class:`CampaignHandle` can stream progress, cancel, and assemble
        the final :class:`CampaignReport` through the exact same merge path
        ``run()`` uses, so the report is identical to a local run's.

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
        return CampaignHandle(campaign=self, client=client, job_id=job_id, plan=plan)

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
        from repro.engine.cache import diagnosis_cell_key

        defect_list = list(defects)
        if not defect_list:
            raise ValueError("a diagnosis campaign needs at least one defect")
        jobs: list[Job] = []
        for entry in self._designs:
            for scenario in self._scenarios:
                provider = Job(
                    id=f"patterns:{entry.name}:{scenario.name}",
                    kind="scenario",
                    params={"design": entry.name, "scenario": scenario.name},
                    cache_key=self._cell_key(entry, scenario),
                    label=f"{entry.name}::{scenario.name}",
                    if_needed=True,
                )
                jobs.append(provider)
                for index, defect in enumerate(defect_list):
                    diagnosis_spec = DiagnosisSpec(
                        scenario=scenario.name, defect=defect, **spec_overrides  # type: ignore[arg-type]
                    )
                    # Cells run the default stage pipeline; fold it in
                    # exactly like TestSession.diagnose does.  Keys derive
                    # from the design *fingerprint*, so a resumed sweep
                    # probes without constructing any design.
                    key = diagnosis_cell_key(
                        entry.fingerprint, scenario, diagnosis_spec,
                        self.options, extra=tuple(DEFAULT_STAGES),
                    )
                    jobs.append(
                        Job(
                            id=f"diagnose:{entry.name}:{scenario.name}:{index}",
                            kind="diagnosis",
                            params={
                                "design": entry.name,
                                "scenario": scenario.name,
                                "spec": diagnosis_spec.to_dict(),
                                "patterns": provider.id,
                            },
                            deps=(provider.id,),
                            cache_key=key,
                            label=f"diagnose::{entry.name}::{scenario.name}::"
                                  f"{defect.describe()}",
                        )
                    )
        return Plan(
            name="campaign-diagnosis",
            jobs=tuple(jobs),
            metadata={
                "designs": self.design_names,
                "scenarios": self.scenario_names,
                "defects": [defect.describe() for defect in defect_list],
            },
            resources=self._plan_resources(),
        )

    def diagnose(
        self,
        defects: Iterable[object],
        backend: str | None = None,
        max_workers: int | None = None,
        on_cell: "Callable[[object], None] | None" = None,
        *,
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
            backend: Cell fan-out backend — ``"serial"`` (default),
                ``"threads"`` or ``"processes"``.  Results are deterministic
                and identical across backends.
            max_workers: Worker-pool size for the pooled backends.
            on_cell: Callback observing each cell as it lands in the report.
            executor: A configured :class:`~repro.runtime.Executor`
                (mutually exclusive with backend/max_workers).
            on_event: Raw :class:`~repro.runtime.Event` callback.
            **spec_overrides: Extra :class:`~repro.diagnose.DiagnosisSpec`
                fields applied to every cell (``candidate_kinds``,
                ``max_sites``, ``rerank_iterations``, ...).
        """
        from repro.diagnose import DiagnosisCell, DiagnosisReport, DiagnosisSpec

        executor = self._resolve_executor(backend, max_workers, executor)
        self._preflight_lint()
        plan = self.diagnosis_plan(defects, **spec_overrides)
        defect_names = list(plan.metadata["defects"])
        report = DiagnosisReport(
            campaign={
                **self._metadata(executor),
                "defects": defect_names,
            }
        )
        entries = {entry.name: entry for entry in self._designs}
        diagnosis_jobs = {
            job.id: (
                entries[job.params["design"]],
                DiagnosisSpec.from_dict(job.params["spec"]),
            )
            for job in plan.jobs
            if job.kind == "diagnosis"
        }
        landed: dict[str, object] = {}

        def handle(event: Event) -> None:
            target = diagnosis_jobs.get(event.job) if event.job is not None else None
            if target is not None and event.kind in ("job_finished", "job_skipped"):
                entry, diagnosis_spec = target
                result = event.value
                if event.kind == "job_skipped":
                    result.cache_hit = True
                cell = DiagnosisCell.from_result(entry.name, diagnosis_spec, result)
                landed[event.job] = report.add_cell(cell)
                if on_cell is not None:
                    on_cell(cell)
            if on_event is not None:
                on_event(event)

        with self._telemetry.activate():
            outcome = executor.execute(plan, cache=self._cache, on_event=handle)
        self._harvest_builds(plan)
        missing = [job_id for job_id in diagnosis_jobs if job_id not in landed]
        if missing:
            raise PlanCancelled(
                f"diagnosis sweep cancelled before {len(missing)} cell(s) "
                f"completed (first: {missing[0]!r})"
            )
        # Re-order the cells into grid order for the final report (the
        # streaming callback saw completion order) — pooled backends land
        # cells as they finish, and the report must be deterministic and
        # identical across backends.
        report.cells = [landed[job_id] for job_id in diagnosis_jobs]
        if outcome.fallbacks:
            report.campaign["backend_fallbacks"] = list(outcome.fallbacks)
        if self._telemetry:
            report.campaign["telemetry"] = self._telemetry.snapshot()
        self.diagnosis_report = report
        return report

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
        known = {entry.name for entry in self._designs}
        records = [record for record in records if record.design in known]
        if not records:
            raise ValueError(
                f"the fail-log store holds no records for this campaign's "
                f"designs ({sorted(known)})"
            )
        if scenario is None:
            scenario_name = self._scenarios[0].name
        else:
            scenario_name = (
                scenario.name if isinstance(scenario, ScenarioSpec)
                else resolve_campaign_scenario(scenario).name
            )
        if spec is None:
            spec = VolumeSpec(scenario=scenario_name, **spec_overrides)  # type: ignore[arg-type]
        elif spec_overrides or scenario is not None:
            spec = spec.with_overrides(scenario=scenario_name, **spec_overrides)
        return compile_volume_plan(
            records,
            {
                entry.name: entry.prepared if entry.prepared is not None else entry.spec
                for entry in self._designs
            },
            {s.name: s for s in self._scenarios},
            spec,
            options=self.options,
            stages=tuple(DEFAULT_STAGES),
        )

    def diagnose_volume(
        self,
        store,
        spec=None,
        backend: str | None = None,
        max_workers: int | None = None,
        on_cell: "Callable[[object], None] | None" = None,
        *,
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
            backend: Log fan-out backend — ``"serial"`` (default),
                ``"threads"`` or ``"processes"``.  Reports are
                deterministic and identical across backends.
            max_workers: Worker-pool size for the pooled backends.
            on_cell: Callback observing each landed
                :class:`~repro.volume.BpDiagnosisCell`.
            scenario: Pattern-set scenario for records without their own
                label (default: the campaign's first scenario).
            executor: A configured :class:`~repro.runtime.Executor`
                (mutually exclusive with backend/max_workers).
            on_event: Raw :class:`~repro.runtime.Event` callback.
            **spec_overrides: Extra :class:`~repro.volume.VolumeSpec`
                fields (``candidate_kinds``, ``bp``, ...).
        """
        from repro.volume.run import volume_report_builder

        executor = self._resolve_executor(backend, max_workers, executor)
        self._preflight_lint()
        plan = self.volume_plan(store, spec, scenario=scenario, **spec_overrides)
        metadata = {
            **self._metadata(executor),
            "logs": len(plan.metadata["logs"]),
        }
        report, handle, finalize = volume_report_builder(
            plan, metadata=metadata, on_cell=on_cell, on_event=on_event
        )
        with self._telemetry.activate():
            result = executor.execute(plan, cache=self._cache, on_event=handle)
        self._harvest_builds(plan)
        if result.fallbacks:
            report.campaign["backend_fallbacks"] = list(result.fallbacks)
        if self._telemetry:
            report.campaign["telemetry"] = self._telemetry.snapshot()
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
    ):
        """Submit a volume-diagnosis plan to a running serve server.

        The fire-and-forget counterpart of :meth:`diagnose_volume`: the
        identical plan ships to the server and executes there against the
        tenant's persistent result cache.  The returned
        :class:`~repro.volume.VolumeHandle` streams progress, cancels, and
        assembles the final :class:`~repro.volume.BpDiagnosisReport`
        through the exact same merge path a local run uses.
        """
        from repro.volume.run import submit_volume as submit_volume_plan

        self._preflight_lint()
        plan = self.volume_plan(store, spec, scenario=scenario, **spec_overrides)
        return submit_volume_plan(
            client, plan, tenant=tenant, name=name or "volume", metadata=metadata
        )

    # -------------------------------------------------------------- internals
    def _metadata(self, executor: Executor) -> dict[str, object]:
        # ``cached`` reflects the *effective* cache — the campaign's own
        # (which wins) or one attached to the executor.
        return {
            "designs": self.design_names,
            "scenarios": self.scenario_names,
            "design_sizes": self._design_sizes(),
            "backend": executor.backend,
            "cached": executor.effective_cache(self._cache) is not None,
        }

    def _design_sizes(self) -> dict[str, dict[str, object]]:
        """Build-free size estimates per design (scaling-report metadata).

        Spec-backed entries use :meth:`DesignSpec.size_estimate`; entries
        already materialized report their exact netlist stats instead.
        """
        sizes: dict[str, dict[str, object]] = {}
        for entry in self._designs:
            if entry.prepared is not None:
                stats = entry.prepared.netlist.stats()
                sizes[entry.name] = {
                    "family": "prepared",
                    "gates": stats.num_gates,
                    "flops": stats.num_flops,
                    "exact": True,
                }
            elif entry.spec is not None:
                sizes[entry.name] = entry.spec.size_estimate()
        return sizes

    def _cell_key(self, entry: _DesignEntry, spec: ScenarioSpec) -> str:
        # The default stage pipeline is folded in exactly like TestSession
        # does.  Spec-backed designs key on the spec fingerprint (computable
        # without a build); only spec-less prepared designs key on the model
        # fingerprint and can therefore share entries with default-pipeline
        # session runs.
        return campaign_cell_key(
            entry.fingerprint, spec, self.options, extra=tuple(DEFAULT_STAGES)
        )

    def _merge(
        self,
        entry: _DesignEntry,
        spec: ScenarioSpec,
        run: ScenarioRun,
        key: str | None,
        report: CampaignReport,
        *,
        cache_hit: bool,
        on_cell: "Callable[[CampaignCell], None] | None",
    ) -> CampaignCell:
        self.artifacts[(entry.name, spec.name)] = run
        cell = CampaignCell(
            design=entry.name,
            scenario=spec.name,
            outcome=outcome_of(run),
            cell_key=key,
            cache_hit=cache_hit,
            wall_seconds=sum(run.stage_seconds.values()),
        )
        report.add_cell(cell)
        if on_cell is not None:
            on_cell(cell)
        return cell

    def _report_builder(
        self,
        plan: Plan,
        *,
        metadata: dict[str, object],
        cached: bool,
        on_cell: "Callable[[CampaignCell], None] | None" = None,
        on_event: "Callable[[Event], None] | None" = None,
    ) -> "tuple[CampaignReport, Callable[[Event], None], Callable[[], CampaignReport]]":
        """Event-driven report assembly shared by :meth:`run` and serve handles.

        Returns ``(report, handle, finalize)``: feed every
        :class:`~repro.runtime.Event` of the plan's execution — live from an
        executor or replayed from a serve journal — to ``handle``, then call
        ``finalize`` for the grid-ordered report.  One code path means a
        remotely executed campaign's report is assembled exactly like a local
        one.  Events seen twice (a requeued serve job replays its journal
        from the start) simply re-merge the same cell; ``finalize`` keeps the
        last merge per cell.
        """
        report = CampaignReport(campaign=metadata)
        # The job -> cell mapping derives from the plan itself (params carry
        # the design/scenario names), so the id format lives only in plan().
        entries = {entry.name: entry for entry in self._designs}
        specs = {spec.name: spec for spec in self._scenarios}
        cells = {
            job.id: (entries[job.params["design"]], specs[job.params["scenario"]])
            for job in plan.jobs
        }
        keys = {job.id: job.cache_key for job in plan.jobs}
        merged: dict[tuple[str, str], CampaignCell] = {}

        def handle(event: Event) -> None:
            target = cells.get(event.job) if event.job is not None else None
            if target is not None and event.kind in ("job_finished", "job_skipped"):
                entry, spec = target
                run = event.value
                if run is None or not hasattr(run, "stage_seconds"):
                    # The event wire degrades unpicklable values to a repr
                    # string and corrupt pickles to None; a journal-replayed
                    # campaign must say so rather than die on an attribute.
                    raise TypeError(
                        f"campaign cell ({entry.name!r}, {spec.name!r}) "
                        f"result did not survive the event wire: expected a "
                        f"scenario run, got {type(run).__name__} "
                        f"({str(run)[:80]!r}) — the scenario result was "
                        f"degraded to a repr string or None by the serve "
                        f"journal encoding (is it picklable?)"
                    )
                key = keys[event.job] if cached else None
                cache_hit = event.kind == "job_skipped"
                if key is not None:
                    run.cache_info = {"hit": cache_hit, "key": key}
                cell = self._merge(entry, spec, run, key, report,
                                   cache_hit=cache_hit, on_cell=on_cell)
                merged[(entry.name, spec.name)] = cell
            if on_event is not None:
                on_event(event)

        def finalize() -> CampaignReport:
            # Re-order the cells into grid order for the final report (the
            # streaming callback saw completion order).
            try:
                report.cells = [merged[cell] for cell in self.grid()]
            except KeyError as exc:
                raise PlanCancelled(
                    f"campaign cancelled before cell {exc.args[0]} completed"
                ) from None
            self.report = report
            return report

        return report, handle, finalize


@dataclass
class CampaignHandle:
    """A campaign submitted to a serve server via :meth:`Campaign.submit`.

    Holds the queue job id plus the compiled plan, which is what lets
    :meth:`report` rebuild the :class:`CampaignReport` client-side from the
    server's event journal — through the same merge path :meth:`Campaign.run`
    uses, so the two reports are identical for identical inputs.
    """

    campaign: Campaign
    client: object
    job_id: int
    plan: Plan

    def status(self) -> dict[str, object]:
        """The job's queue-side status dict (state, attempts, summary...)."""
        return self.client.status(self.job_id)  # type: ignore[attr-defined]

    def cancel(self) -> str:
        """Ask the server to cancel; returns the state after the request."""
        return self.client.cancel(self.job_id)  # type: ignore[attr-defined]

    def report(
        self,
        *,
        timeout: "float | None" = None,
        on_cell: "Callable[[CampaignCell], None] | None" = None,
        on_event: "Callable[[Event], None] | None" = None,
    ) -> CampaignReport:
        """Wait for completion and assemble the campaign report.

        Streams the server's event journal (so ``on_cell``/``on_event`` see
        live progress exactly as with :meth:`Campaign.run`) and finalizes the
        grid-ordered report from the journaled results.  Raises
        :class:`~repro.runtime.PlanCancelled` if the job ended in any state
        but ``done``.
        """
        campaign = self.campaign
        metadata = {
            "designs": campaign.design_names,
            "scenarios": campaign.scenario_names,
            "backend": "serve",
            "cached": True,
        }
        report, handle, finalize = campaign._report_builder(
            self.plan, metadata=metadata, cached=True,
            on_cell=on_cell, on_event=on_event,
        )
        final = self.client.wait(  # type: ignore[attr-defined]
            self.job_id, timeout=timeout, on_event=handle
        )
        if final["state"] != "done":
            detail = f": {final['error']}" if final.get("error") else ""
            raise PlanCancelled(
                f"serve job {self.job_id} ended {final['state']!r}{detail}"
            )
        return finalize()
