"""`TestSession` — the library's front door.

A session binds one device under test (a synthetic SOC or an externally
prepared design) to any number of registered scenarios and executes each
through the fixed scenario pipeline::

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

Every scenario runs the same ``setup -> atpg -> compaction -> compression
-> export`` sequence (:func:`execute_scenario`); each step consults the
scenario spec and leaves the run untouched when not requested.  A
``"scenario"`` job is therefore a pure function of what its cache key
covers — design, scenario and ATPG options.
Sessions bind to their device through the design registry too:
``TestSession.for_design("wide-edt")`` builds a registered
:class:`~repro.api.design.DesignSpec` (``for_soc`` takes ad-hoc geometry
knobs down the same path).
Design preparation and CPF instrumentation are computed once per session and
shared by every scenario.  Execution runs on the unified
:mod:`repro.runtime` plane: :meth:`TestSession.plan` compiles the queued
scenarios into a declarative :class:`~repro.runtime.Plan` and ``run()`` is a
thin ``Executor(...).execute(plan)`` — pass
``run(executor=Executor(backend="processes"))`` to fan scenarios out over
worker interpreters; because every scenario owns its
generator, RNG and fault list, every fan-out produces the same deterministic
results as serial.  ``with_options(sim_backend=...)`` selects the
:mod:`repro.engine` backend the fault simulation inside each scenario runs
on, and ``with_cache()`` attaches the persistent content-addressed result
cache so unchanged scenarios are served from disk (the executor skips their
jobs entirely).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from repro.api.design import (
    PreparedDesign,
    instrument_soc,
    prepare_design,
    prepare_from_spec,
    resolve_design,
    timed_step,
)
from repro.api.report import RunReport, ScenarioOutcome
from repro.api.scenario import ScenarioSpec
from repro.api.scenarios import resolve_scenario_or_letter
from repro.atpg.compaction import compact_pattern_set
from repro.atpg.config import AtpgOptions, TestSetup
from repro.atpg.generator import AtpgResult
from repro.atpg.path_delay import PathDelayAtpg, select_critical_paths
from repro.atpg.podem import PodemStatus
from repro.atpg.stuck_at import StuckAtAtpg
from repro.atpg.transition import TransitionAtpg
from repro.circuits.soc import SocDesign
from repro.dft.edt import EdtArchitecture
from repro.api.lowering import (
    DiagnosisCase,
    execute_plan,
    lower_diagnoses,
    scenario_job,
)
from repro.engine.cache import ResultCache, coerce_cache
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry, coerce_telemetry
from repro.patterns.ate import export_stil
from repro.patterns.pattern import PatternSet
from repro.patterns.store import PatternStore, StoredPatternView
from repro.runtime import Executor, Plan, register_job_kind


@dataclass
class ScenarioRun:
    """The result of one scenario's pipeline on one design.

    ``cache_info`` is deliberately separate from ``extras``: extras feed the
    scenario outcome (and its ``same_results`` comparison), and a cached
    rerun must compare equal to the run that produced it.
    """

    spec: ScenarioSpec
    setup: TestSetup | None = None
    result: AtpgResult | None = None
    patterns: "PatternSet | StoredPatternView | None" = None
    stil: str | None = None
    extras: dict[str, object] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    cache_info: dict[str, object] | None = None


# --------------------------------------------------------------------------
# The scenario pipeline
# --------------------------------------------------------------------------
def execute_scenario(
    prepared: PreparedDesign, options: AtpgOptions, spec: ScenarioSpec
) -> ScenarioRun:
    """Run one scenario against a prepared design.

    The fixed sequence ``setup -> atpg -> compaction -> compression ->
    export``; each step times itself into ``run.stage_seconds`` and opens a
    ``stage:<name>`` span on the ambient tracer (the executor's telemetry,
    also inside a process worker).
    """
    run = ScenarioRun(spec=spec)
    seconds = run.stage_seconds
    with timed_step(seconds, "stage", "setup", scenario=spec.name):
        run.setup = spec.build_setup(prepared, options)
    with timed_step(seconds, "stage", "atpg", scenario=spec.name):
        _atpg(prepared, run)
    with timed_step(seconds, "stage", "compaction", scenario=spec.name):
        _compact(run)
    with timed_step(seconds, "stage", "compression", scenario=spec.name):
        _compress(prepared, run)
    with timed_step(seconds, "stage", "export", scenario=spec.name):
        _export(prepared, run)
    return run


def _atpg(prepared: PreparedDesign, run: ScenarioRun) -> None:
    """Generate (and fault-simulate) patterns for the scenario's fault model."""
    fault_model = run.spec.fault_model
    if fault_model == "stuck-at":
        run.result = StuckAtAtpg(prepared.model, prepared.domain_map, run.setup).run()
        run.patterns = run.result.patterns
    elif fault_model == "transition":
        run.result = TransitionAtpg(prepared.model, prepared.domain_map, run.setup).run()
        run.patterns = run.result.patterns
    elif fault_model == "mixed":
        _run_mixed(prepared, run)
    elif fault_model == "path-delay":
        _run_path_delay(prepared, run)
    else:  # pragma: no cover - ScenarioSpec.__post_init__ rejects this earlier
        raise ValueError(f"unknown fault model {fault_model!r}")


def _run_mixed(prepared: PreparedDesign, run: ScenarioRun) -> None:
    """Stuck-at and transition ATPG back to back, same constraint environment."""
    stuck = StuckAtAtpg(prepared.model, prepared.domain_map, run.setup).run()
    transition = TransitionAtpg(prepared.model, prepared.domain_map, run.setup).run()
    merged = PatternSet(stuck.patterns.patterns())
    merged.extend(transition.patterns.patterns())
    run.result = transition
    run.patterns = merged
    run.extras["stuck_at"] = stuck.summary()
    run.extras["transition"] = transition.summary()
    detected = stuck.coverage.detected + transition.coverage.detected
    total = stuck.coverage.total_faults + transition.coverage.total_faults
    testable = total - stuck.coverage.untestable - transition.coverage.untestable
    resolved = detected + sum(
        r.coverage.untestable + r.coverage.atpg_untestable for r in (stuck, transition)
    )
    run.extras["combined"] = {
        "test_coverage_percent": round(100.0 * detected / testable, 4) if testable else 100.0,
        "fault_coverage_percent": round(100.0 * detected / total, 4) if total else 100.0,
        "atpg_effectiveness_percent": round(100.0 * resolved / total, 4) if total else 100.0,
        "pattern_count": len(merged),
    }


def _run_path_delay(prepared: PreparedDesign, run: ScenarioRun) -> None:
    """Target the structurally longest paths with non-robust broadside tests."""
    faults = select_critical_paths(prepared.model, count=run.spec.path_count)
    atpg = PathDelayAtpg(prepared.model, prepared.domain_map, run.setup)
    tests = atpg.generate_all(faults)
    patterns = PatternSet(t.pattern for t in tests if t.pattern is not None)
    found = sum(1 for t in tests if t.status is PodemStatus.TEST_FOUND)
    aborted = sum(1 for t in tests if t.status is PodemStatus.ABORTED)
    untestable = sum(1 for t in tests if t.status is PodemStatus.UNTESTABLE)
    run.patterns = patterns
    run.extras["path_delay"] = {
        "paths_targeted": len(faults),
        "tests_found": found,
        "aborted": aborted,
        "untestable": untestable,
    }


def _compact(run: ScenarioRun) -> None:
    """Static compaction of the committed pattern set (when requested)."""
    if not run.spec.static_compaction or run.patterns is None:
        return
    before = len(run.patterns)
    run.patterns, stats = compact_pattern_set(run.patterns)
    run.extras["static_compaction"] = {
        "patterns_before": before,
        "patterns_after": len(run.patterns),
        "successful_merges": stats.successful_merges,
    }


def _compress(prepared: PreparedDesign, run: ScenarioRun) -> None:
    """EDT compression accounting over the final pattern set.

    Runs when the scenario pins a channel count, or when the design itself
    declares an EDT contract (``DesignSpec.edt``); a scenario's explicit
    ``edt_channels`` always wins over the design default.
    """
    if run.patterns is None:
        return
    if run.spec.edt_channels is not None:
        edt = EdtArchitecture(prepared.scan, num_input_channels=run.spec.edt_channels)
    elif prepared.edt is not None:
        edt = prepared.edt
    else:
        return
    stats = edt.statistics(run.patterns)
    run.extras["edt"] = {
        "channels": edt.decompressor.num_channels,
        "compression_ratio": round(stats.compression_ratio, 4),
        "encoded_patterns": stats.encoded_patterns,
        "encoding_conflicts": stats.encoding_conflicts,
        "vector_memory_bits": stats.vector_memory_bits,
    }


def _export(prepared: PreparedDesign, run: ScenarioRun) -> None:
    """Serialize the final pattern set to the STIL-flavoured format."""
    if not run.spec.export_patterns or run.patterns is None:
        return
    run.stil = export_stil(
        run.patterns, prepared.scan, prepared.occ, design_name=prepared.netlist.name
    )
    run.extras["export"] = {
        "format": "stil",
        "lines": len(run.stil.splitlines()),
        "characters": len(run.stil),
    }


def spill_run(
    run: ScenarioRun, store: "PatternStore | None", design: str, *, stream: bool = False
) -> ScenarioRun:
    """Spill a landed scenario run's patterns into a pattern store.

    Called by the front doors on every run they keep, executed or served
    from the cache, so the cached value itself is always the plain
    in-memory run.  Each ``(design, scenario)`` group is written once — a
    rerun finds the group present and leaves the store untouched; delete
    the store file to refresh it.  With ``stream`` the in-memory pattern
    set is replaced by the store-backed lazy view, so downstream consumers
    hold one batch at a time.
    """
    if store is None or run.patterns is None:
        return run
    scenario = run.spec.name
    count = store.count(design=design, scenario=scenario) or store.extend(
        iter(run.patterns), design=design, scenario=scenario
    )
    run.extras["store"] = {"path": str(store.path), "kind": store.kind, "patterns": count}
    if stream:
        run.patterns = store.view(design=design, scenario=scenario)
    return run


# --------------------------------------------------------------------------
# Runtime job handlers (module level: process-pool workers re-import this
# module, which re-runs the ``register_job_kind`` calls)
# --------------------------------------------------------------------------
#: Serializes design materialization so concurrent thread-wave jobs never
#: build the same design twice.
_MATERIALIZE_LOCK = threading.Lock()


def materialize_design(resources: dict, name: str) -> PreparedDesign:
    """The built design a plan resource entry names (memoised in-place).

    ``resources["designs"]`` maps design names to either an already built
    :class:`~repro.api.design.PreparedDesign` (the session path — shipped to
    workers once via the pool initializer) or a declarative
    :class:`~repro.api.design.DesignSpec` (the campaign path — each worker
    builds a design the first time one of its jobs touches it).
    """
    built = resources.setdefault("_materialized", {})
    prepared = built.get(name)
    if prepared is None:
        with _MATERIALIZE_LOCK:
            prepared = built.get(name)
            if prepared is None:
                design = resources["designs"][name]
                if not isinstance(design, PreparedDesign):
                    design = prepare_from_spec(design)
                prepared = built[name] = design
    return prepared


@register_job_kind("scenario")
def run_scenario_job(resources: dict, params: Mapping[str, object], deps: dict):
    """Execute one scenario's pipeline against one design.

    Reads only what the job's cache key covers: the design, the scenario
    and the plan's ATPG options.
    """
    return execute_scenario(
        materialize_design(resources, params["design"]),
        resources.get("options") or AtpgOptions(),
        resources["scenarios"][params["scenario"]],
    )


def _diagnosis_inputs(resources: dict, params: Mapping[str, object], deps: dict):
    """The argument resolution the ``"diagnosis"`` and ``"bp-diagnosis"``
    kinds share: ``(positional, keyword)`` arguments of the diagnosis call.

    ``params["patterns"]`` names the provider job whose :class:`ScenarioRun`
    arrives through ``deps`` — generated once per (design, scenario) no
    matter how many diagnoses the plan runs against it.  An external fail
    log arrives by name through ``resources["fail_logs"]`` (picklable, so it
    ships to process workers).
    """
    from repro.diagnose import DiagnosisSpec

    prepared = materialize_design(resources, params["design"])
    options = resources.get("options") or AtpgOptions()
    scenario_spec = resources["scenarios"][params["scenario"]]
    spec = DiagnosisSpec.from_dict(params["spec"])
    run = deps[params["patterns"]]
    if run is None or run.patterns is None:
        raise ValueError(
            f"scenario {scenario_spec.name!r} produced no patterns to diagnose"
        )
    log = params.get("log")
    setup = materialize_setup(
        resources, prepared, scenario_spec, params["design"], options
    )
    return (prepared, setup, run.patterns, spec), {
        "fail_log": resources["fail_logs"][log] if log is not None else None,
        "options": options,
        "scheduler": _diagnosis_job_scheduler(resources, prepared, spec, options),
    }


@register_job_kind("diagnosis")
def run_diagnosis_job(resources: dict, params: Mapping[str, object], deps: dict):
    """Rank one device's candidates by syndrome match (single defect)."""
    from repro.diagnose import run_diagnosis

    args, kwargs = _diagnosis_inputs(resources, params, deps)
    return run_diagnosis(*args, **kwargs)


@register_job_kind("bp-diagnosis")
def run_bp_diagnosis_job(resources: dict, params: Mapping[str, object], deps: dict):
    """Select one device's explaining candidate set with loopy BP.

    Closed-loop experiments may inject several defects
    (``params["defects"]``) instead of shipping a fail log.
    """
    from repro.diagnose import DefectSpec
    from repro.volume import BpOptions, run_bp_diagnosis

    args, kwargs = _diagnosis_inputs(resources, params, deps)
    defects = [DefectSpec.from_dict(item) for item in params.get("defects") or ()]
    return run_bp_diagnosis(
        *args, BpOptions.from_dict(params["bp"]), defects=defects or None, **kwargs
    )


def materialize_setup(
    resources: dict, prepared: PreparedDesign, scenario_spec, design_name, options
):
    """One constraint environment per (design, scenario), memoised in-place.

    Shared by every diagnosis job against that row (lock: concurrent
    thread-wave jobs must not each build one).
    """
    setups = resources.setdefault("_setups", {})
    setup_key = (design_name, scenario_spec.name)
    setup = setups.get(setup_key)
    if setup is None:
        with _MATERIALIZE_LOCK:
            setup = setups.get(setup_key)
            if setup is None:
                setup = setups[setup_key] = scenario_spec.build_setup(
                    prepared, options
                )
    return setup


def _diagnosis_job_scheduler(resources, prepared, spec, options):
    """The candidate-scoring scheduler a diagnosis job should use.

    Memoised into ``resources["_schedulers"]`` per (design, backend,
    sharding), so one worker pool serves a whole plan's defect stream.  A
    session binds its own persistent dict there, so its pools also outlive
    one ``diagnose()`` call; the dict is filled lazily, so a fully cached
    diagnosis never compiles kernels it will not use.
    """
    from repro.engine.scheduler import FaultSimScheduler

    memo = resources.setdefault("_schedulers", {})
    backend = spec.backend or options.sim_backend
    key = (id(prepared.model), backend, options.sim_shards, options.sim_workers)
    scheduler = memo.get(key)
    if scheduler is None:
        # Lock: one scheduler (and one worker pool) per key even when a
        # thread wave lands many diagnosis jobs on the same design at once.
        with _MATERIALIZE_LOCK:
            scheduler = memo.get(key)
            if scheduler is None:
                scheduler = memo[key] = FaultSimScheduler(
                    prepared.model,
                    backend=backend,
                    shard_count=options.sim_shards,
                    max_workers=options.sim_workers,
                )
    return scheduler


# --------------------------------------------------------------------------
# The session
# --------------------------------------------------------------------------
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
        self._size = size
        self._seed = seed
        self._num_chains = num_chains
        self._soc = soc
        self._design_spec = resolve_design(design) if design is not None else None
        self._prepared = prepared
        self._external_design = prepared is not None
        self.options = options or AtpgOptions()
        self._scenarios: list[ScenarioSpec] = []
        self._pattern_store: PatternStore | None = None
        self._pattern_store_stream = False
        self._cache: ResultCache | None = None
        self._telemetry: Telemetry = NULL_TELEMETRY
        self.artifacts: dict[str, ScenarioRun] = {}
        self.report: RunReport | None = None
        # Diagnosis scoring schedulers, bound into every plan as the
        # ``_schedulers`` memo: reused across diagnose() calls so one worker
        # pool serves a whole device stream.  Closed explicitly when the
        # design or options change (the remainder by the scheduler's GC
        # finalizer at teardown).
        self._schedulers: dict = {}

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
        """Start a session on the synthetic SOC (or a caller-built one)."""
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
        """Start a session on a registered (or ad-hoc) declarative design spec.

        The spec is built lazily (:func:`~repro.api.design.prepare_from_spec`);
        the structural builders (``with_size``/``with_seed``/``with_chains``)
        override the corresponding spec fields instead of raising.
        """
        return cls(design=design, options=options)

    # -------------------------------------------------------- fluent builders
    def _invalidate_design(self) -> None:
        if self._external_design:
            raise RuntimeError(
                "this session was created from an already prepared design; "
                "its structure (size/seed/chains/SOC) cannot be changed"
            )
        self._prepared = None
        # Executed artifacts describe the previous device, not this one.
        self.artifacts.clear()
        self._close_diagnosis_schedulers()

    def _override_design(self, **changes: object) -> bool:
        """Apply a structural change to a design-spec session; False == not one."""
        if self._design_spec is None:
            return False
        self._design_spec = self._design_spec.with_overrides(**changes)
        self._prepared = None
        self.artifacts.clear()
        self._close_diagnosis_schedulers()
        return True

    def _close_diagnosis_schedulers(self) -> None:
        """Release memoised diagnosis schedulers (and their worker pools)."""
        for scheduler in self._schedulers.values():
            scheduler.close()
        self._schedulers.clear()

    def with_size(self, size: int) -> "TestSession":
        if self._override_design(size=size):
            return self
        self._invalidate_design()
        self._size = size
        return self

    def with_seed(self, seed: int) -> "TestSession":
        if self._override_design(seed=seed):
            return self
        self._invalidate_design()
        self._seed = seed
        return self

    def with_chains(self, num_chains: int) -> "TestSession":
        if self._override_design(num_chains=num_chains):
            return self
        self._invalidate_design()
        self._num_chains = num_chains
        return self

    def with_soc(self, soc: SocDesign) -> "TestSession":
        self._invalidate_design()
        self._design_spec = None
        self._soc = soc
        return self

    def with_options(
        self, options: AtpgOptions | None = None, **knobs: object
    ) -> "TestSession":
        """Set the session's ATPG options, or tweak individual knobs.

        The engine backend fault simulation runs on is a knob too:
        ``with_options(sim_backend="processes", sim_shards=4,
        sim_workers=2)`` (validated by :class:`~repro.atpg.AtpgOptions`).
        Executed scenario artifacts are dropped: they were produced under
        the previous options and no longer describe this session (reusing
        them would, e.g., let ``diagnose()`` pair stale patterns with a
        cache key derived from the new options).
        """
        if options is not None and knobs:
            raise ValueError("pass either an AtpgOptions object or keyword knobs")
        self.options = options if options is not None else replace(self.options, **knobs)
        self.artifacts.clear()
        self._close_diagnosis_schedulers()
        return self

    def with_cache(self, cache: "ResultCache | str | bool | None" = True) -> "TestSession":
        """Attach the persistent engine result cache to this session.

        Scenario executions are stored content-addressed on (design
        fingerprint, scenario+options fingerprint, engine version); a later
        ``run()`` of an unchanged scenario on an unchanged design — in this
        or any future session — returns the cached
        :class:`ScenarioRun` without re-running ATPG or fault simulation.

        Args:
            cache: ``True`` (default cache root, honoring the
                ``REPRO_ENGINE_CACHE`` environment variable), a directory
                path, an existing :class:`~repro.engine.cache.ResultCache`,
                or ``False``/``None`` to detach.
        """
        self._cache = coerce_cache(cache)
        return self

    def with_pattern_store(
        self,
        store: "PatternStore | str | None",
        *,
        stream: bool = False,
    ) -> "TestSession":
        """Spill every kept scenario run's patterns to a disk-backed store.

        Every run the session keeps — executed or served from the cache —
        is written to the :class:`~repro.patterns.store.PatternStore`
        grouped by ``(design, scenario)`` (:func:`spill_run`).  With
        ``stream=True`` the in-memory set on each kept :class:`ScenarioRun`
        is replaced by the store's lazy view, so a 10⁵-gate session holds
        one batch of patterns in memory at a time instead of every scan
        load of every scenario.

        Args:
            store: A :class:`PatternStore`, a path (``.jsonl`` or sqlite),
                or ``None`` to detach the store.
            stream: Replace ``run.patterns`` with the disk-backed view
                (memory-bounded; the store file must outlive the run).
        """
        if store is not None and not isinstance(store, PatternStore):
            store = PatternStore(store)
        self._pattern_store = store
        self._pattern_store_stream = stream
        return self

    def with_telemetry(
        self, telemetry: "Telemetry | bool | None" = True
    ) -> "TestSession":
        """Attach an observability plane to this session's executions.

        ``run()``/``diagnose()`` activate the telemetry around their plan
        execution, so the executor, the scenario pipeline, ATPG, the fault-sim
        scheduler and the result cache all record into it; the report's
        ``session["telemetry"]`` carries the metrics snapshot.

        Args:
            telemetry: A :class:`~repro.obs.Telemetry` (share one across
                sessions to aggregate), ``True`` for a fresh enabled one,
                or ``False``/``None`` to detach (the default no-op leaves
                reports byte-identical to an un-instrumented session).
        """
        self._telemetry = coerce_telemetry(telemetry)
        return self

    @property
    def telemetry(self) -> Telemetry:
        """The session's telemetry (the shared no-op unless attached)."""
        return self._telemetry

    def add_scenario(
        self, spec_or_name: ScenarioSpec | str, **overrides: object
    ) -> "TestSession":
        """Queue a scenario (by spec, registered name or paper letter
        "a".."e") for the next run."""
        spec = resolve_scenario_or_letter(spec_or_name)
        if overrides:
            spec = spec.with_overrides(**overrides)
        if any(existing.name == spec.name for existing in self._scenarios):
            raise ValueError(f"scenario {spec.name!r} is already queued in this session")
        self._scenarios.append(spec)
        return self

    def add_scenarios(self, *specs_or_names: ScenarioSpec | str) -> "TestSession":
        for item in specs_or_names:
            self.add_scenario(item)
        return self

    # --------------------------------------------------------- design views
    @property
    def prepared(self) -> PreparedDesign:
        """The (lazily built, cached) ATPG view of the device under test."""
        if self._prepared is None:
            if self._design_spec is not None:
                self._prepared = prepare_from_spec(self._design_spec)
            else:
                self._prepared = prepare_design(
                    size=self._size,
                    seed=self._seed,
                    num_chains=self._num_chains,
                    soc=self._soc,
                )
        return self._prepared

    @property
    def design_spec(self) -> "DesignSpec | None":
        """The declarative design spec this session builds from (if any)."""
        if self._design_spec is not None:
            return self._design_spec
        return self._prepared.spec if self._prepared is not None else None

    def instrumented(self, enhanced: bool = False):
        """The Figure 1 physical top (memoised per session and CPF flavour)."""
        return instrument_soc(self.prepared, enhanced=enhanced)

    def lint(self, setup: TestSetup | None = None, *, waivers=(), categories=None):
        """Run the static rule registry over the device under test.

        When no explicit ``setup`` is passed and scenarios are queued, the
        first queued scenario's :class:`TestSetup` supplies the constraint
        environment (pin constraints, capture procedures) for the
        constraint-aware rules; with neither, those rules run unconstrained.

        Returns a :class:`repro.analyze.LintReport`.
        """
        from repro.analyze import lint_design

        if setup is None and self._scenarios:
            setup = self._scenarios[0].build_setup(self.prepared, self.options)
        return lint_design(
            self.prepared, setup, waivers=waivers, categories=categories
        )

    @property
    def queued_scenarios(self) -> list[ScenarioSpec]:
        return list(self._scenarios)

    # ------------------------------------------------------- plan compilation
    def plan(self) -> Plan:
        """Compile the queued scenarios into a declarative runtime plan.

        One ``"scenario"`` job per queued spec (no inter-job dependencies —
        every scenario owns its generator, RNG and fault list).  Every job
        carries its engine-cache key unconditionally, so any
        :class:`~repro.runtime.Executor` with a result cache — the
        session's (:meth:`with_cache`, which wins) or the executor's own —
        skips scenarios that already ran, in this session or any earlier
        one.  The plan comes bound to this session's resources;
        ``Executor(...).execute(session.plan())`` is the whole run.
        """
        if not self._scenarios:
            raise RuntimeError("no scenarios queued; call add_scenario() first")
        return self._plan(self._scenarios)

    def _plan(self, specs: Sequence[ScenarioSpec]) -> Plan:
        design_name = self.prepared.netlist.name
        resources = self.resources()
        resources["scenarios"] = {spec.name: spec for spec in specs}
        return Plan(
            name=f"session:{design_name}",
            jobs=tuple(
                scenario_job(f"scenario:{spec.name}", design_name, spec, resources)
                for spec in specs
            ),
            metadata={
                "design": design_name,
                "scenarios": [spec.name for spec in specs],
            },
            resources=resources,
        )

    def resources(self) -> dict[str, object]:
        """The runtime bindings this session's plans execute against.

        ``_schedulers`` is the session's persistent diagnosis-scheduler
        memo; ``_``-prefixed entries never ship to process workers.
        """
        prepared = self.prepared
        return {
            "options": self.options,
            "designs": {prepared.netlist.name: prepared},
            "scenarios": {spec.name: spec for spec in self._scenarios},
            "_schedulers": self._schedulers,
        }

    # ----------------------------------------------------------------- running
    def run_scenario(self, spec_or_name: ScenarioSpec | str) -> ScenarioOutcome:
        """Execute one scenario immediately (a one-job plan, run serially)."""
        spec = resolve_scenario_or_letter(spec_or_name)
        (outcome,) = self._run_plan(self._plan([spec]), Executor())
        return outcome

    def run(
        self,
        *,
        executor: "Executor | None" = None,
        on_event: "Callable | None" = None,
    ) -> RunReport:
        """Execute every queued scenario and return the session report.

        The session compiles its scenarios into a :class:`~repro.runtime.Plan`
        and hands it to a :class:`~repro.runtime.Executor`; results are
        deterministic and identical across backends (only the wall-clock
        measurements differ).

        Args:
            executor: The :class:`~repro.runtime.Executor` to run the plan on
                (default: a serial one; ``Executor(backend="processes")``
                runs each scenario in its own interpreter).
            on_event: Streaming :class:`~repro.runtime.Event` callback
                (``job_started`` / ``job_finished`` / ``job_skipped`` /
                ``plan_progress``).
        """
        plan = self.plan()
        metadata = self._session_metadata(self._scenarios)
        outcomes = self._run_plan(
            plan, executor or Executor(), metadata=metadata, on_event=on_event
        )
        self.report = RunReport(session=metadata, outcomes=outcomes)
        return self.report

    def _run_plan(
        self,
        plan: Plan,
        executor: Executor,
        *,
        metadata: "dict[str, object] | None" = None,
        on_event: "Callable | None" = None,
    ) -> list[ScenarioOutcome]:
        """Execute a scenario plan and keep every landed run, in plan order."""
        result = execute_plan(
            plan, executor, cache=self._cache, telemetry=self._telemetry,
            metadata=metadata, on_event=on_event,
        )
        cached = executor.effective_cache(self._cache) is not None
        return [
            outcome_of(self._keep(job.params["scenario"], result[job.id], cached))
            for job in plan.jobs
        ]

    def _keep(self, name: str, job_result, cached: bool) -> ScenarioRun:
        """Record an executed (or cache-served) scenario run as an artifact,
        spilling it to the session's pattern store first."""
        run = spill_run(
            job_result.value, self._pattern_store, self.prepared.netlist.name,
            stream=self._pattern_store_stream,
        )
        if cached:
            run.cache_info = {"hit": job_result.skipped, "key": job_result.cache_key}
        self.artifacts[name] = run
        return run

    def result_of(self, name: str) -> AtpgResult:
        """The raw :class:`AtpgResult` of an executed fault-model scenario."""
        try:
            run = self.artifacts[name]
        except KeyError:
            raise KeyError(
                f"scenario {name!r} has not been executed in this session; "
                f"executed: {sorted(self.artifacts) or '<none>'}"
            ) from None
        if run.result is None:
            raise ValueError(f"scenario {name!r} produced no AtpgResult "
                             f"(fault model {run.spec.fault_model!r})")
        return run.result

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

        Closes the tester loop: the scenario's patterns are (re)generated
        through the scenario pipeline (served from the engine cache when
        attached), the defect is injected into the compiled circuit model
        (netlist untouched), an ATE-style fail log is captured, and every
        cone-intersection candidate is fault-simulated — sharded over the
        session's engine backend — and ranked by syndrome match.

        Diagnosis runs as an ordinary two-job plan on the runtime plane
        (the shared lowering of :mod:`repro.api.lowering`): a
        pattern-provider scenario job feeding one diagnosis job.  A
        persistent-cache hit on the diagnosis job prunes the provider
        entirely — a cached diagnosis never pays for an ATPG run it would
        discard.  The provider's pattern run is kept in :attr:`artifacts`
        either way, so a later diagnosis of the same scenario reuses it.

        Args:
            spec_or_defect: A full :class:`~repro.diagnose.DiagnosisSpec`, or
                a bare :class:`~repro.diagnose.DefectSpec` (then ``scenario``
                is required).
            scenario: Scenario supplying the pattern set (name, spec, or a
                paper letter "a".."e"); overrides the spec's scenario when
                both are given.
            fail_log: An externally captured
                :class:`~repro.diagnose.FailLog` to diagnose instead of
                injecting ``spec.defect`` (content-addressed by its
                fingerprint, so a re-diagnosed tester log is a cache hit).
            executor: A configured :class:`~repro.runtime.Executor` to run
                the plan on (default: a serial one; the heavy lifting is
                sharded by the engine backend inside the diagnosis job).
            on_event: Streaming :class:`~repro.runtime.Event` callback.
            bp: ``True`` (or a :class:`~repro.volume.BpOptions`) routes the
                diagnosis through the loopy-BP multi-defect plane
                (:func:`~repro.volume.run_bp_diagnosis`): union-cone
                candidates, calibrated per-candidate confidences and a
                selected candidate *set*.
            defects: Several :class:`~repro.diagnose.DefectSpec` values to
                inject into one device (implies the BP plane — the
                classical ranking is single-defect by construction).
            **overrides: Field overrides applied to the diagnosis spec
                (``candidate_kinds``, ``max_sites``, ``backend``, ...).

        Returns:
            The ranked :class:`~repro.diagnose.DiagnosisResult`, or a
            :class:`~repro.volume.BpDiagnosisResult` when ``bp``/``defects``
            select the BP plane.
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
        plan = self._lower_diagnosis(
            spec, scenario_spec, fail_log, bp_options, defects
        )
        provider, diagnosis_job = plan.jobs

        # An earlier run of the scenario in this session seeds the provider
        # job — reused as-is, exactly like the pre-plan artifact short cut.
        seeds: dict[str, object] = {}
        artifact = self.artifacts.get(scenario_spec.name)
        if artifact is not None and artifact.patterns is not None:
            seeds[provider.id] = artifact
        executor = executor or Executor()
        result = execute_plan(
            plan, executor, cache=self._cache, telemetry=self._telemetry,
            seeds=seeds, on_event=on_event,
        )
        provided = result.results.get(provider.id)
        if provided is not None and provided.reason in (None, "cache"):
            cached = executor.effective_cache(self._cache) is not None
            self._keep(scenario_spec.name, provided, cached)
        diagnosis = result[diagnosis_job.id]
        if diagnosis.skipped:
            diagnosis.value.cache_hit = True
        return diagnosis.value

    def diagnosis_plan(
        self,
        spec_or_defect: "object",
        *,
        scenario: "ScenarioSpec | str | None" = None,
        fail_log: "object | None" = None,
        **overrides: object,
    ) -> Plan:
        """Compile one diagnosis into a two-job runtime plan.

        Job 1 (``patterns:<design>:<scenario>``) generates the scenario's
        pattern set through the scenario pipeline; it is an
        ``if_needed`` provider, pruned when the diagnosis job itself is
        served from the cache.  Job 2 (``diagnose:<scenario>``) consumes the
        provider's :class:`ScenarioRun` and runs the closed-loop (or external
        fail-log) diagnosis.  The plan is bound to this session's resources,
        including its memoised scoring scheduler.
        """
        spec, scenario_spec = self._resolve_diagnosis_request(
            spec_or_defect, scenario, overrides
        )
        return self._lower_diagnosis(spec, scenario_spec, fail_log, None, None)

    def _lower_diagnosis(
        self,
        spec,
        scenario_spec: ScenarioSpec,
        fail_log: "object | None",
        bp: "object | None",
        defects: "Sequence | None",
    ) -> Plan:
        """Lower one resolved diagnosis request into its two-job plan.

        ``bp`` (a :class:`~repro.volume.BpOptions`) selects the BP plane; the
        injected ``defects`` list rides in the job's cache key.
        """
        design_name = self.prepared.netlist.name
        resources = self.resources()
        resources["scenarios"][scenario_spec.name] = scenario_spec
        if defects:
            described = " + ".join(defect.describe() for defect in defects)
        elif spec.defect is not None:
            described = spec.defect.describe()
        else:
            described = "fail-log"
        prefix = "diagnose" if bp is None else "bp-diagnose"
        case = DiagnosisCase(
            id=f"{prefix}:{scenario_spec.name}",
            design=design_name,
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
            resources,
            name=f"{prefix}:{design_name}:{scenario_spec.name}",
            metadata={
                "design": design_name,
                "scenario": scenario_spec.name,
                "defect": described,
            },
        )

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

    def _session_metadata(self, specs: Sequence[ScenarioSpec]) -> dict[str, object]:
        meta: dict[str, object] = {
            "design": self.prepared.netlist.name,
            "num_chains": self.prepared.scan.num_chains,
            "scenarios": [spec.name for spec in specs],
        }
        spec = self.design_spec
        if spec is not None:
            meta["design_spec"] = spec.name
            meta["design_size"] = spec.size_estimate()
        if not self._external_design and self._design_spec is None:
            meta["size"] = self._size
            meta["seed"] = self._seed
        return meta


def outcome_of(run: ScenarioRun) -> ScenarioOutcome:
    """Fold one executed scenario run into its JSON-safe outcome record.

    Module-level (not a session method): the campaign runner folds worker-
    and cache-produced runs through the same code path.
    """
    spec = run.spec
    pattern_count = len(run.patterns) if run.patterns is not None else 0
    if spec.fault_model == "mixed":
        combined = run.extras["combined"]
        test_cov = float(combined["test_coverage_percent"])
        fault_cov = float(combined["fault_coverage_percent"])
        effectiveness = float(combined["atpg_effectiveness_percent"])
    elif spec.fault_model == "path-delay":
        info = run.extras["path_delay"]
        targeted = int(info["paths_targeted"]) or 1
        found = int(info["tests_found"])
        test_cov = 100.0 * found / targeted
        fault_cov = test_cov
        effectiveness = 100.0 * (found + int(info["untestable"])) / targeted
    else:
        assert run.result is not None
        test_cov = run.result.coverage.test_coverage
        fault_cov = run.result.coverage.fault_coverage
        effectiveness = run.result.coverage.atpg_effectiveness
    return ScenarioOutcome(
        scenario=spec.name,
        description=spec.description,
        fault_model=spec.fault_model,
        test_coverage=test_cov,
        fault_coverage=fault_cov,
        atpg_effectiveness=effectiveness,
        pattern_count=pattern_count,
        cpu_seconds=sum(run.stage_seconds.values()),
        stage_seconds=dict(run.stage_seconds),
        legacy_key=spec.legacy_key,
        extras=dict(run.extras),
    )
