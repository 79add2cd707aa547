"""The scenario pipeline and the runtime job kinds every front door runs.

:func:`execute_scenario` runs one scenario on one prepared design as the
fixed ``setup -> atpg -> compaction -> compression -> export`` sequence, so
a ``"scenario"`` job is a pure function of its cache key (design, scenario,
options).  Importing the module registers the ``"scenario"``,
``"diagnosis"`` and ``"bp-diagnosis"`` job kinds; process-pool workers
re-import it by the handlers' module name.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping

from repro.api.design import PreparedDesign, prepare_from_spec, timed_step
from repro.api.report import ScenarioOutcome
from repro.api.scenario import ScenarioSpec
from repro.atpg.compaction import compact_pattern_set
from repro.atpg.config import AtpgOptions, TestSetup
from repro.atpg.generator import AtpgResult
from repro.atpg.path_delay import PathDelayAtpg, select_critical_paths
from repro.atpg.podem import PodemStatus
from repro.atpg.stuck_at import StuckAtAtpg
from repro.atpg.transition import TransitionAtpg
from repro.dft.edt import EdtArchitecture
from repro.engine.cache import design_identity
from repro.patterns.ate import export_stil
from repro.patterns.pattern import PatternSet
from repro.patterns.store import PatternStore, StoredPatternView
from repro.runtime import register_job_kind

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
    run.extras["store"] = {"path": str(store.path), "patterns": count}
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


def _memoised(resources: dict, memo: str, key, build):
    """``resources[memo][key]``, built on first use.

    Double-checked under :data:`_MATERIALIZE_LOCK`, so concurrent
    thread-wave jobs never build one entry twice.  A campaign binds its own
    memo dicts, shared by all its plans; ``_``-prefixed memos never ship to
    process workers, which fill their own.
    """
    entries = resources.setdefault(memo, {})
    value = entries.get(key)
    if value is None:
        with _MATERIALIZE_LOCK:
            value = entries.get(key)
            if value is None:
                value = entries[key] = build()
    return value


def materialize_design(resources: dict, name: str) -> PreparedDesign:
    """The built design a plan resource entry names, memoised in
    ``_materialized`` by its :func:`~repro.engine.cache.design_identity`.

    ``resources["designs"]`` maps design names to either an already built
    :class:`~repro.api.design.PreparedDesign` (shipped to process workers
    once via the pool initializer) or a declarative
    :class:`~repro.api.design.DesignSpec` (each worker builds it the first
    time one of its jobs touches it).  Keying on identity, not on the
    name, lets a memo that outlives one plan (a campaign's, a session's, a
    server's) serve every later plan on the same design, and never serve a
    different design registered under the same name.  The memoised
    design's model carries the ATPG artefacts of every run on it
    (:mod:`repro.atpg.artefacts`).
    """
    design = resources["designs"][name]

    def build() -> PreparedDesign:
        return design if isinstance(design, PreparedDesign) else prepare_from_spec(design)

    return _memoised(resources, "_materialized", design_identity(design), build)


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
    matter how many diagnoses the plan runs against it.  Its syndrome
    dictionary lives in ``resources["_syndromes"]``, keyed by content: the
    provider's cache key (``params["pattern_key"]``), the scenario and the
    batch size — never by object identity, since every diagnosis receives
    its own copy of the pattern list.  An external fail log arrives by name
    through ``resources["fail_logs"]`` (picklable, so it ships to process
    workers).
    """
    from repro.diagnose import DiagnosisSpec, SyndromeDictionary

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
        "dictionary": _memoised(
            resources, "_syndromes",
            (params["pattern_key"], params["scenario"], spec.batch_size),
            SyndromeDictionary,
        ),
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
    """One constraint environment per (design, scenario), memoised in
    ``_setups`` and shared by every diagnosis job against that row."""
    return _memoised(
        resources, "_setups", (design_name, scenario_spec.name),
        lambda: scenario_spec.build_setup(prepared, options),
    )


def _diagnosis_job_scheduler(resources, prepared, spec, options):
    """The candidate-scoring scheduler a diagnosis job should use.

    Memoised into ``resources["_schedulers"]`` per (design, backend), so one
    compiled circuit serves a whole plan's defect stream.  A campaign (and
    so a session) binds its own persistent dict there, so its schedulers
    also outlive one ``diagnose()`` call; the dict is filled lazily, so a
    fully cached diagnosis never compiles kernels it will not use.
    """
    from repro.engine.scheduler import FaultSimScheduler

    backend = spec.backend or options.sim_backend
    return _memoised(
        resources, "_schedulers",
        (id(prepared.model), backend),
        lambda: FaultSimScheduler(prepared.model, backend=backend),
    )


def outcome_of(run: ScenarioRun) -> ScenarioOutcome:
    """Fold one executed scenario run into its JSON-safe outcome record
    (worker-, cache- and in-process-produced runs alike)."""
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
