"""Volume mode — a whole fail-log store diagnosed as one runtime plan.

This is the pipeline layer of :mod:`repro.volume`: it lowers a
:class:`~repro.volume.store.FailLogStore` (or any record stream) into a
single :class:`~repro.runtime.Plan` — one ``if_needed`` pattern-provider
job per (design, scenario) row, one ``"bp-diagnosis"`` job per stored log
— and assembles the streamed results into a :class:`BpDiagnosisReport`.

Three properties carry over from the campaign plane by construction:

* **every backend**: the plan runs on any
  :class:`~repro.runtime.Executor` backend (serial/threads/processes and
  serve's remote workers) with bit-identical reports;
* **resumable**: BP jobs are content-addressed by
  :func:`~repro.engine.cache.bp_diagnosis_key` (design x scenario x spec
  x BP knobs x *log fingerprint*), so a killed run resumes from a
  :class:`~repro.engine.cache.ResultCache` with zero re-runs and a fully
  cached store prunes every pattern provider;
* **serve-submittable**: :func:`submit_volume` ships the identical plan
  to a :mod:`repro.serve` server and :meth:`VolumeHandle.report` rebuilds
  the report from the event journal through the same merge path a local
  run uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping

from repro.diagnose.defects import DEFECT_KINDS, DefectSpec
from repro.diagnose.diagnose import DiagnosisSpec
from repro.engine.cache import (
    bp_diagnosis_key,
    campaign_cell_key,
    design_fingerprint,
    design_spec_fingerprint,
    fail_log_fingerprint,
)
from repro.engine.scheduler import BACKENDS
from repro.runtime import (
    Event,
    Executor,
    Job,
    Plan,
    PlanCancelled,
    register_job_kind,
)
from repro.volume.bp import BpOptions
from repro.volume.graph import BpDiagnosisResult, run_bp_diagnosis
from repro.volume.store import FailLogRecord, FailLogStore


# --------------------------------------------------------------------------
# The declarative volume configuration
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class VolumeSpec:
    """One declarative volume-diagnosis configuration (JSON-round-trippable).

    The volume analogue of :class:`~repro.diagnose.DiagnosisSpec`: the same
    candidate-extraction and engine knobs (lowered per log via
    :meth:`diagnosis_spec`), plus the BP inference knobs applied to every
    log of the store.  ``scenario`` names the pattern set the devices ran
    on the tester; records carrying their own scenario label override it
    per log.
    """

    scenario: str
    candidate_kinds: tuple[str, ...] = DEFECT_KINDS
    max_sites: int | None = None
    batch_size: int = 256
    backend: str | None = None
    bp: BpOptions = field(default_factory=BpOptions)

    def __post_init__(self) -> None:
        if not self.scenario:
            raise ValueError("a volume diagnosis needs a scenario name")
        if isinstance(self.candidate_kinds, list):
            object.__setattr__(self, "candidate_kinds", tuple(self.candidate_kinds))
        for kind in self.candidate_kinds:
            if kind not in DEFECT_KINDS:
                raise ValueError(
                    f"unknown candidate kind {kind!r} "
                    f"(expected a subset of {DEFECT_KINDS})"
                )
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown engine backend {self.backend!r} "
                f"(expected one of {BACKENDS})"
            )
        if isinstance(self.bp, Mapping):
            object.__setattr__(self, "bp", BpOptions.from_dict(self.bp))

    def with_overrides(self, **changes: object) -> "VolumeSpec":
        return replace(self, **changes)  # type: ignore[arg-type]

    def diagnosis_spec(self, scenario: str | None = None) -> DiagnosisSpec:
        """Lower to the per-log diagnosis configuration (no defect — the
        log carries the evidence)."""
        return DiagnosisSpec(
            scenario=scenario or self.scenario,
            defect=None,
            candidate_kinds=self.candidate_kinds,
            max_sites=self.max_sites,
            batch_size=self.batch_size,
            backend=self.backend,
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "scenario": self.scenario,
            "candidate_kinds": list(self.candidate_kinds),
            "max_sites": self.max_sites,
            "batch_size": self.batch_size,
            "backend": self.backend,
            "bp": self.bp.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "VolumeSpec":
        payload = dict(data)
        payload["candidate_kinds"] = tuple(payload.get("candidate_kinds", DEFECT_KINDS))
        payload["bp"] = BpOptions.from_dict(payload.get("bp", {}))
        return cls(**payload)  # type: ignore[arg-type]

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VolumeSpec":
        return cls.from_dict(json.loads(text))


# --------------------------------------------------------------------------
# The job handler (module-level so process/remote workers re-import it)
# --------------------------------------------------------------------------
@register_job_kind("bp-diagnosis")
def run_bp_diagnosis_job(resources: dict, params: Mapping[str, object], deps: dict):
    """Diagnose one fail log with BP against a dependency-supplied pattern set.

    Shares every materialization seam with the ``"diagnosis"`` kind —
    designs, per-(design, scenario) constraint setups and scoring
    schedulers are memoised in the resources dict, so a thousand-log plan
    builds each exactly once per worker.  The log arrives by name through
    ``resources["fail_logs"]`` (picklable, ships to process workers);
    closed-loop experiments may pass ``params["defects"]`` instead.
    """
    from repro.api.session import (
        _diagnosis_job_scheduler,
        materialize_design,
        materialize_setup,
    )
    from repro.atpg.config import AtpgOptions

    prepared = materialize_design(resources, params["design"])
    options = resources.get("options") or AtpgOptions()
    scenario_spec = resources["scenarios"][params["scenario"]]
    spec = DiagnosisSpec.from_dict(params["spec"])
    bp = BpOptions.from_dict(params["bp"])
    run = deps[params["patterns"]]
    if run is None or run.patterns is None:
        raise ValueError(
            f"scenario {scenario_spec.name!r} produced no patterns to diagnose"
        )
    fail_log = None
    if params.get("log") is not None:
        fail_log = resources["fail_logs"][params["log"]]
    defects = None
    if params.get("defects"):
        defects = [DefectSpec.from_dict(item) for item in params["defects"]]
    setup = materialize_setup(
        resources, prepared, scenario_spec, params["design"], options
    )
    return run_bp_diagnosis(
        prepared,
        setup,
        run.patterns,
        spec,
        bp,
        fail_log=fail_log,
        defects=defects,
        options=options,
        scheduler=_diagnosis_job_scheduler(resources, prepared, spec, options),
    )


# --------------------------------------------------------------------------
# Plan compilation
# --------------------------------------------------------------------------
def _design_fp(design: object) -> str:
    """Any design resource entry's identity digest (spec or built).

    A spec-built :class:`~repro.api.design.PreparedDesign` keys on its
    *declarative* spec fingerprint — the same identity a not-yet-built
    entry produces — so a resumed run whose designs were harvested in a
    previous execution still hits the same cache entries.
    """
    model = getattr(design, "model", None)
    if model is not None:
        spec = getattr(design, "spec", None)
        if spec is not None:
            return design_spec_fingerprint(spec)
        return design_fingerprint(model)
    return design_spec_fingerprint(design)


def volume_plan(
    records: "FailLogStore | Iterable[FailLogRecord]",
    designs: Mapping[str, object],
    scenarios: Mapping[str, object],
    spec: VolumeSpec,
    *,
    options: object = None,
    stages: "tuple | None" = None,
    name: str = "volume-diagnosis",
) -> Plan:
    """Compile a fail-log stream into one resumable runtime plan.

    Per (design, scenario) row touched by the records one ``if_needed``
    pattern-provider job (cache key shared with ordinary campaign cells,
    so pattern sets flow between scenario campaigns, diagnosis sweeps and
    volume runs); per record one ``"bp-diagnosis"`` job keyed on
    :func:`~repro.engine.cache.bp_diagnosis_key` *including the log's
    content fingerprint* — a fully cached store prunes every provider and
    re-runs nothing.

    Args:
        records: A :class:`~repro.volume.store.FailLogStore` or any
            iterable of :class:`~repro.volume.store.FailLogRecord`.
        designs: Design name -> built
            :class:`~repro.api.design.PreparedDesign` or declarative
            :class:`~repro.api.design.DesignSpec` (the resource contract of
            :func:`~repro.api.session.materialize_design`).  Every record's
            ``design`` must resolve here.
        scenarios: Scenario name -> :class:`~repro.api.scenarios.ScenarioSpec`;
            must cover ``spec.scenario`` and every record-level label.
        spec: The volume configuration applied to every log.
        options: :class:`~repro.atpg.AtpgOptions` the pattern sets were
            generated under.
        stages: The session stage pipeline folded into cache keys
            (default: the standard pipeline).
    """
    if stages is None:
        from repro.api.session import DEFAULT_STAGES

        stages = tuple(DEFAULT_STAGES)
    record_list = list(records)
    if not record_list:
        raise ValueError("a volume plan needs at least one fail-log record")
    fingerprints = {name_: _design_fp(design) for name_, design in designs.items()}
    jobs: list[Job] = []
    providers: dict[tuple[str, str], Job] = {}
    fail_logs: dict[str, object] = {}
    seen: set[str] = set()
    for record in record_list:
        if record.name in seen:
            raise ValueError(f"duplicate fail-log record name {record.name!r}")
        seen.add(record.name)
        if record.design not in designs:
            raise ValueError(
                f"fail log {record.name!r} names unknown design "
                f"{record.design!r} (known: {sorted(designs)})"
            )
        scenario_name = record.scenario or spec.scenario
        scenario_spec = scenarios.get(scenario_name)
        if scenario_spec is None:
            raise ValueError(
                f"fail log {record.name!r} names unknown scenario "
                f"{scenario_name!r} (known: {sorted(scenarios)})"
            )
        row = (record.design, scenario_name)
        provider = providers.get(row)
        if provider is None:
            provider = Job(
                id=f"patterns:{record.design}:{scenario_name}",
                kind="scenario",
                params={"design": record.design, "scenario": scenario_name},
                cache_key=campaign_cell_key(
                    fingerprints[record.design], scenario_spec,
                    options, extra=stages,
                ),
                label=f"{record.design}::{scenario_name}",
                if_needed=True,
            )
            providers[row] = provider
            jobs.append(provider)
        diagnosis_spec = spec.diagnosis_spec(scenario_name)
        key = bp_diagnosis_key(
            fingerprints[record.design], scenario_spec, diagnosis_spec,
            spec.bp, options, extra=stages,
            log_fp=fail_log_fingerprint(record.log),
        )
        fail_logs[record.name] = record.log
        jobs.append(
            Job(
                id=f"bp:{record.name}",
                kind="bp-diagnosis",
                params={
                    "design": record.design,
                    "scenario": scenario_name,
                    "spec": diagnosis_spec.to_dict(),
                    "bp": spec.bp.to_dict(),
                    "patterns": provider.id,
                    "log": record.name,
                },
                deps=(provider.id,),
                cache_key=key,
                label=f"bp::{record.design}::{scenario_name}::{record.name}",
            )
        )
    return Plan(
        name=name,
        jobs=tuple(jobs),
        metadata={
            "designs": sorted({record.design for record in record_list}),
            "scenarios": sorted({row[1] for row in providers}),
            "logs": [record.name for record in record_list],
        },
        resources={
            "options": options,
            "stages": stages,
            "designs": dict(designs),
            "scenarios": dict(scenarios),
            "fail_logs": fail_logs,
        },
    )


# --------------------------------------------------------------------------
# Cells & report
# --------------------------------------------------------------------------
@dataclass
class BpDiagnosisCell:
    """One fail log's landed volume-diagnosis outcome (JSON-safe)."""

    design: str
    scenario: str
    log: str
    defects: list[str] = field(default_factory=list)
    rank_of_defect: "int | None" = None
    confidence: "float | None" = None
    recovered_all: bool = False
    selected: int = 0
    resolution: int = 0
    candidate_count: int = 0
    fail_count: int = 0
    converged: bool = False
    bp_iterations: int = 0
    ambiguous_pairs: int = 0
    unexplained: int = 0
    cache_hit: bool = False
    wall_seconds: float = 0.0

    @classmethod
    def from_result(
        cls, log_name: str, result: BpDiagnosisResult
    ) -> "BpDiagnosisCell":
        return cls(
            design=result.design,
            scenario=result.scenario,
            log=log_name,
            defects=[spec.describe() for spec in result.defects],
            rank_of_defect=result.rank_of_defect,
            confidence=result.confidence_of_defect,
            recovered_all=result.recovered_all_defects(),
            selected=len(result.selected_candidates()),
            resolution=result.resolution,
            candidate_count=result.candidate_count,
            fail_count=result.fail_count,
            converged=result.converged,
            bp_iterations=result.bp_iterations,
            ambiguous_pairs=len(result.ambiguous_pairs),
            unexplained=result.unexplained,
            cache_hit=result.cache_hit,
            wall_seconds=result.wall_seconds,
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "design": self.design,
            "scenario": self.scenario,
            "log": self.log,
            "defects": list(self.defects),
            "rank_of_defect": self.rank_of_defect,
            "confidence": self.confidence,
            "recovered_all": self.recovered_all,
            "selected": self.selected,
            "resolution": self.resolution,
            "candidate_count": self.candidate_count,
            "fail_count": self.fail_count,
            "converged": self.converged,
            "bp_iterations": self.bp_iterations,
            "ambiguous_pairs": self.ambiguous_pairs,
            "unexplained": self.unexplained,
            "cache_hit": self.cache_hit,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BpDiagnosisCell":
        return cls(**dict(data))  # type: ignore[arg-type]

    def deterministic_dict(self) -> dict[str, object]:
        """The backend-independent projection (drops timing and cache
        provenance — what byte-identity across executions is asserted on)."""
        payload = self.to_dict()
        payload.pop("cache_hit")
        payload.pop("wall_seconds")
        return payload


@dataclass
class BpDiagnosisReport:
    """Streaming volume-diagnosis results over one fail-log store."""

    campaign: dict[str, object] = field(default_factory=dict)
    cells: list[BpDiagnosisCell] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def add_cell(self, cell: BpDiagnosisCell) -> BpDiagnosisCell:
        self.cells.append(cell)
        return cell

    def cell(self, log: str) -> BpDiagnosisCell:
        for cell in self.cells:
            if cell.log == log:
                return cell
        raise KeyError(f"no volume cell for fail log {log!r}")

    def rank_one_count(self) -> int:
        return sum(1 for cell in self.cells if cell.rank_of_defect == 1)

    def recovered_count(self) -> int:
        return sum(1 for cell in self.cells if cell.recovered_all)

    def cache_hits(self) -> int:
        return sum(1 for cell in self.cells if cell.cache_hit)

    @property
    def backend_fallbacks(self) -> list[dict[str, str]]:
        """Executor degradations — same contract as
        :attr:`~repro.diagnose.DiagnosisReport.backend_fallbacks`."""
        return list(self.campaign.get("backend_fallbacks") or [])

    @property
    def degraded(self) -> bool:
        """True when the run did not execute on the requested backend."""
        return bool(self.backend_fallbacks)

    def summary(self) -> str:
        lines = []
        for cell in self.cells:
            rank = "-" if cell.rank_of_defect is None else str(cell.rank_of_defect)
            conf = "-" if cell.confidence is None else f"{cell.confidence:.3f}"
            origin = "cache" if cell.cache_hit else "run"
            status = "conv" if cell.converged else "DIV"
            lines.append(
                f"{cell.design:<20} {cell.scenario:<12} {cell.log:<24} "
                f"rank={rank:<3} conf={conf:<6} sel={cell.selected:<3} "
                f"res={cell.resolution:<3} amb={cell.ambiguous_pairs:<3} "
                f"{status:<4} {origin:<5} {cell.wall_seconds:7.2f}s"
            )
        lines.append(
            f"recovered all defects: {self.recovered_count()}/{len(self.cells)} "
            f"(rank 1: {self.rank_one_count()}/{len(self.cells)})"
        )
        for fb in self.backend_fallbacks:
            lines.append(
                f"NOTE: backend fallback {fb.get('requested', '?')} -> "
                f"{fb.get('used', '?')}: {fb.get('reason', 'unknown reason')}"
            )
        return "\n".join(lines)

    def same_results(self, other: "BpDiagnosisReport") -> bool:
        """Deterministic-projection equality — the cross-backend (and
        local-vs-serve) byte-identity contract."""
        if len(self.cells) != len(other.cells):
            return False
        return all(
            mine.deterministic_dict() == theirs.deterministic_dict()
            for mine, theirs in zip(self.cells, other.cells)
        )

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "campaign": self.campaign,
            "cells": [cell.to_dict() for cell in self.cells],
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "BpDiagnosisReport":
        payload = json.loads(text)
        return cls(
            campaign=dict(payload.get("campaign", {})),
            cells=[
                BpDiagnosisCell.from_dict(item)
                for item in payload.get("cells", [])
            ],
        )


# --------------------------------------------------------------------------
# Event-driven report assembly (shared by local runs and serve replay)
# --------------------------------------------------------------------------
def volume_report_builder(
    plan: Plan,
    *,
    metadata: "dict[str, object] | None" = None,
    on_cell: "Callable[[BpDiagnosisCell], None] | None" = None,
    on_event: "Callable[[Event], None] | None" = None,
) -> "tuple[BpDiagnosisReport, Callable[[Event], None], Callable[[], BpDiagnosisReport]]":
    """Fold a volume plan's event stream into its report.

    Returns ``(report, handle, finalize)``: feed every
    :class:`~repro.runtime.Event` — live from an executor or replayed from
    a serve journal — to ``handle``, then call ``finalize`` for the
    store-ordered report.  One code path means a remotely executed volume
    run's report is assembled exactly like a local one (a requeued serve
    job replays its journal from the start; ``finalize`` keeps the last
    merge per log).
    """
    report = BpDiagnosisReport(campaign=dict(metadata or {}))
    bp_jobs = {
        job.id: str(job.params["log"])
        for job in plan.jobs
        if job.kind == "bp-diagnosis"
    }
    landed: dict[str, BpDiagnosisCell] = {}

    def handle(event: Event) -> None:
        log_name = bp_jobs.get(event.job) if event.job is not None else None
        if log_name is not None and event.kind in ("job_finished", "job_skipped"):
            result = event.value
            if not isinstance(result, BpDiagnosisResult):
                # The event wire degrades unpicklable values to a repr
                # string and corrupt pickles to None; say so rather than
                # die on an attribute below.
                raise TypeError(
                    f"volume cell for log {log_name!r} did not survive the "
                    f"event wire: expected a BpDiagnosisResult, got "
                    f"{type(result).__name__} ({str(result)[:80]!r})"
                )
            if event.kind == "job_skipped":
                result.cache_hit = True
            cell = BpDiagnosisCell.from_result(log_name, result)
            landed[event.job] = report.add_cell(cell)
            if on_cell is not None:
                on_cell(cell)
        if on_event is not None:
            on_event(event)

    def finalize() -> BpDiagnosisReport:
        missing = [job_id for job_id in bp_jobs if job_id not in landed]
        if missing:
            raise PlanCancelled(
                f"volume diagnosis cancelled before {len(missing)} log(s) "
                f"completed (first: {bp_jobs[missing[0]]!r})"
            )
        # Store order, not completion order: pooled backends land cells as
        # they finish, and the report must be identical across backends.
        report.cells = [landed[job_id] for job_id in bp_jobs]
        return report

    return report, handle, finalize


def execute_volume_plan(
    plan: Plan,
    *,
    executor: "Executor | None" = None,
    cache: object = None,
    on_cell: "Callable[[BpDiagnosisCell], None] | None" = None,
    on_event: "Callable[[Event], None] | None" = None,
) -> BpDiagnosisReport:
    """Run one compiled volume plan locally and assemble its report."""
    executor = executor or Executor()
    metadata = {
        "designs": list(plan.metadata.get("designs", [])),
        "scenarios": list(plan.metadata.get("scenarios", [])),
        "logs": len(plan.metadata.get("logs", [])),
        "backend": executor.backend,
        "cached": executor.effective_cache(cache) is not None,
    }
    report, handle, finalize = volume_report_builder(
        plan, metadata=metadata, on_cell=on_cell, on_event=on_event
    )
    result = executor.execute(plan, cache=cache, on_event=handle)
    if result.fallbacks:
        report.campaign["backend_fallbacks"] = list(result.fallbacks)
    return finalize()


# --------------------------------------------------------------------------
# Serve submission
# --------------------------------------------------------------------------
@dataclass
class VolumeHandle:
    """A volume plan submitted to a serve server via :func:`submit_volume`.

    Holds the queue job id plus the compiled plan, which is what lets
    :meth:`report` rebuild the :class:`BpDiagnosisReport` client-side from
    the server's event journal — through the same merge path
    :func:`execute_volume_plan` uses, so the two reports are identical for
    identical inputs.
    """

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
        on_cell: "Callable[[BpDiagnosisCell], None] | None" = None,
        on_event: "Callable[[Event], None] | None" = None,
    ) -> BpDiagnosisReport:
        """Wait for completion and assemble the volume report.

        Streams the server's event journal (so ``on_cell``/``on_event``
        see live progress exactly as with a local run) and finalizes the
        store-ordered report.  Raises
        :class:`~repro.runtime.PlanCancelled` if the job ended in any
        state but ``done``.
        """
        metadata = {
            "designs": list(self.plan.metadata.get("designs", [])),
            "scenarios": list(self.plan.metadata.get("scenarios", [])),
            "logs": len(self.plan.metadata.get("logs", [])),
            "backend": "serve",
            "cached": True,
        }
        report, handle, finalize = volume_report_builder(
            self.plan, metadata=metadata, on_cell=on_cell, on_event=on_event
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


def submit_volume(
    client,
    plan: Plan,
    *,
    tenant: str = "default",
    name: "str | None" = None,
    metadata: "Mapping[str, object] | None" = None,
) -> VolumeHandle:
    """Submit a compiled volume plan to a running serve server.

    The fire-and-forget counterpart of :func:`execute_volume_plan`: the
    identical plan ships to the server (declarative JSON plus pickled
    resource bindings — the fail logs ride along) and executes there,
    against the tenant's persistent result cache.  Works with the PR-8
    serve plane unchanged: a volume plan is just a plan.
    """
    job_id = client.submit(
        plan, tenant=tenant, name=name or plan.name, metadata=metadata
    )
    return VolumeHandle(client=client, job_id=job_id, plan=plan)
