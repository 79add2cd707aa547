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
  :func:`~repro.engine.cache.diagnosis_key` (design x scenario x spec
  x BP knobs x *log fingerprint*), so a killed run resumes from a
  :class:`~repro.engine.cache.ResultCache` with zero re-runs and a fully
  cached store prunes every pattern provider;
* **serve-submittable**: :func:`submit_volume` ships the identical plan
  to a :mod:`repro.serve` server and the returned
  :class:`~repro.api.lowering.CampaignHandle` rebuilds the report from the
  event journal through the same fold a local run uses.

The lowering, the execute step and the fold are the shared ones of
:mod:`repro.api.lowering`; this module adds the volume configuration, the
per-log cells and the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.api.lowering import (
    CampaignHandle,
    DiagnosisCase,
    execute_plan,
    fold_events,
    lower_diagnoses,
)
from repro.diagnose.defects import DEFECT_KINDS
from repro.diagnose.diagnose import DiagnosisSpec
from repro.engine.scheduler import BACKENDS
from repro.runtime import Event, Executor, Job, Plan
from repro.records import JsonRecord
from repro.runtime.report import PlanReport, mark_cache_hit
from repro.volume.bp import BpOptions
from repro.volume.graph import BpDiagnosisResult
from repro.volume.store import FailLogRecord, FailLogStore


# --------------------------------------------------------------------------
# The declarative volume configuration
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class VolumeSpec(JsonRecord):
    """One declarative volume-diagnosis configuration (JSON-round-trippable).

    The volume analogue of :class:`~repro.diagnose.DiagnosisSpec`: the same
    candidate-extraction and engine knobs (lowered per log via
    :meth:`diagnosis_spec`), plus the BP inference knobs applied to every
    log of the store.  ``scenario`` names the pattern set the devices ran
    on the tester; records carrying their own scenario label override it
    per log.
    """

    nested = {"bp": BpOptions}

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


# --------------------------------------------------------------------------
# Plan compilation
# --------------------------------------------------------------------------
def volume_plan(
    records: "FailLogStore | Iterable[FailLogRecord]",
    designs: Mapping[str, object],
    scenarios: Mapping[str, object],
    spec: VolumeSpec,
    *,
    options: object = None,
    name: str = "volume-diagnosis",
    memos: "Mapping[str, dict] | None" = None,
) -> Plan:
    """Compile a fail-log stream into one resumable runtime plan.

    Per (design, scenario) row touched by the records one ``if_needed``
    pattern-provider job (cache key shared with ordinary campaign cells,
    so pattern sets flow between scenario campaigns, diagnosis sweeps and
    volume runs); per record one ``"bp-diagnosis"`` job ``bp:<log name>``
    keyed on :func:`~repro.engine.cache.diagnosis_key` *including the
    log's content fingerprint* — a fully cached store prunes every provider
    and re-runs nothing.

    Args:
        records: A :class:`~repro.volume.store.FailLogStore` or any
            iterable of :class:`~repro.volume.store.FailLogRecord`.
        designs: Design name -> built
            :class:`~repro.api.design.PreparedDesign` or declarative
            :class:`~repro.api.design.DesignSpec` (the resource contract of
            :func:`~repro.api.pipeline.materialize_design`).  Every record's
            ``design`` must resolve here.
        scenarios: Scenario name -> :class:`~repro.api.scenarios.ScenarioSpec`;
            must cover ``spec.scenario`` and every record-level label.
        spec: The volume configuration applied to every log.
        options: :class:`~repro.atpg.AtpgOptions` the pattern sets were
            generated under.
        memos: ``_``-prefixed memo dicts to bind into the plan resources
            (``_materialized``, ``_schedulers``, ``_syndromes``), so built
            designs, scoring schedulers and syndrome dictionaries outlive
            this plan; a campaign passes its own.  Omitted, the plan fills
            fresh ones.
    """
    memos = dict(memos or {})
    unprefixed = sorted(key for key in memos if not key.startswith("_"))
    if unprefixed:
        raise ValueError(f"volume plan memos must be _-prefixed, got {unprefixed}")
    record_list = list(records)
    if not record_list:
        raise ValueError("a volume plan needs at least one fail-log record")
    cases: list[DiagnosisCase] = []
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
        if scenario_name not in scenarios:
            raise ValueError(
                f"fail log {record.name!r} names unknown scenario "
                f"{scenario_name!r} (known: {sorted(scenarios)})"
            )
        cases.append(
            DiagnosisCase(
                id=f"bp:{record.name}",
                design=record.design,
                scenario=scenario_name,
                spec=spec.diagnosis_spec(scenario_name),
                described=record.name,
                bp=spec.bp,
                log=record.name,
                fail_log=record.log,
            )
        )
    return lower_diagnoses(
        cases,
        {
            "options": options,
            "designs": dict(designs),
            "scenarios": dict(scenarios),
            **memos,
        },
        name=name,
        metadata={
            "designs": sorted({case.design for case in cases}),
            "scenarios": sorted({case.scenario for case in cases}),
            "logs": [case.log for case in cases],
        },
    )


# --------------------------------------------------------------------------
# Cells & report
# --------------------------------------------------------------------------
@dataclass
class BpDiagnosisCell(JsonRecord):
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

    def deterministic_dict(self) -> dict[str, object]:
        """The backend-independent projection (drops timing and cache
        provenance — what byte-identity across executions is asserted on)."""
        payload = self.to_dict()
        payload.pop("cache_hit")
        payload.pop("wall_seconds")
        return payload


class BpDiagnosisReport(PlanReport):
    """Streaming volume-diagnosis results over one fail-log store."""

    cell_type = BpDiagnosisCell

    def cell(self, log: str) -> BpDiagnosisCell:
        for cell in self.cells:
            if cell.log == log:
                return cell
        raise KeyError(f"no volume cell for fail log {log!r}")

    def rank_one_count(self) -> int:
        return sum(1 for cell in self.cells if cell.rank_of_defect == 1)

    def recovered_count(self) -> int:
        return sum(1 for cell in self.cells if cell.recovered_all)

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
        return "\n".join(lines + self.fallback_notes())

    def same_results(self, other: "BpDiagnosisReport") -> bool:
        """Deterministic-projection equality — the cross-backend (and
        local-vs-serve) byte-identity contract."""
        if len(self.cells) != len(other.cells):
            return False
        return all(
            mine.deterministic_dict() == theirs.deterministic_dict()
            for mine, theirs in zip(self.cells, other.cells)
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

    Returns ``(report, handle, finalize)`` from the shared
    :func:`~repro.api.lowering.fold_events`: feed every
    :class:`~repro.runtime.Event` — live from an executor or replayed from
    a serve journal — to ``handle``, then call ``finalize`` for the
    store-ordered report.  The header starts from the plan's designs,
    scenarios and log count; ``metadata`` extends or overrides it.
    """
    header: dict[str, object] = {
        "designs": list(plan.metadata.get("designs", [])),
        "scenarios": list(plan.metadata.get("scenarios", [])),
        "logs": len(plan.metadata.get("logs", [])),
        **(metadata or {}),
    }

    def cell_of(job: Job, result: BpDiagnosisResult, cache_hit: bool) -> BpDiagnosisCell:
        return BpDiagnosisCell.from_result(
            str(job.params["log"]), mark_cache_hit(result, cache_hit)
        )

    return fold_events(
        plan, BpDiagnosisReport(campaign=header), cell_of,
        on_cell=on_cell, on_event=on_event,
    )


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
        "backend": executor.backend,
        "cached": executor.effective_cache(cache) is not None,
    }
    report, handle, finalize = volume_report_builder(
        plan, metadata=metadata, on_cell=on_cell, on_event=on_event
    )
    execute_plan(plan, executor, cache=cache, metadata=report.campaign, on_event=handle)
    return finalize()


# --------------------------------------------------------------------------
# Serve submission
# --------------------------------------------------------------------------
def submit_volume(
    client,
    plan: Plan,
    *,
    tenant: str = "default",
    name: "str | None" = None,
    metadata: "Mapping[str, object] | None" = None,
) -> CampaignHandle:
    """Submit a compiled volume plan to a running serve server.

    The fire-and-forget counterpart of :func:`execute_volume_plan`: the
    identical plan ships to the server (declarative JSON plus pickled
    resource bindings — the fail logs ride along) and executes there,
    against the tenant's persistent result cache.  The returned handle's
    ``report()`` folds the journal into a :class:`BpDiagnosisReport`.
    """
    job_id = client.submit(
        plan, tenant=tenant, name=name or plan.name, metadata=metadata
    )
    header = {"backend": "serve", "cached": True}
    return CampaignHandle(
        client, job_id, plan,
        fold=lambda **callbacks: volume_report_builder(plan, metadata=header, **callbacks),
    )
