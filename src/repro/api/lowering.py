"""One path from plan to report, shared by every front door.

``Campaign`` (and so ``TestSession``, a one-design campaign) and the
volume plane (:func:`repro.volume.volume_plan`) run the same flow: lower a request
into a :class:`~repro.runtime.Plan`, execute it, and fold the executor's
event stream into a report.  This module holds the single copy of each
step:

* :func:`scenario_job` / :func:`lower_diagnoses` — the lowering.  Pattern
  sets are ``"scenario"`` jobs keyed on
  :func:`~repro.engine.cache.campaign_cell_key`; a diagnosis
  plan adds one ``if_needed`` pattern provider per (design, scenario) row
  and one ``"diagnosis"`` or ``"bp-diagnosis"`` job per
  :class:`DiagnosisCase`, keyed on
  :func:`~repro.engine.cache.diagnosis_key`.  Every key takes the design
  identity from :func:`~repro.engine.cache.design_identity`, so a
  session, a campaign and a volume run on the same design share entries;
* :func:`execute_plan` — the execute step: telemetry activation, the
  execution itself, and the fallback / telemetry-snapshot record;
* :func:`fold_events` — the event fold: cells stream in as jobs land and
  are put back in plan order at the end, whether the events come live
  from an executor or replayed from a serve journal;
* :class:`CampaignHandle` — the serve handle, which folds a submitted
  plan's journal through the same path a local run uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.engine.cache import (
    campaign_cell_key,
    design_identity,
    diagnosis_key,
    fail_log_fingerprint,
    spec_fingerprint,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.runtime import Event, Executor, Job, Plan, PlanCancelled, PlanResult


# --------------------------------------------------------------------------
# Lowering
# --------------------------------------------------------------------------
def scenario_job(
    job_id: str,
    design: str,
    scenario_spec: Any,
    resources: Mapping[str, Any],
    *,
    if_needed: bool = False,
) -> Job:
    """One ``"scenario"`` job: a scenario's pipeline on one design, keyed
    on the plan's design entry and ATPG options."""
    return Job(
        id=job_id,
        kind="scenario",
        params={"design": design, "scenario": scenario_spec.name},
        cache_key=campaign_cell_key(
            design_identity(resources["designs"][design]),
            scenario_spec,
            resources.get("options"),
        ),
        label=f"{design}::{scenario_spec.name}",
        if_needed=if_needed,
    )


@dataclass(frozen=True)
class DiagnosisCase:
    """One diagnosis job to lower.

    ``bp`` (a :class:`~repro.volume.BpOptions`) selects the loopy-BP plane;
    ``defects`` injects several defects into one device (BP only);
    ``fail_log`` is external evidence, shipped under the name ``log``.
    """

    id: str
    design: str
    scenario: str
    spec: Any
    described: str
    bp: Any = None
    defects: tuple = ()
    log: str | None = None
    fail_log: Any = None


def lower_diagnoses(
    cases: Iterable[DiagnosisCase],
    resources: dict[str, Any],
    *,
    name: str,
    metadata: Mapping[str, Any],
) -> Plan:
    """Lower diagnosis cases into one plan.

    ``resources`` binds the plan: ``designs``, ``scenarios`` and
    ``options`` (plus anything a front door adds).  Each (design,
    scenario) row gets one ``if_needed`` pattern provider, so a fully
    cached plan never builds a design or runs ATPG.  Each case's job is
    content-addressed on the row, its JSON-safe verdict inputs (spec, BP
    knobs, injected defects) and the fingerprint of its external fail log;
    its ``pattern_key`` param names the provider's cache key, which keys
    the pattern set's syndrome dictionary.  The scenario half of the key is
    fingerprinted once per row, not once per case.
    """
    identities = {
        design: design_identity(entry) for design, entry in resources["designs"].items()
    }
    fail_logs: dict[str, Any] = {}
    providers: dict[tuple[str, str], tuple[Job, str]] = {}
    jobs: list[Job] = []
    for case in cases:
        row = providers.get((case.design, case.scenario))
        if row is None:
            scenario_spec = resources["scenarios"][case.scenario]
            row = providers[case.design, case.scenario] = (
                scenario_job(
                    f"patterns:{case.design}:{case.scenario}",
                    case.design, scenario_spec, resources, if_needed=True,
                ),
                spec_fingerprint(scenario_spec, resources.get("options")),
            )
            jobs.append(row[0])
        provider, scenario_fp = row
        inputs: dict[str, Any] = {"spec": case.spec.to_dict()}
        if case.bp is not None:
            inputs["bp"] = case.bp.to_dict()
        if case.defects:
            inputs["defects"] = [defect.to_dict() for defect in case.defects]
        log_fp = None
        if case.fail_log is not None:
            fail_logs[case.log] = case.fail_log
            log_fp = fail_log_fingerprint(case.fail_log)
        key = diagnosis_key(identities[case.design], scenario_fp, inputs, log_fp=log_fp)
        params = {
            "design": case.design,
            "scenario": case.scenario,
            "patterns": provider.id,
            "pattern_key": provider.cache_key,
            **inputs,
        }
        if case.log is not None:
            params["log"] = case.log
        kind = "diagnosis" if case.bp is None else "bp-diagnosis"
        jobs.append(
            Job(
                id=case.id,
                kind=kind,
                params=params,
                deps=(provider.id,),
                cache_key=key,
                label=f"{kind}::{case.design}::{case.scenario}::{case.described}",
            )
        )
    return Plan(
        name=name,
        jobs=tuple(jobs),
        metadata=dict(metadata),
        resources={**resources, "fail_logs": fail_logs},
    )


# --------------------------------------------------------------------------
# Execution
# --------------------------------------------------------------------------
def execute_plan(
    plan: Plan,
    executor: Executor,
    *,
    cache: Any = None,
    telemetry: Telemetry = NULL_TELEMETRY,
    metadata: "dict[str, Any] | None" = None,
    seeds: "Mapping[str, Any] | None" = None,
    on_event: "Callable[[Event], None] | None" = None,
) -> PlanResult:
    """The execute step behind every front door.

    Activates the front door's telemetry around the execution (so every
    layer below records into it) and runs the plan against its cache.
    Designs built in-parent land in the plan's ``_materialized`` resource,
    which a campaign shares across its plans.  Backend fallbacks and —
    only when telemetry is enabled, so a disabled front door's report
    stays byte-identical — the telemetry snapshot are recorded into
    ``metadata``, the report header.
    """
    with telemetry.activate():
        result = executor.execute(plan, cache=cache, seeds=seeds, on_event=on_event)
    if metadata is not None:
        if result.fallbacks:
            metadata["backend_fallbacks"] = list(result.fallbacks)
        if telemetry:
            metadata["telemetry"] = telemetry.snapshot()
    return result


# --------------------------------------------------------------------------
# The event fold
# --------------------------------------------------------------------------
def fold_events(
    plan: Plan,
    report: Any,
    cell_of: Callable[[Job, Any, bool], Any],
    *,
    on_cell: "Callable[[Any], None] | None" = None,
    on_event: "Callable[[Event], None] | None" = None,
) -> tuple[Any, Callable[[Event], None], Callable[[], Any]]:
    """Fold a plan's event stream into ``report``.

    Every job that is not an ``if_needed`` provider yields one cell,
    ``cell_of(job, value, cache_hit)``.  Returns ``(report, handle,
    finalize)``: feed every :class:`~repro.runtime.Event` — live from an
    executor or replayed from a serve journal — to ``handle``; it appends
    cells as they land (completion order) and forwards the event to
    ``on_event``.  ``finalize`` puts the cells in plan order, so reports are
    identical across backends, and raises
    :class:`~repro.runtime.PlanCancelled` if a job never landed.  An event
    seen twice (a requeued serve job replays its journal) lands its cell
    again; the last one wins.
    """
    targets = {job.id: job for job in plan.jobs if not job.if_needed}
    landed: dict[str, Any] = {}

    def handle(event: Event) -> None:
        job = targets.get(event.job) if event.job is not None else None
        if job is not None and event.kind in ("job_finished", "job_skipped"):
            value = event.value
            if value is None or isinstance(value, str):
                # The event wire degrades unpicklable values to a repr
                # string and corrupt pickles to None; say so rather than
                # die on an attribute in the cell builder.
                raise TypeError(
                    f"job {job.id!r} ({job.label}) result did not survive "
                    f"the event wire: got {type(value).__name__} "
                    f"({str(value)[:80]!r}) — the serve journal degrades "
                    f"unpicklable results to a repr string and corrupt "
                    f"ones to None"
                )
            cell = cell_of(job, value, event.kind == "job_skipped")
            landed[job.id] = report.add_cell(cell)
            if on_cell is not None:
                on_cell(cell)
        if on_event is not None:
            on_event(event)

    def finalize() -> Any:
        missing = [job_id for job_id in targets if job_id not in landed]
        if missing:
            raise PlanCancelled(
                f"plan {plan.name!r} cancelled before {len(missing)} of "
                f"{len(targets)} job(s) completed (first: {missing[0]!r})"
            )
        report.cells = [landed[job_id] for job_id in targets]
        return report

    return report, handle, finalize


# --------------------------------------------------------------------------
# Serve submission
# --------------------------------------------------------------------------
@dataclass
class CampaignHandle:
    """A plan submitted to a serve server.

    Returned by :meth:`~repro.api.Campaign.submit`,
    :meth:`~repro.api.Campaign.submit_volume` and
    :func:`~repro.volume.submit_volume`.  ``fold`` is the front door's
    report builder (``fold(on_cell=, on_event=) -> (report, handle,
    finalize)``), so :meth:`report` assembles the report from the server's
    event journal through the same fold a local run uses.
    """

    client: Any
    job_id: int
    plan: Plan
    fold: Callable[..., tuple]

    def status(self) -> dict[str, object]:
        """The job's queue-side status dict (state, attempts, summary...)."""
        return self.client.status(self.job_id)

    def cancel(self) -> str:
        """Ask the server to cancel; returns the state after the request."""
        return self.client.cancel(self.job_id)

    def report(
        self,
        *,
        timeout: "float | None" = None,
        on_cell: "Callable[[Any], None] | None" = None,
        on_event: "Callable[[Event], None] | None" = None,
    ) -> Any:
        """Wait for completion and assemble the report.

        Streams the server's event journal (so ``on_cell``/``on_event`` see
        live progress exactly as with a local run) and finalizes the
        plan-ordered report.  Raises :class:`~repro.runtime.PlanCancelled`
        if the job ended in any state but ``done``.
        """
        report, handle, finalize = self.fold(on_cell=on_cell, on_event=on_event)
        final = self.client.wait(self.job_id, timeout=timeout, on_event=handle)
        if final["state"] != "done":
            detail = f": {final['error']}" if final.get("error") else ""
            raise PlanCancelled(
                f"serve job {self.job_id} ended {final['state']!r}{detail}"
            )
        return finalize()
