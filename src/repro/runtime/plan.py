"""Declarative execution plans: frozen, JSON-round-trippable job graphs.

A :class:`Plan` is the common currency of the execution plane.  The API
front doors (``TestSession.run``/``diagnose``, ``Campaign.run``/``diagnose``)
no longer own dispatch loops — they *compile* their work into a plan of
:class:`Job` nodes and hand it to one
:class:`~repro.runtime.executor.Executor`.  A job is pure description:

* ``kind`` names a registered **job handler** (``"scenario"``,
  ``"diagnosis"``, or any custom kind registered with
  :func:`register_job_kind`);
* ``params`` is a JSON-safe mapping the handler interprets, referencing
  heavyweight runtime objects (prepared designs, scenario specs, option
  bundles) by name through the plan's **resources** binding;
* ``deps`` are job ids whose results the handler receives;
* ``cache_key`` is the job's engine-cache identity
  (:mod:`repro.engine.cache`) — the executor skips any job whose key is
  already present in the attached :class:`~repro.engine.cache.ResultCache`,
  which is what makes interrupted plans resume without redoing work.

``Plan.resources`` carries the runtime bindings (not serialized — a plan
restored via :meth:`Plan.from_json` must be re-bound by its compiler or
executed with an explicit ``resources=`` argument).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Mapping

from repro.engine.cache import plan_fingerprint
from repro.records import NOT_JSON, JsonRecord

# --------------------------------------------------------------------------
# Job-kind registry
# --------------------------------------------------------------------------
#: Registered job handlers: ``kind -> callable(resources, params, deps)``.
JOB_KINDS: dict[str, Callable[[dict, Mapping[str, Any], dict], Any]] = {}


class JobKindNotFound(KeyError):
    """Raised when a plan references an unregistered job kind."""


def register_job_kind(
    kind: str, handler: Callable | None = None
) -> Callable:
    """Register a job handler under ``kind`` (usable as a decorator).

    A handler is a module-level callable ``handler(resources, params, deps)``
    — module-level so process-pool workers can re-import its module and find
    the registration.  ``resources`` is the plan's (mutable, per-execution)
    binding dict, ``params`` the job's JSON-safe parameters, and ``deps``
    maps each dependency's job id to its result value.
    """

    def _register(fn: Callable) -> Callable:
        JOB_KINDS[kind] = fn
        return fn

    return _register(handler) if handler is not None else _register


def handler_for(kind: str) -> Callable:
    try:
        return JOB_KINDS[kind]
    except KeyError:
        raise JobKindNotFound(
            f"no job handler registered for kind {kind!r} "
            f"(registered: {sorted(JOB_KINDS) or '<none>'})"
        ) from None


def handler_module(kind: str) -> str:
    """The module that registered ``kind`` (imported by pool workers)."""
    return handler_for(kind).__module__


# --------------------------------------------------------------------------
# Jobs
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Job(JsonRecord):
    """One frozen node of a plan.

    Attributes:
        id: Plan-unique identifier.
        kind: Registered handler name (see :func:`register_job_kind`).
        params: JSON-safe handler parameters.
        deps: Ids of jobs whose results this job consumes.
        cache_key: Engine-cache identity (``None`` == never cached).
        label: Human-readable tag (also the cache entry's label).
        retries: Extra attempts granted on failure (0 == fail fast; the
            executor's own ``retries`` default applies when 0).
        if_needed: Provider-only job — skipped (reason ``"unneeded"``) when
            every dependent is already satisfied without running, e.g. a
            pattern-generation job whose diagnosis consumers were all served
            from the cache.
    """

    id: str
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    deps: tuple[str, ...] = ()
    cache_key: str | None = None
    label: str = ""
    retries: int = 0
    if_needed: bool = False

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("a job needs a non-empty id")
        if not self.kind:
            raise ValueError(f"job {self.id!r} needs a kind")
        if self.retries < 0:
            raise ValueError(f"job {self.id!r}: retries must be non-negative")
        if not isinstance(self.deps, tuple):
            object.__setattr__(self, "deps", tuple(self.deps))


# --------------------------------------------------------------------------
# Plans
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Plan(JsonRecord):
    """A frozen DAG of jobs plus (optional) runtime resource bindings.

    Construction validates the graph: ids must be unique, dependencies must
    exist, and the graph must be acyclic.  ``resources`` never participates
    in equality or serialization — it is the live binding the compiler
    attached, so ``Executor(...).execute(session.plan())`` works without
    re-plumbing heavyweight objects through JSON.
    """

    nested = {"jobs": Job}

    name: str
    jobs: tuple[Job, ...] = ()
    metadata: Mapping[str, Any] = field(default_factory=dict)
    resources: "dict[str, Any] | None" = field(
        default=None, compare=False, repr=False, metadata=NOT_JSON
    )

    def __post_init__(self) -> None:
        if not isinstance(self.jobs, tuple):
            object.__setattr__(self, "jobs", tuple(self.jobs))
        self.validate()

    def validate(self) -> None:
        """Check the graph invariants this plan was constructed under.

        Runs at construction time and is also callable directly (e.g. after
        deserializing job dicts by hand).  The same analysis, reported as
        findings instead of exceptions, backs the ``plan-*`` lint rules in
        :mod:`repro.analyze` via :func:`plan_graph_problems`.

        Raises:
            ValueError: On duplicate job ids, dependencies on unknown jobs,
                or dependency cycles — with the offending ids in the message.
        """
        ids = [job.id for job in self.jobs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"plan {self.name!r} has duplicate job ids: {dupes}")
        known = set(ids)
        for job in self.jobs:
            for dep in job.deps:
                if dep not in known:
                    raise ValueError(
                        f"plan {self.name!r}: job {job.id!r} depends on "
                        f"unknown job {dep!r}"
                    )
        self.topological_order()  # raises on cycles

    # ------------------------------------------------------------- structure
    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    def job(self, job_id: str) -> Job:
        for job in self.jobs:
            if job.id == job_id:
                return job
        raise KeyError(f"plan {self.name!r} has no job {job_id!r}")

    def topological_order(self) -> list[Job]:
        """Jobs in dependency order (stable: plan order breaks ties).

        Computed once per plan (memoised — validation and every
        ``Executor.execute`` call reuse it) with an index cursor over the
        ready queue, so large diagnosis grids stay linear in job count.
        """
        cached = self.__dict__.get("_topo_order")
        if cached is not None:
            return list(cached)
        by_id = {job.id: job for job in self.jobs}
        indegree = {job.id: len(job.deps) for job in self.jobs}
        dependents: dict[str, list[str]] = {job.id: [] for job in self.jobs}
        for job in self.jobs:
            for dep in job.deps:
                dependents[dep].append(job.id)
        ready = [job.id for job in self.jobs if indegree[job.id] == 0]
        cursor = 0
        ordered: list[Job] = []
        while cursor < len(ready):
            current = ready[cursor]
            cursor += 1
            ordered.append(by_id[current])
            for dependent in dependents[current]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(ordered) != len(self.jobs):
            stuck = sorted(job_id for job_id, n in indegree.items() if n > 0)
            raise ValueError(f"plan {self.name!r} has a dependency cycle: {stuck}")
        object.__setattr__(self, "_topo_order", tuple(ordered))
        return ordered

    def dependents(self) -> dict[str, tuple[str, ...]]:
        """Reverse edges: job id -> ids of the jobs that consume it."""
        reverse: dict[str, list[str]] = {job.id: [] for job in self.jobs}
        for job in self.jobs:
            for dep in job.deps:
                reverse[dep].append(job.id)
        return {job_id: tuple(ids) for job_id, ids in reverse.items()}

    # -------------------------------------------------------------- identity
    @property
    def fingerprint(self) -> str:
        """Content hash of the plan's declarative structure (not resources)."""
        return plan_fingerprint(self.to_dict())

    def with_resources(self, resources: "dict[str, Any] | None") -> "Plan":
        """The same plan bound to different runtime resources."""
        return replace(self, resources=resources)


def shippable_resources(resources: "Mapping[str, Any] | None") -> dict[str, Any]:
    """The subset of a resources dict that crosses process boundaries:
    private (``_``-prefixed) keys — per-process memos — stay behind."""
    if not resources:
        return {}
    return {key: value for key, value in resources.items() if not key.startswith("_")}


def plan_graph_problems(
    name: str, jobs: Iterable[Any]
) -> list[dict[str, str]]:
    """Non-raising form of :meth:`Plan.validate` for lint pipelines.

    Accepts :class:`Job` instances *or* job-shaped mappings (``Job.to_dict``
    form), so graphs that would not survive ``Plan`` construction — e.g. a
    hand-edited plan JSON — can still be analyzed.  Returns one problem per
    defect: ``{"kind": "duplicate-id" | "unknown-dep" | "cycle",
    "subject": <job id(s)>, "message": ...}``.  Cycle detection runs over
    the known-id subgraph so a dangling dependency does not mask a cycle.
    """
    views: list[tuple[str, tuple[str, ...]]] = []
    for job in jobs:
        if isinstance(job, Mapping):
            views.append(
                (str(job.get("id", "")), tuple(str(d) for d in job.get("deps") or ()))
            )
        else:
            views.append((job.id, tuple(job.deps)))
    problems: list[dict[str, str]] = []
    ids = [job_id for job_id, _ in views]
    known = set(ids)
    for dup in sorted({i for i in ids if ids.count(i) > 1}):
        problems.append(
            {
                "kind": "duplicate-id",
                "subject": dup,
                "message": f"plan {name!r} has duplicate job ids: [{dup!r}]",
            }
        )
    for job_id, deps in views:
        for dep in deps:
            if dep not in known:
                problems.append(
                    {
                        "kind": "unknown-dep",
                        "subject": job_id,
                        "message": (
                            f"plan {name!r}: job {job_id!r} depends on "
                            f"unknown job {dep!r}"
                        ),
                    }
                )
    indegree = {job_id: 0 for job_id, _ in views}
    dependents: dict[str, list[str]] = {job_id: [] for job_id, _ in views}
    for job_id, deps in views:
        for dep in deps:
            if dep in known:
                indegree[job_id] += 1
                dependents[dep].append(job_id)
    ready = [job_id for job_id, count in indegree.items() if count == 0]
    cursor = 0
    done = 0
    while cursor < len(ready):
        current = ready[cursor]
        cursor += 1
        done += 1
        for dependent in dependents[current]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
    if done != len(indegree):
        stuck = sorted(job_id for job_id, count in indegree.items() if count > 0)
        problems.append(
            {
                "kind": "cycle",
                "subject": ",".join(stuck),
                "message": f"plan {name!r} has a dependency cycle: {stuck}",
            }
        )
    return problems


def chain(jobs: Iterable[Job]) -> tuple[Job, ...]:
    """Link jobs into a linear pipeline (each depends on its predecessor)."""
    linked: list[Job] = []
    previous: Job | None = None
    for job in jobs:
        if previous is not None and previous.id not in job.deps:
            job = job.with_overrides(deps=job.deps + (previous.id,))
        linked.append(job)
        previous = job
    return tuple(linked)
