"""The unified execution plane: one ``Executor`` for every run path.

Before this module the repo had four independently written dispatch loops —
``TestSession.run`` (scenario fan-out with its own process-pool setup and a
silent threads fallback), ``TestSession.diagnose`` (memoised schedulers),
``Campaign.run`` and ``Campaign.diagnose`` (worker-global caches, per-cell
resume) — each reimplementing cache probing, fallback and result assembly.
They are now *plan compilers*; this executor owns the one copy of:

* **topological scheduling** — jobs run in dependency waves over the
  :class:`~repro.runtime.backends.Backend` protocol (``serial`` / ``threads``
  / ``processes``); single-job waves always run in-process (spinning a pool
  for one job costs more than it buys, matching the historical front doors);
* **cache-aware skipping** — jobs whose ``cache_key`` is present in the
  attached :class:`~repro.engine.cache.ResultCache` are skipped with their
  cached value, so an interrupted plan resumes without redoing completed
  work (and ``if_needed`` provider jobs whose consumers were all satisfied
  are pruned entirely — no design build, no ATPG);
* **in-plan coalescing** — pending jobs that share a ``cache_key`` run
  once: the first in plan order leads, and when it lands every other job
  of the key (its followers) resolves at once with the leader's value
  (``job_finished`` with reason ``"coalesced"``).  The cache promises one
  result per key, so this is exact under its contract; followers store
  nothing and count as neither executed nor skipped;
* **streaming events** — ``job_started`` / ``job_finished`` / ``job_skipped``
  / ``plan_progress`` callbacks fire on the calling thread as each job
  resolves (see :mod:`repro.runtime.events`);
* **cancellation** — :meth:`Executor.cancel` (callable from an event
  callback) stops scheduling new jobs; running jobs finish and are recorded,
  so a cancelled plan resumes cleanly from the cache;
* **retry and spill** — per-job retries run next to the work (inside the
  worker), and the processes→threads fallback on result-transport failures
  lives here once instead of per entry point, recorded in
  :attr:`PlanResult.fallbacks` so degraded runs are detectable in CI.
"""

from __future__ import annotations

import importlib
import os
import pickle
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.engine.cache import ResultCache, coerce_cache
from repro.obs.telemetry import (
    Telemetry,
    active_metrics,
    active_tracer,
    coerce_telemetry,
    get_telemetry,
)
from repro.runtime.backends import (
    EXECUTOR_BACKENDS,
    ProcessBackend,
    ThreadBackend,
    backend_factory,
    has_backend_factory,
    is_result_transport_error,
    validate_pool_size,
)
from repro.runtime.events import Event
from repro.runtime.plan import Job, Plan, handler_for, handler_module, shippable_resources

class PlanCancelled(RuntimeError):
    """Raised by report assemblers when a cancelled plan left jobs unrun."""


@dataclass
class JobResult:
    """One job's resolution inside a :class:`PlanResult`."""

    job: str
    value: Any = None
    skipped: bool = False
    #: ``"cache"`` / ``"seed"`` / ``"unneeded"`` for skipped jobs,
    #: ``"coalesced"`` for a job that took the value of the job it shares
    #: its ``cache_key`` with, else None.
    reason: str | None = None
    cache_key: str | None = None
    wall_seconds: float = 0.0
    attempts: int = 1


@dataclass
class PlanResult:
    """Everything one :meth:`Executor.execute` call produced."""

    plan: str
    backend: str
    results: dict[str, JobResult] = field(default_factory=dict)
    #: Every job id the executed plan declared (resolved or not).
    jobs: tuple[str, ...] = ()
    cancelled: bool = False
    #: One record per degraded wave: ``{"requested", "used", "reason"}``.
    fallbacks: list[dict[str, str]] = field(default_factory=list)
    wall_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self.results

    def __getitem__(self, job_id: str) -> JobResult:
        try:
            return self.results[job_id]
        except KeyError:
            if self.jobs and job_id not in self.jobs:
                # A typo'd lookup on a healthy plan is a KeyError, not a
                # cancellation signal.
                raise KeyError(
                    f"plan {self.plan!r} has no job {job_id!r} "
                    f"(jobs: {sorted(self.jobs)})"
                ) from None
            state = "cancelled before it ran" if self.cancelled else "never resolved"
            raise PlanCancelled(
                f"plan {self.plan!r}: job {job_id!r} {state} "
                f"(resolved: {sorted(self.results) or '<none>'})"
            ) from None

    def value_of(self, job_id: str) -> Any:
        return self[job_id].value

    def executed(self) -> list[str]:
        """Ids of the jobs that actually ran (completion order)."""
        return [
            r.job for r in self.results.values()
            if not r.skipped and r.reason != "coalesced"
        ]

    def coalesced(self) -> list[str]:
        """Ids of the jobs that took the value of an earlier job with the
        same ``cache_key`` (completion order).  A finished plan's jobs are
        the executed, skipped and coalesced ones, each counted once."""
        return [r.job for r in self.results.values() if r.reason == "coalesced"]

    def skipped(self, reason: str | None = None) -> list[str]:
        """Ids of the skipped jobs (optionally filtered by skip reason)."""
        return [
            r.job
            for r in self.results.values()
            if r.skipped and (reason is None or r.reason == reason)
        ]


# --------------------------------------------------------------------------
# Shared job running (inline, thread workers and process workers)
# --------------------------------------------------------------------------
def _call_with_retries(
    handler: Callable,
    resources: dict,
    params: Mapping[str, Any],
    deps: dict[str, Any],
    retries: int,
) -> tuple[Any, int, float]:
    """Run one handler, retrying next to the work.

    Returns ``(value, attempts, wall_seconds)`` — timed here, at the work
    itself, so pooled dispatch never inflates a job's wall time with queue
    wait or its wave-mates' runtime.
    """
    attempt = 1
    started = time.perf_counter()
    while True:
        try:
            return handler(resources, params, deps), attempt, (
                time.perf_counter() - started
            )
        except Exception:
            if attempt > retries:
                raise
            attempt += 1


#: Worker-global plan resources, shipped once per process by the initializer.
_WORKER_RESOURCES: dict | None = None

#: Worker-global dependency values, keyed by job id — a provider's result
#: (e.g. a pattern set feeding many diagnosis jobs) is deserialized at most
#: once per worker, no matter how many consumers land on it.  Safe because a
#: worker pool never outlives the ``execute()`` call that created it, and
#: job ids are unique within a plan.
_WORKER_DEPS: dict[str, Any] = {}


def _plan_worker_init(resources_payload: bytes) -> None:
    global _WORKER_RESOURCES
    _WORKER_RESOURCES = pickle.loads(resources_payload)
    _WORKER_DEPS.clear()


def _plan_worker_run(payload: bytes) -> tuple[Any, int, float]:
    """Process-pool entry point: resolve the handler and run one job.

    The handler's defining module is imported first so its
    ``register_job_kind`` call has run in this interpreter; the job payload
    carries only JSON-ish params plus per-dependency pickle blobs (made once
    per wave in the parent, unpickled once per worker).
    """
    kind, module, params, dep_blobs, retries = pickle.loads(payload)
    importlib.import_module(module)
    resources = _WORKER_RESOURCES if _WORKER_RESOURCES is not None else {}
    deps: dict[str, Any] = {}
    for dep_id, blob in dep_blobs.items():
        if dep_id not in _WORKER_DEPS:
            _WORKER_DEPS[dep_id] = pickle.loads(blob)
        deps[dep_id] = _WORKER_DEPS[dep_id]
    return _call_with_retries(handler_for(kind), resources, params, deps, retries)


# --------------------------------------------------------------------------
# The executor
# --------------------------------------------------------------------------
class Executor:
    """Runs :class:`~repro.runtime.plan.Plan` graphs on a chosen backend.

    One executor is reusable across plans (``cancel()`` state resets per
    ``execute``).  Worker pools are created lazily per execution and closed
    when it finishes.

    Args:
        backend: One of :data:`EXECUTOR_BACKENDS`, or a backend registered
            with :func:`~repro.runtime.backends.register_backend` (such
            backends dispatch exactly like ``processes`` — picklable wave
            payloads shipped through the factory-built backend, with the
            same threads spill on transport failure).
        max_workers: Pool size for the pooled backends (``None`` == one
            thread per wave job for ``threads``; for ``processes``, one
            worker per job of the plan's widest wave, bounded by the core
            count).
        cache: A :class:`~repro.engine.cache.ResultCache` (or anything
            :func:`~repro.engine.cache.coerce_cache` accepts) used to skip
            jobs whose ``cache_key`` already resolves and to store fresh
            results.
        retries: Default extra attempts for jobs that do not pin their own.
        on_event: Callback receiving every :class:`~repro.runtime.Event`.
        backend_options: Extra keyword options forwarded to a registered
            backend's factory (ignored by the built-ins) — e.g. the remote
            backend's server address.
        telemetry: A :class:`~repro.obs.Telemetry` (or ``True`` for a fresh
            enabled one).  ``None`` defers to the ambient telemetry
            activated by the calling front door (session/campaign), so an
            executor owned by a ``with_telemetry()`` session traces without
            being configured itself.
    """

    def __init__(
        self,
        backend: str = "serial",
        *,
        max_workers: int | None = None,
        cache: "ResultCache | str | bool | None" = None,
        retries: int = 0,
        on_event: "Callable[[Event], None] | None" = None,
        backend_options: "Mapping[str, Any] | None" = None,
        telemetry: "Telemetry | bool | None" = None,
    ) -> None:
        if backend not in EXECUTOR_BACKENDS and not has_backend_factory(backend):
            raise ValueError(
                f"unknown executor backend {backend!r} "
                f"(expected one of {EXECUTOR_BACKENDS} or a registered backend)"
            )
        self.backend = backend
        self.backend_options = dict(backend_options) if backend_options else {}
        self.max_workers = validate_pool_size("workers", max_workers)
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.cache = coerce_cache(cache)
        self.retries = retries
        self.on_event = on_event
        self.telemetry = coerce_telemetry(telemetry)
        self._cancel = threading.Event()
        self._sinks: dict[int, Callable[[Event], None]] = {}
        self._sink_lock = threading.Lock()
        self._sink_seq = 0

    # -------------------------------------------------------------- control
    def effective_cache(
        self, override: "ResultCache | None" = None
    ) -> "ResultCache | None":
        """The cache a plan execution will actually use.

        One home for the precedence rule — an explicit override (the
        session's/campaign's own cache) wins, else the executor's.  The API
        front doors use this for their provenance metadata so it can never
        drift from what ``execute`` does.
        """
        return override if override is not None else self.cache

    def cancel(self) -> None:
        """Stop scheduling new jobs (running jobs finish and are recorded)."""
        self._cancel.set()

    @property
    def cancelled(self) -> bool:
        return self._cancel.is_set()

    # ----------------------------------------------------------- event sinks
    def add_event_sink(self, sink: "Callable[[Event], None]") -> int:
        """Attach a detachable event sink; returns a token for removal.

        Sinks differ from the constructor's ``on_event`` listener in the two
        ways a *service* needs: they can be attached and detached while a
        plan is running (the serve plane wraps each queued execution in its
        journal writer), and a sink that raises is skipped for that event
        instead of failing the plan — an observer must never take down the
        execution it observes.  Sinks receive every event the listeners do,
        on the same (calling) thread, after the listeners.
        """
        with self._sink_lock:
            self._sink_seq += 1
            self._sinks[self._sink_seq] = sink
            return self._sink_seq

    def remove_event_sink(self, token: int) -> bool:
        """Detach a sink by its token; returns whether it was attached."""
        with self._sink_lock:
            return self._sinks.pop(token, None) is not None

    # ------------------------------------------------------------ execution
    def execute(
        self,
        plan: Plan,
        resources: "dict[str, Any] | None" = None,
        *,
        cache: "ResultCache | None" = None,
        seeds: "Mapping[str, Any] | None" = None,
        on_event: "Callable[[Event], None] | None" = None,
    ) -> PlanResult:
        """Run every job of ``plan`` and return the streamed results.

        Args:
            plan: The compiled job graph.
            resources: Runtime bindings the job handlers read (defaults to
                ``plan.resources``).  The dict is shared — handlers memoise
                built designs into it, so reusing one resources dict across
                executions reuses the builds.
            cache: Result cache override (``None`` == the executor's own).
            seeds: Pre-resolved job values (``{job_id: value}``) — skipped
                with reason ``"seed"``; the in-memory analogue of a cache
                hit (e.g. a session artifact from an earlier run).
            on_event: Extra event callback for this execution only.
        """
        # The executor's own telemetry wins; otherwise whatever the calling
        # front door activated (NULL when nobody did).  Activating here makes
        # it ambient for handlers running inline or on worker threads.
        telemetry = self.telemetry if self.telemetry else get_telemetry()
        with telemetry.activate(), telemetry.tracer.span(
            f"plan:{plan.name}", backend=self.backend, jobs=len(plan.jobs)
        ):
            return self._execute(
                plan, resources, cache=cache, seeds=seeds,
                on_event=on_event, tracer=telemetry.tracer,
            )

    def _execute(
        self,
        plan: Plan,
        resources: "dict[str, Any] | None" = None,
        *,
        cache: "ResultCache | None" = None,
        seeds: "Mapping[str, Any] | None" = None,
        on_event: "Callable[[Event], None] | None" = None,
        tracer: Any = None,
    ) -> PlanResult:
        started = time.perf_counter()
        tracer = tracer if tracer is not None else active_tracer()
        self._cancel.clear()
        resources = resources if resources is not None else (plan.resources or {})
        cache = self.effective_cache(cache)
        seeds = seeds or {}

        listeners = [cb for cb in (self.on_event, on_event) if cb is not None]
        outcome = PlanResult(
            plan=plan.name,
            backend=self.backend,
            jobs=tuple(job.id for job in plan.jobs),
        )
        total = len(plan.jobs)

        def emit(kind: str, job: "Job | None" = None, **extra: Any) -> None:
            event = Event(
                kind=kind,
                plan=plan.name,
                job=job.id if job is not None else None,
                completed=len(outcome.results),
                total=total,
                **extra,
            )
            for listener in listeners:
                listener(event)
            with self._sink_lock:
                sinks = list(self._sinks.values())
            for sink in sinks:
                try:
                    sink(event)
                except Exception:  # noqa: BLE001 - observers never fail the run
                    metrics = active_metrics()
                    if metrics is not None:
                        metrics.inc("executor.sink_errors")

        # Leader job id -> the pending jobs that share its cache key.
        followers: dict[str, list[Job]] = {}

        def record(job: Job, result: JobResult, kind: str, **extra: Any) -> None:
            outcome.results[job.id] = result
            if result.skipped:
                # Skipped jobs still show in the trace (duration == the cache
                # probe that served them) so "one span per job" holds.
                tracer.record(f"job:{job.id}", duration=result.wall_seconds,
                              kind=job.kind, skipped=True, reason=result.reason)
            emit(kind, job, value=result.value, reason=result.reason, **extra)
            emit("plan_progress")

        # Not recursive on purpose: a closure that calls itself is a
        # reference cycle, which would keep every landed value of the plan
        # alive until the cyclic collector runs.
        def resolve(job: Job, result: JobResult, kind: str, **extra: Any) -> None:
            record(job, result, kind, **extra)
            if kind != "job_finished":
                return
            for follower in followers.pop(job.id, ()):
                emit("job_started", follower)
                tracer.record(f"job:{follower.id}", duration=0.0,
                              kind=follower.kind, reason="coalesced")
                record(
                    follower,
                    JobResult(job=follower.id, value=result.value,
                              reason="coalesced", cache_key=follower.cache_key),
                    "job_finished",
                )

        emit("plan_started")
        ordered = plan.topological_order()

        def probe(job: Job) -> None:
            """Resolve one job from seeds or the cache, if possible."""
            if job.id in seeds:
                resolve(
                    job,
                    JobResult(job=job.id, value=seeds[job.id], skipped=True,
                              reason="seed", cache_key=job.cache_key),
                    "job_skipped",
                )
            elif cache is not None and job.cache_key is not None:
                # Timed so cache-served plans still report where their wall
                # time went: the probe duration is the skip's wall_seconds.
                probe_started = time.perf_counter()
                value = cache.get(job.cache_key)
                probe_wall = time.perf_counter() - probe_started
                if value is not None:
                    resolve(
                        job,
                        JobResult(job=job.id, value=value, skipped=True,
                                  reason="cache", cache_key=job.cache_key,
                                  wall_seconds=probe_wall),
                        "job_skipped",
                        wall_seconds=probe_wall,
                    )

        # Probe pass (consumers first, plan order): seeds and cache hits
        # resolve before any work starts.  ``if_needed`` providers are NOT
        # probed yet — a provider whose consumers are all satisfied must be
        # pruned without ever touching (and deserializing) its cache entry.
        for job in ordered:
            if not job.if_needed:
                probe(job)

        # Coalescing: one job per distinct cache key runs; the rest follow
        # the first of their key in plan order and leave ``pending``.
        # Consumers group before the prune pass, so a provider that only
        # followers need is pruned; providers group after their probe.
        following: dict[str, str] = {}

        def coalesce(jobs: Iterable[Job]) -> None:
            leaders: dict[str, Job] = {}
            for job in jobs:
                if job.id in outcome.results or job.cache_key is None:
                    continue
                leader = leaders.setdefault(job.cache_key, job)
                if leader is not job:
                    followers.setdefault(leader.id, []).append(job)
                    following[job.id] = leader.id

        coalesce(job for job in ordered if not job.if_needed)

        # Prune pass: providers whose dependents are all already satisfied
        # (or follow a leader) never run (reverse topological order
        # cascades through chains).
        dependents = plan.dependents()
        for job in reversed(ordered):
            if not job.if_needed or job.id in outcome.results:
                continue
            if all(
                dep_id in outcome.results or dep_id in following
                for dep_id in dependents[job.id]
            ):
                resolve(
                    job,
                    JobResult(job=job.id, value=None, skipped=True,
                              reason="unneeded", cache_key=job.cache_key),
                    "job_skipped",
                )

        # Second probe pass: providers that survived pruning (some consumer
        # must run) may still be served from seeds or the cache.
        for job in ordered:
            if job.if_needed and job.id not in outcome.results:
                probe(job)
        coalesce(job for job in ordered if job.if_needed)

        # Wave scheduling: run every ready job, repeat until done/cancelled.
        pending = [
            job for job in ordered
            if job.id not in outcome.results and job.id not in following
        ]
        pool_hint = self._widest_wave(ordered, outcome, following)
        # Designs the remaining jobs actually reference (the "designs"
        # resource convention) — process workers only receive these, so a
        # mostly cache-resolved plan never ships untouched prebuilt designs.
        design_hint = {
            job.params["design"] for job in pending if "design" in job.params
        }
        backends: dict[str, Any] = {}
        wave_index = 0
        try:
            while pending and not self._cancel.is_set():
                wave = [
                    job for job in pending
                    if all(dep in outcome.results for dep in job.deps)
                ]
                assert wave, "plan validation guarantees progress on a DAG"
                with tracer.span(f"wave:{wave_index}", jobs=len(wave)):
                    self._run_wave(wave, resources, cache, outcome, emit,
                                   resolve, backends, pool_hint, design_hint)
                wave_index += 1
                pending = [job for job in pending if job.id not in outcome.results]
        finally:
            for backend in backends.values():
                backend.close()
            outcome.cancelled = self._cancel.is_set() and bool(pending)
            outcome.wall_seconds = time.perf_counter() - started
            emit("plan_finished", wall_seconds=outcome.wall_seconds,
                 skipped=len(outcome.skipped()))
        return outcome

    # ---------------------------------------------------------------- waves
    def _dep_values(self, job: Job, outcome: PlanResult) -> dict[str, Any]:
        return {dep: outcome.results[dep].value for dep in job.deps}

    @staticmethod
    def _widest_wave(
        ordered: Sequence[Job], outcome: PlanResult, following: Mapping[str, str]
    ) -> int:
        """The largest dependency level still to run — the pool-sizing hint.

        Computed once per execution so the process pool (created at the
        first pooled wave and reused) is sized for the whole plan, not just
        its first wave (e.g. a few pattern providers followed by many
        diagnosis jobs).  Only leaders count: a follower (``following``
        maps it to its leader) lands with its leader, at the leader's level.
        """
        levels: dict[str, int] = {}
        widths: dict[int, int] = {}
        for job in ordered:
            if job.id in outcome.results:
                levels[job.id] = 0
                continue
            if job.id in following:
                levels[job.id] = levels[following[job.id]]
                continue
            level = 1 + max((levels.get(dep, 0) for dep in job.deps), default=0)
            levels[job.id] = level
            widths[level] = widths.get(level, 0) + 1
        return max(widths.values(), default=0)

    @staticmethod
    def _failed_job(
        wave: Sequence[Job], outcome: PlanResult, exc: BaseException
    ) -> "Job | None":
        """The wave job a pooled exception belongs to.

        The backend tags the failing task's index on the exception
        (``task_index``); the first unresolved wave job is only the fallback
        when the tag is missing.
        """
        index = getattr(exc, "task_index", None)
        if isinstance(index, int) and 0 <= index < len(wave):
            return wave[index]
        for job in wave:
            if job.id not in outcome.results:
                return job
        return None

    def _job_retries(self, job: Job) -> int:
        return job.retries or self.retries

    def _store(self, job: Job, value: Any, cache: "ResultCache | None") -> None:
        if cache is not None and job.cache_key is not None:
            cache.put(job.cache_key, value, label=job.label or job.id)

    def _land(
        self,
        job: Job,
        result: tuple[Any, int, float],
        cache: "ResultCache | None",
        resolve: Callable,
    ) -> None:
        """Record one pooled job's landed result (shared by both wave runners)."""
        value, attempts, wall = result
        if attempts > 1:
            metrics = active_metrics()
            if metrics is not None:
                metrics.inc("executor.retries", attempts - 1)
        self._store(job, value, cache)
        resolve(
            job,
            JobResult(job=job.id, value=value, cache_key=job.cache_key,
                      wall_seconds=wall, attempts=attempts),
            "job_finished",
            wall_seconds=wall,
        )

    def _land_remote(
        self,
        job: Job,
        result: tuple[Any, int, float],
        cache: "ResultCache | None",
        resolve: Callable,
    ) -> None:
        """Land a process-worker job, folding its measured wall into the trace.

        Workers run with no ambient telemetry, so the job span is recorded
        here on the landing thread — anchored at landing minus the wall time
        measured next to the work, parented to the current wave span.
        """
        active_tracer().record(
            f"job:{job.id}", duration=result[2], kind=job.kind,
            attempts=result[1], remote=True,
        )
        self._land(job, result, cache, resolve)

    def _run_inline(
        self,
        jobs: Sequence[Job],
        resources: dict,
        cache: "ResultCache | None",
        outcome: PlanResult,
        emit: Callable,
        resolve: Callable,
    ) -> None:
        """Serial in-process execution (also the single-job fast path)."""
        tracer = active_tracer()
        for job in jobs:
            if self._cancel.is_set():
                return
            emit("job_started", job)
            try:
                with tracer.span(f"job:{job.id}", kind=job.kind):
                    result = _call_with_retries(
                        handler_for(job.kind), resources, job.params,
                        self._dep_values(job, outcome), self._job_retries(job),
                    )
            except Exception as exc:
                emit("job_failed", job, reason=f"{type(exc).__name__}: {exc}")
                raise
            self._land(job, result, cache, resolve)

    def _run_wave(
        self,
        wave: list[Job],
        resources: dict,
        cache: "ResultCache | None",
        outcome: PlanResult,
        emit: Callable,
        resolve: Callable,
        backends: dict,
        pool_hint: int = 0,
        design_hint: "set[str] | None" = None,
    ) -> None:
        """Dispatch one dependency wave on the configured backend."""
        if self.backend == "serial" or len(wave) == 1:
            self._run_inline(wave, resources, cache, outcome, emit, resolve)
            return
        if self.backend == "processes" or has_backend_factory(self.backend):
            announced = self._run_wave_shipped(
                wave, resources, cache, outcome, emit, resolve, backends,
                outcome.fallbacks, pool_hint, design_hint,
            )
            if announced is True:
                return
            # Degraded (recorded + warned): fall through to the thread pool.
            # ``announced`` says whether job_started events already fired for
            # this wave — never announce a job twice.
            wave = [job for job in wave if job.id not in outcome.results]
            if not wave:
                return
            self._run_wave_threads(wave, resources, cache, outcome, emit,
                                   resolve, backends, announce=announced is None)
            return
        self._run_wave_threads(wave, resources, cache, outcome, emit, resolve, backends)

    def _thread_backend(self, backends: dict, wave_size: int) -> ThreadBackend:
        backend = backends.get("threads")
        size = self.max_workers or wave_size
        if backend is None:
            backend = backends["threads"] = ThreadBackend(size)
        elif self.max_workers is None and size > backend.max_workers:
            # Auto sizing tracks the widest wave (e.g. a few pattern
            # providers followed by many diagnosis jobs) — grow the pool
            # rather than bottleneck the bigger wave on the first wave's size.
            backend.close()
            backend = backends["threads"] = ThreadBackend(size)
        return backend

    def _run_wave_threads(
        self,
        wave: list[Job],
        resources: dict,
        cache: "ResultCache | None",
        outcome: PlanResult,
        emit: Callable,
        resolve: Callable,
        backends: dict,
        announce: bool = True,
    ) -> None:
        deps = [self._dep_values(job, outcome) for job in wave]
        if announce:
            for job in wave:
                emit("job_started", job)
        # Worker threads have their own (empty) span stacks: pin the wave
        # span open on *this* thread as every job span's parent, so spans
        # opened inside the handler (stages) still nest correctly.
        tracer = active_tracer()
        wave_span = tracer.current_id()

        def task(index: int) -> tuple[Any, int, float]:
            job = wave[index]
            with tracer.span(f"job:{job.id}", parent=wave_span, kind=job.kind):
                return _call_with_retries(
                    handler_for(job.kind), resources, job.params,
                    deps[index], self._job_retries(job),
                )

        try:
            self._thread_backend(backends, len(wave)).run_tasks(
                task, range(len(wave)),
                on_result=lambda i, r: self._land(wave[i], r, cache, resolve),
                should_stop=self._cancel.is_set,
            )
        except Exception as exc:
            failed = self._failed_job(wave, outcome, exc)
            if failed is not None:
                emit("job_failed", failed, reason=f"{type(exc).__name__}: {exc}")
            raise

    def _run_wave_shipped(
        self,
        wave: list[Job],
        resources: dict,
        cache: "ResultCache | None",
        outcome: PlanResult,
        emit: Callable,
        resolve: Callable,
        backends: dict,
        fallbacks: list,
        pool_hint: int = 0,
        design_hint: "set[str] | None" = None,
    ) -> "bool | None":
        """Shipped wave (``processes`` or a registered backend); non-True ==
        spill this wave in-process.

        "Shipped" means the wave crosses a process (or machine) boundary:
        payloads and dependency values are pickled once per wave in the
        parent, resources once per pool via the initializer — identical for
        the local process pool and for a registered backend like ``remote``,
        which is what makes their results interchangeable.

        Only payload pickling problems and result-transport failures spill
        (the historical per-entry-point fallback, centralised): genuine job
        exceptions propagate unchanged.  Returns ``True`` when the wave
        completed, ``None`` when it spilled before any ``job_started`` event
        fired (payload pickling), ``False`` when it spilled mid-flight
        (result transport — starts were already announced).
        """
        try:
            # Each distinct dependency value is serialized once per wave and
            # its blob shared by every consumer's payload (a bytes copy, not
            # a re-pickle); workers mirror this with a once-per-worker
            # unpickle memo.
            dep_blobs: dict[str, bytes] = {}
            for job in wave:
                for dep in job.deps:
                    if dep not in dep_blobs:
                        dep_blobs[dep] = pickle.dumps(outcome.results[dep].value)
            payloads = [
                pickle.dumps((
                    job.kind, handler_module(job.kind), dict(job.params),
                    {dep: dep_blobs[dep] for dep in job.deps},
                    self._job_retries(job),
                ))
                for job in wave
            ]
            backend = backends.get(self.backend)
            if backend is None:
                shippable = shippable_resources(resources)
                designs = shippable.get("designs")
                if design_hint and isinstance(designs, dict):
                    # Ship only the designs the remaining jobs reference —
                    # cache-resolved cells must not pay to transfer their
                    # (potentially heavy, prebuilt) designs to every worker.
                    shippable["designs"] = {
                        name: value for name, value in designs.items()
                        if name in design_hint
                    }
                # Auto sizing: one worker per job of the plan's widest wave,
                # bounded by the core count (oversubscribing CPU-bound ATPG
                # buys nothing) — restores the historical one-process-per-
                # scenario session fan-out on big machines.
                size = self.max_workers or max(
                    1, min(pool_hint or len(wave), os.cpu_count() or 1)
                )
                if self.backend == "processes":
                    backend = ProcessBackend(
                        size,
                        initializer=_plan_worker_init,
                        initargs=(pickle.dumps(shippable),),
                    )
                else:
                    backend = backend_factory(self.backend)(
                        max_workers=size,
                        initializer=_plan_worker_init,
                        initargs=(pickle.dumps(shippable),),
                        options=self.backend_options,
                    )
                backends[self.backend] = backend
        except (pickle.PickleError, TypeError, AttributeError) as exc:
            self._spill(fallbacks, f"plan payloads are not picklable ({exc})")
            return None

        for job in wave:
            emit("job_started", job)

        try:
            backend.run_tasks(
                _plan_worker_run, payloads,
                on_result=lambda i, r: self._land_remote(wave[i], r, cache, resolve),
                should_stop=self._cancel.is_set,
            )
        except Exception as exc:
            if not is_result_transport_error(exc):
                failed = self._failed_job(wave, outcome, exc)
                if failed is not None:
                    emit("job_failed", failed,
                         reason=f"{type(exc).__name__}: {exc}")
                raise
            # The pool is no longer trustworthy; jobs already resolved via
            # ``landed`` stay, the remainder spills to the thread pool.
            backends.pop(self.backend, None)
            backend.close()
            self._spill(
                fallbacks,
                f"a job result could not be returned from a worker ({exc})",
            )
            return False
        return True

    def _spill(self, fallbacks: list, reason: str) -> None:
        metrics = active_metrics()
        if metrics is not None:
            metrics.inc("executor.backend_fallbacks")
        fallbacks.append(
            {"requested": self.backend, "used": "threads", "reason": reason}
        )
        warnings.warn(
            f"{reason}; falling back to the threads backend",
            RuntimeWarning,
            stacklevel=3,
        )
