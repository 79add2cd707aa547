"""repro.runtime — the unified Plan/Job execution plane.

Every run path of the API front door compiles to the same three pieces:

* :class:`~repro.runtime.plan.Plan` / :class:`~repro.runtime.plan.Job` —
  frozen, JSON-round-trippable job graphs with explicit dependencies and
  engine-cache keys (``TestSession.plan()`` and ``Campaign.plan()`` are the
  built-in compilers; custom kinds register with
  :func:`~repro.runtime.plan.register_job_kind`);
* :class:`~repro.runtime.executor.Executor` — topological scheduling over
  the serial/threads/processes backends of :mod:`repro.runtime.backends`
  (plus any registered with
  :func:`~repro.runtime.backends.register_backend`), cache-aware job skipping
  (interrupted plans resume from the persistent
  :class:`~repro.engine.cache.ResultCache`), cancellation, per-job retry and
  one centralised processes→threads spill;
* :class:`~repro.runtime.events.Event` — streaming
  ``job_started``/``job_finished``/``job_skipped``/``plan_progress``
  callbacks for live progress over any plan.

Quickstart::

    from repro.api import Campaign
    from repro.runtime import Executor

    campaign = Campaign(designs=["tiny", "wide-edt"], scenarios=["a", "c"])
    plan = campaign.plan()                    # declarative, JSON-safe
    result = Executor(backend="processes").execute(plan)
"""

from repro.runtime.backends import (
    EXECUTOR_BACKENDS,
    Backend,
    ProcessBackend,
    ThreadBackend,
    backend_factory,
    has_backend_factory,
    register_backend,
)
from repro.runtime.events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    Event,
    event_from_json,
)
from repro.runtime.executor import (
    Executor,
    JobResult,
    PlanCancelled,
    PlanResult,
)
from repro.runtime.plan import (
    JOB_KINDS,
    Job,
    JobKindNotFound,
    Plan,
    chain,
    handler_for,
    register_job_kind,
    shippable_resources,
)

__all__ = [
    "Backend",
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "EXECUTOR_BACKENDS",
    "JOB_KINDS",
    "Event",
    "event_from_json",
    "Executor",
    "Job",
    "JobKindNotFound",
    "JobResult",
    "Plan",
    "PlanCancelled",
    "PlanResult",
    "ProcessBackend",
    "ThreadBackend",
    "backend_factory",
    "chain",
    "handler_for",
    "has_backend_factory",
    "register_backend",
    "register_job_kind",
    "shippable_resources",
]
