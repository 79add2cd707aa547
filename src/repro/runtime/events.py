"""Streaming execution events emitted while an :class:`~repro.runtime.Executor`
runs a :class:`~repro.runtime.Plan`.

Events are in-memory observations first: ``job_finished`` and ``job_skipped``
carry the job's actual result object in :attr:`Event.value` so report
assemblers (``TestSession.run``, ``Campaign.run``, ``Campaign.diagnose``) can
stream cells to their callers without waiting for the whole plan.  Every
event is delivered on the thread that called
:meth:`~repro.runtime.Executor.execute`, in a deterministic order per
backend — callbacks never need their own locking.

Events also have a **stable wire form** so they can cross process and
machine boundaries (the :mod:`repro.serve` journal and event tails):
:meth:`Event.to_json` emits one JSON object stamped with
:data:`EVENT_SCHEMA_VERSION`, and :func:`event_from_json` restores it.
Decoding is tolerant by construction — unknown fields (added by future
schema versions) are ignored, missing fields take their defaults — so an
old client can tail a newer server's journal and vice versa.  Result values
are JSON-inlined when JSON can carry them and pickled (base64-tagged)
otherwise; a value that cannot be pickled degrades to its ``repr`` instead
of failing the emit, because a journal sink must never take down the run it
is observing.
"""

from __future__ import annotations

import base64
import json
import pickle
from dataclasses import dataclass, fields
from typing import Any, Mapping

#: Bump when the wire shape of :meth:`Event.to_json` changes incompatibly.
#: Decoders keep accepting newer payloads (unknown fields are dropped), so a
#: bump signals "inspect before trusting", not "refuse to parse".
EVENT_SCHEMA_VERSION = 1

#: Tag keys of the non-JSON value encodings (see :func:`_encode_value`).
_PICKLE_TAG = "__event_pickle__"
_REPR_TAG = "__event_repr__"

#: Every event kind an :class:`~repro.runtime.Executor` emits.
#:
#: * ``plan_started`` / ``plan_finished`` — one each per ``execute()`` call
#:   (``plan_finished`` fires even when the plan was cancelled);
#: * ``job_started`` — a job was dispatched (for pooled waves, at submission);
#: * ``job_finished`` — a job ran to completion; ``value`` holds its result.
#:   ``reason`` is ``"coalesced"`` when the job shared its ``cache_key``
#:   with an earlier job of the plan and took that job's value as it landed
#:   (its ``job_started`` fires just before, and ``wall_seconds`` is 0);
#: * ``job_skipped`` — a job did not need to run; ``reason`` says why
#:   (``"cache"`` — served from the result cache, ``"seed"`` — supplied by
#:   the caller, ``"unneeded"`` — an ``if_needed`` provider whose dependents
#:   were all satisfied);
#: * ``job_failed`` — a job raised after exhausting its retries (the
#:   exception propagates to the ``execute()`` caller right after);
#: * ``plan_progress`` — emitted after every job resolution with the running
#:   ``completed``/``total`` counters.
EVENT_KINDS = (
    "plan_started",
    "job_started",
    "job_finished",
    "job_skipped",
    "job_failed",
    "plan_progress",
    "plan_finished",
)


@dataclass(frozen=True)
class Event:
    """One observation of a running plan.

    Attributes:
        kind: One of :data:`EVENT_KINDS`.
        plan: The plan's name.
        job: The job id (``None`` for plan-level events).
        value: The job's result object (``job_finished`` and cache/seed
            ``job_skipped`` events; ``None`` otherwise).
        reason: Skip reason (``"cache"`` / ``"seed"`` / ``"unneeded"``),
            ``"coalesced"`` for a ``job_finished`` that took the value of
            an earlier job with the same ``cache_key``, or the failure
            description for ``job_failed``.
        wall_seconds: Job wall time (``job_finished``), the cache-probe
            duration that served the job (cache ``job_skipped``) or total
            plan wall time (``plan_finished``) — cache-served plans report
            where their wall time went too.
        completed: Jobs resolved so far (run, skipped or failed).
        total: Total jobs in the plan.
        skipped: Jobs resolved without running (``plan_finished`` only);
            coalesced jobs are not counted, so a finished plan's
            ``completed - skipped`` is its executed plus coalesced jobs.
    """

    kind: str
    plan: str
    job: str | None = None
    value: object = None
    reason: str | None = None
    wall_seconds: float = 0.0
    completed: int = 0
    total: int = 0
    skipped: int = 0

    def describe(self) -> str:
        """One human-readable progress line (the example's live ticker)."""
        if self.kind == "plan_progress":
            return f"[{self.completed}/{self.total}] {self.plan}"
        if self.kind in ("plan_started", "plan_finished"):
            suffix = f" ({self.wall_seconds:.2f}s)" if self.kind == "plan_finished" else ""
            return f"{self.kind}: {self.plan}{suffix}"
        detail = f" [{self.reason}]" if self.reason else ""
        timing = f" ({self.wall_seconds:.2f}s)" if self.kind == "job_finished" else ""
        return f"{self.kind}: {self.job}{detail}{timing}"

    # ------------------------------------------------------------- wire form
    def to_wire(self) -> dict[str, Any]:
        """The JSON-safe wire dict (see :meth:`to_json` for the contract)."""
        payload: dict[str, Any] = {"schema_version": EVENT_SCHEMA_VERSION}
        for field in fields(self):
            if field.name == "value":
                payload["value"] = _encode_value(self.value)
            else:
                payload[field.name] = getattr(self, field.name)
        return payload

    def to_json(self) -> str:
        """One JSON object (single line) in the stable wire schema."""
        return json.dumps(self.to_wire(), sort_keys=True)


def _encode_value(value: Any) -> Any:
    """Lower an event value to something JSON can carry.

    JSON-representable values travel inline; everything else becomes a
    base64 pickle under :data:`_PICKLE_TAG`; values pickle refuses degrade
    to ``{"__event_repr__": repr(value)}`` so the emit never raises.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple, dict)):
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            pass
        else:
            return list(value) if isinstance(value, tuple) else value
    try:
        blob = pickle.dumps(value)
    except (pickle.PickleError, TypeError, AttributeError):
        return {_REPR_TAG: repr(value)}
    return {_PICKLE_TAG: base64.b64encode(blob).decode("ascii")}


def _decode_value(value: Any) -> Any:
    """Invert :func:`_encode_value`; corrupt pickles degrade to ``None``."""
    if isinstance(value, dict) and _PICKLE_TAG in value:
        try:
            return pickle.loads(base64.b64decode(value[_PICKLE_TAG]))
        except Exception:  # noqa: BLE001 - a tail must survive bad payloads
            return None
    if isinstance(value, dict) and _REPR_TAG in value:
        return value[_REPR_TAG]
    return value


#: Wire fields a decoder recognises — everything else is silently dropped,
#: which is what keeps old readers compatible with newer writers.
_WIRE_FIELDS = frozenset(field.name for field in fields(Event))


def event_from_json(data: "str | bytes | Mapping[str, Any]") -> Event:
    """Restore an :class:`Event` from its wire form.

    Accepts the JSON text of :meth:`Event.to_json` or an already-parsed
    mapping.  Unknown fields are ignored and absent fields default, so
    payloads from newer schema versions still decode; the original
    ``schema_version`` is available to callers via the raw payload, not the
    event (events compare equal across schema revisions when their known
    fields agree).
    """
    payload = json.loads(data) if isinstance(data, (str, bytes)) else dict(data)
    known = {
        name: value for name, value in payload.items() if name in _WIRE_FIELDS
    }
    known["value"] = _decode_value(known.get("value"))
    return Event(**known)
