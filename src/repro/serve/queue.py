"""Durable job queue and event journal for the serve plane (sqlite-backed).

One :class:`ServeQueue` is the persistent spine of a
:class:`~repro.serve.server.ServeServer`: submissions (a serialized
:class:`~repro.runtime.Plan` plus its pickled resource bindings) land in the
``jobs`` table, the service claims them one at a time under a crash-safe
lease, and every :class:`~repro.runtime.Event` the execution emits is
journaled to the ``events`` table in its stable wire form
(:meth:`~repro.runtime.Event.to_json`).  Both tables live in one sqlite file
in WAL mode, so a killed server loses nothing: on restart
:meth:`ServeQueue.recover` re-queues the claims the dead process held, and
the re-run resumes through the tenant's result cache — completed plan jobs
skip, the journal keeps both attempts, and tails replay seamlessly.

Terminology: a queue **job** is one whole submitted plan (the unit of
claiming and cancellation); the *plan jobs* inside it are the executor's
concern and only appear here through the journaled events.

Single-service-per-root model: exactly one server process owns a queue file
at a time (the lease machinery protects against *crashes*, not against two
live servers sharing a root), which is why :meth:`recover` may re-queue
every ``running`` job unconditionally at startup.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any

#: Every state a queued job moves through.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    tenant TEXT NOT NULL,
    name TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'queued',
    plan TEXT NOT NULL,
    resources BLOB,
    metadata TEXT NOT NULL DEFAULT '{}',
    error TEXT,
    summary TEXT,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    attempts INTEGER NOT NULL DEFAULT 0,
    submitted_at REAL NOT NULL,
    started_at REAL,
    finished_at REAL,
    lease_deadline REAL
);
CREATE INDEX IF NOT EXISTS jobs_state ON jobs(state, id);
CREATE TABLE IF NOT EXISTS events (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    job INTEGER NOT NULL,
    recorded_at REAL NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS events_job ON events(job, seq);
"""


class ServeQueue:
    """Crash-safe sqlite job queue with leased claims and an event journal.

    Thread-safe: one connection guarded by one condition variable (every
    operation is a short transaction, so contention is negligible next to
    plan execution).  Every write a waiter can act on — a submission, an
    event, a terminal ack, a cancel, a re-queue, :meth:`close` — bumps
    :attr:`changes` and wakes :meth:`wait_change`, so the runner and event
    tails of the owning server react at once instead of on a poll period.
    Claims use ``BEGIN IMMEDIATE`` so a claim is an atomic
    queued→running flip even under WAL; a claim carries a **lease** that the
    runner extends via :meth:`heartbeat` while the plan executes, and
    :meth:`requeue_expired` returns jobs whose lease lapsed (a crashed or
    wedged runner) to the queue.
    """

    def __init__(self, path: "Path | str", lease_seconds: float = 30.0) -> None:
        if lease_seconds <= 0:
            raise ValueError("lease_seconds must be positive")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.lease_seconds = float(lease_seconds)
        self._cond = threading.Condition(threading.Lock())
        self._changes = 0
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._cond:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()

    def close(self) -> None:
        with self._cond:
            self._conn.close()
            self._changed()

    # ---------------------------------------------------------- notification
    @property
    def changes(self) -> int:
        """Count of waiter-visible writes so far.

        Read it *before* the query that decides to wait, then pass it to
        :meth:`wait_change`: a write that lands between the query and the
        wait has already moved the count, so it is never missed.
        """
        with self._cond:
            return self._changes

    def wait_change(self, seen: int, timeout: float) -> bool:
        """Block until :attr:`changes` differs from ``seen`` or ``timeout``
        seconds pass; returns whether it changed."""
        with self._cond:
            return self._cond.wait_for(lambda: self._changes != seen, timeout)

    def wake(self) -> None:
        """Wake every waiter without a write (a stopping server's nudge)."""
        with self._cond:
            self._changed()

    def _changed(self) -> None:
        # Caller holds the condition.
        self._changes += 1
        self._cond.notify_all()

    # ------------------------------------------------------------ submission
    def submit(
        self,
        tenant: str,
        name: str,
        plan_json: str,
        resources: "bytes | None" = None,
        metadata: "dict[str, Any] | None" = None,
    ) -> int:
        """Enqueue one serialized plan; returns the queue job id."""
        with self._cond:
            cursor = self._conn.execute(
                "INSERT INTO jobs (tenant, name, state, plan, resources, "
                "metadata, submitted_at) VALUES (?, ?, 'queued', ?, ?, ?, ?)",
                (
                    tenant,
                    name,
                    plan_json,
                    resources,
                    json.dumps(metadata or {}, sort_keys=True),
                    time.time(),
                ),
            )
            self._conn.commit()
            self._changed()
            return int(cursor.lastrowid)

    # --------------------------------------------------------------- claiming
    def claim(self) -> "dict[str, Any] | None":
        """Atomically claim the oldest queued job (None when queue is idle).

        The claimed job flips to ``running`` with a fresh lease deadline and
        an incremented attempt counter; the returned dict carries everything
        the runner needs (including the plan JSON and the resources blob).
        """
        now = time.time()
        with self._cond:
            self._conn.execute("BEGIN IMMEDIATE")
            row = self._conn.execute(
                "SELECT id FROM jobs WHERE state = 'queued' ORDER BY id LIMIT 1"
            ).fetchone()
            if row is None:
                self._conn.commit()
                return None
            self._conn.execute(
                "UPDATE jobs SET state = 'running', started_at = ?, "
                "attempts = attempts + 1, lease_deadline = ? WHERE id = ?",
                (now, now + self.lease_seconds, row["id"]),
            )
            claimed = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (row["id"],)
            ).fetchone()
            self._conn.commit()
            return dict(claimed)

    def heartbeat(self, job_id: int) -> bool:
        """Extend a running job's lease; returns whether the job still runs."""
        with self._cond:
            cursor = self._conn.execute(
                "UPDATE jobs SET lease_deadline = ? "
                "WHERE id = ? AND state = 'running'",
                (time.time() + self.lease_seconds, job_id),
            )
            self._conn.commit()
            return cursor.rowcount > 0

    def requeue_expired(self) -> list[int]:
        """Return lapsed-lease ``running`` jobs to the queue; their ids.

        A lapsed lease means the claiming runner died (or wedged past its
        heartbeat) mid-plan.  Re-queued jobs keep their journal — on the
        next claim the execution resumes through the tenant cache, so work
        completed before the crash is never redone.
        """
        now = time.time()
        with self._cond:
            self._conn.execute("BEGIN IMMEDIATE")
            rows = self._conn.execute(
                "SELECT id FROM jobs WHERE state = 'running' "
                "AND lease_deadline IS NOT NULL AND lease_deadline < ?",
                (now,),
            ).fetchall()
            ids = [int(row["id"]) for row in rows]
            if ids:
                self._conn.executemany(
                    "UPDATE jobs SET state = 'queued', lease_deadline = NULL "
                    "WHERE id = ?",
                    [(job_id,) for job_id in ids],
                )
            self._conn.commit()
            if ids:
                self._changed()
            return ids

    def recover(self) -> list[int]:
        """Startup recovery: re-queue every ``running`` job unconditionally.

        Valid under the single-service-per-root model — any ``running`` row
        seen at startup was claimed by a process that no longer exists.
        """
        with self._cond:
            self._conn.execute("BEGIN IMMEDIATE")
            rows = self._conn.execute(
                "SELECT id FROM jobs WHERE state = 'running'"
            ).fetchall()
            ids = [int(row["id"]) for row in rows]
            if ids:
                self._conn.executemany(
                    "UPDATE jobs SET state = 'queued', lease_deadline = NULL "
                    "WHERE id = ?",
                    [(job_id,) for job_id in ids],
                )
            self._conn.commit()
            if ids:
                self._changed()
            return ids

    # -------------------------------------------------------------- lifecycle
    def finish(
        self,
        job_id: int,
        state: str,
        error: "str | None" = None,
        summary: "dict[str, Any] | None" = None,
    ) -> None:
        """Move a running job to a terminal state (the runner's ack)."""
        if state not in TERMINAL_STATES:
            raise ValueError(
                f"finish() takes a terminal state {TERMINAL_STATES}, got {state!r}"
            )
        with self._cond:
            self._conn.execute(
                "UPDATE jobs SET state = ?, error = ?, summary = ?, "
                "finished_at = ?, lease_deadline = NULL "
                "WHERE id = ? AND state = 'running'",
                (
                    state,
                    error,
                    json.dumps(summary, sort_keys=True) if summary else None,
                    time.time(),
                    job_id,
                ),
            )
            self._conn.commit()
            self._changed()

    def request_cancel(self, job_id: int) -> "str | None":
        """Cancel a job; returns its state after the request (None == unknown).

        A ``queued`` job is cancelled outright; a ``running`` job gets its
        cancel flag raised (the runner observes it between events and stops
        scheduling new plan jobs); terminal jobs are left untouched.
        """
        with self._cond:
            self._conn.execute("BEGIN IMMEDIATE")
            row = self._conn.execute(
                "SELECT state FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            if row is None:
                self._conn.commit()
                return None
            state = row["state"]
            if state == "queued":
                self._conn.execute(
                    "UPDATE jobs SET state = 'cancelled', cancel_requested = 1, "
                    "finished_at = ? WHERE id = ?",
                    (time.time(), job_id),
                )
                state = "cancelled"
            elif state == "running":
                self._conn.execute(
                    "UPDATE jobs SET cancel_requested = 1 WHERE id = ?", (job_id,)
                )
            self._conn.commit()
            self._changed()
            return state

    def cancel_requested(self, job_id: int) -> bool:
        with self._cond:
            row = self._conn.execute(
                "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
            return bool(row and row["cancel_requested"])

    # --------------------------------------------------------------- queries
    @staticmethod
    def _public(row: "sqlite3.Row | dict") -> dict[str, Any]:
        """A job row minus its payload columns (safe to put on the wire)."""
        data = dict(row)
        data.pop("plan", None)
        data.pop("resources", None)
        for key in ("metadata", "summary"):
            if data.get(key):
                try:
                    data[key] = json.loads(data[key])
                except (TypeError, json.JSONDecodeError):
                    pass
        return data

    def status(self, job_id: int) -> "dict[str, Any] | None":
        with self._cond:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return self._public(row) if row is not None else None

    def payload(self, job_id: int) -> "tuple[str, bytes | None] | None":
        """The stored (plan JSON, resources blob) of one job."""
        with self._cond:
            row = self._conn.execute(
                "SELECT plan, resources FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        if row is None:
            return None
        return row["plan"], row["resources"]

    def jobs(
        self, tenant: "str | None" = None, state: "str | None" = None
    ) -> list[dict[str, Any]]:
        query = "SELECT * FROM jobs"
        clauses, args = [], []
        if tenant is not None:
            clauses.append("tenant = ?")
            args.append(tenant)
        if state is not None:
            clauses.append("state = ?")
            args.append(state)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY id"
        with self._cond:
            rows = self._conn.execute(query, args).fetchall()
        return [self._public(row) for row in rows]

    def counts(self) -> dict[str, int]:
        """Jobs per state (every state present, zero included)."""
        with self._cond:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
        found = {row["state"]: int(row["n"]) for row in rows}
        return {state: found.get(state, 0) for state in JOB_STATES}

    # ---------------------------------------------------------------- journal
    def append_event(self, job_id: int, payload: str) -> int:
        """Journal one wire-form event line; returns its sequence number."""
        with self._cond:
            cursor = self._conn.execute(
                "INSERT INTO events (job, recorded_at, payload) VALUES (?, ?, ?)",
                (job_id, time.time(), payload),
            )
            self._conn.commit()
            self._changed()
            return int(cursor.lastrowid)

    def events_after(
        self, job_id: int, after: int = 0, limit: "int | None" = None
    ) -> list[tuple[int, str]]:
        """Journaled ``(seq, payload)`` lines of one job, oldest first."""
        query = (
            "SELECT seq, payload FROM events WHERE job = ? AND seq > ? "
            "ORDER BY seq"
        )
        args: list[Any] = [job_id, after]
        if limit is not None:
            query += " LIMIT ?"
            args.append(limit)
        with self._cond:
            rows = self._conn.execute(query, args).fetchall()
        return [(int(row["seq"]), row["payload"]) for row in rows]
