"""The serve control plane: a persistent multi-tenant campaign service.

One :class:`ServeServer` owns three things rooted in one directory:

* the durable :class:`~repro.serve.queue.ServeQueue`
  (``<root>/queue.sqlite``) — submissions, claims, the event journal;
* the :class:`~repro.serve.store.TenantStore` (``<root>/cache``) — one
  result-cache namespace per tenant, all under one byte quota;
* a worker registry — :class:`~repro.serve.worker.ServeWorker` processes
  register their addresses over the control socket and re-register
  periodically; entries older than ``worker_ttl`` are considered dead.

A single **runner thread** drains the queue: each claimed job's plan is
rehydrated (:meth:`~repro.runtime.Plan.from_dict` plus the pickled resource
bindings shipped at submit time) and executed on a
:class:`~repro.runtime.Executor` — backend ``remote`` over the live workers
when any are registered, the server's local backend otherwise.  The
execution's events are journaled through a detachable executor sink
(:meth:`~repro.runtime.Executor.add_event_sink`), which doubles as the lease
heartbeat and the cancellation poll.  Because the executor runs with the
tenant's cache attached, a requeued job (server crash, lapsed lease) resumes
with every completed plan job served from cache — zero re-runs.  The runner
and every following event stream sleep on the queue's change count
(:meth:`~repro.serve.queue.ServeQueue.wait_change`), so a submission is
claimed, and a journaled event streamed, as soon as it is written.

The control socket speaks the JSON-lines protocol of
:mod:`repro.serve.protocol`; :class:`~repro.serve.client.ServeClient` is the
programmatic peer.  ``stop(abort=True)`` simulates a crash for tests: the
runner is stopped *without* acking its claim, exactly the state a killed
process leaves behind.

.. warning:: **Trust boundary.**  The serve wire carries pickles — submitted
   resource bindings are unpickled by the server and shipped task payloads
   are unpickled and *executed* by workers — so anyone who can reach a serve
   socket can run arbitrary code.  The plane is designed for a loopback or
   single-trust-domain deployment: binding a non-loopback interface requires
   ``auth_token=...``, a shared secret checked on every request
   (:class:`~repro.serve.client.ServeClient` and
   :class:`~repro.serve.worker.ServeWorker` take the same token).  The token
   authenticates the *deployment*, not tenants: every token holder can
   submit as any tenant and inspect any job, so tenant namespaces and quotas
   are resource isolation, not a security boundary.
"""

from __future__ import annotations

import hmac
import json
import pickle
import socketserver
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any

from repro.obs.telemetry import Telemetry, coerce_telemetry
from repro.runtime import EXECUTOR_BACKENDS, Executor, Plan
import repro.serve.worker  # noqa: F401 - registers the "remote" backend
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    WakingTCPServer,
    decode_blob,
    format_address,
    is_loopback,
    recv_line,
    send_event_line,
    send_line,
)
from repro.serve.queue import TERMINAL_STATES, ServeQueue
from repro.serve.store import TenantStore, tenant_namespace


class ServeServer:
    """Persistent campaign service: control socket + queue runner.

    Args:
        root: Service state directory (queue db, tenant caches).
        host/port: Control socket bind address (port 0 == ephemeral).
        local_backend: Executor backend used when no remote worker is live
            (one of :data:`~repro.runtime.EXECUTOR_BACKENDS`).
        max_workers: Worker-pool size forwarded to the executor.
        default_quota_bytes: The server's one cache quota, in bytes per
            tenant, applied to every tenant alike (``None`` == unlimited).
        lease_seconds: Queue claim lease (heartbeat-extended while running).
        worker_ttl: Seconds after which a silent worker registration expires.
        poll_seconds: Fallback period.  The runner claims and event tails
            stream as soon as the queue changes (every queue write wakes
            them), so this only paces the lapsed-lease sweep
            (:meth:`~repro.serve.queue.ServeQueue.requeue_expired`) and the
            keepalive check of a quiet tail.
        keepalive_seconds: Interval of keepalive lines on quiet following
            event streams, so tailing clients' reads never starve between
            events of a long-running plan job.
        auth_token: Shared secret required on every request (``ping``
            excepted).  **Mandatory for non-loopback binds** — the wire
            carries pickles, so an open socket is arbitrary code execution;
            see the module docstring for the trust model.
        telemetry: Service-wide :class:`~repro.obs.Telemetry`; activated
            around every queued execution, so ``serve.*`` counters and the
            full executor/engine span tree land in one place.
    """

    def __init__(
        self,
        root: "Path | str",
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        local_backend: str = "serial",
        max_workers: "int | None" = None,
        default_quota_bytes: "int | None" = None,
        lease_seconds: float = 30.0,
        worker_ttl: float = 15.0,
        poll_seconds: float = 0.05,
        keepalive_seconds: float = 1.0,
        auth_token: "str | None" = None,
        telemetry: "Telemetry | bool | None" = None,
    ) -> None:
        if local_backend not in EXECUTOR_BACKENDS:
            raise ValueError(
                f"unknown local backend {local_backend!r} "
                f"(expected one of {EXECUTOR_BACKENDS})"
            )
        if auth_token is None and not is_loopback(host):
            raise ValueError(
                f"refusing to bind serve control socket on {host!r} without "
                "auth_token: the wire carries pickles (arbitrary code "
                "execution for any peer that can reach the socket)"
            )
        self.root = Path(root)
        self.queue = ServeQueue(self.root / "queue.sqlite", lease_seconds)
        self.store = TenantStore(self.root / "cache", default_quota_bytes)
        self.local_backend = local_backend
        self.max_workers = max_workers
        self.worker_ttl = worker_ttl
        self.poll_seconds = poll_seconds
        self.keepalive_seconds = keepalive_seconds
        self.auth_token = auth_token
        self.telemetry = coerce_telemetry(telemetry)
        self._workers: dict[str, float] = {}
        self._workers_lock = threading.Lock()
        self._stop = threading.Event()
        self._abort = threading.Event()
        self._accept_thread: "threading.Thread | None" = None
        self._runner_thread: "threading.Thread | None" = None
        self._active_executor: "Executor | None" = None
        #: Prepared designs by design identity, bound into every plan the
        #: runner executes (``_materialized``) for the server's lifetime.
        self._designs: dict[str, Any] = {}
        server = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                try:
                    request = recv_line(self.rfile)
                except ProtocolError as exc:
                    send_line(self.wfile, {"ok": False, "error": str(exc)})
                    return
                if request is None:
                    return
                if not server._authorized(request):
                    send_line(self.wfile,
                              {"ok": False, "error": "authentication failed"})
                    return
                try:
                    server._handle(request, self.wfile)
                except BrokenPipeError:
                    pass
                except Exception as exc:  # noqa: BLE001 - reply, never crash
                    try:
                        send_line(
                            self.wfile,
                            {"ok": False, "error": f"{type(exc).__name__}: {exc}"},
                        )
                    except OSError:
                        pass

        self._tcp = WakingTCPServer((host, port), Handler)

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address[0], self._tcp.server_address[1]

    def _authorized(self, request: dict[str, Any]) -> bool:
        """Shared-secret check on every request (``ping`` stays open)."""
        if self.auth_token is None or request.get("op") == "ping":
            return True
        return hmac.compare_digest(
            str(request.get("token") or ""), self.auth_token
        )

    def start(self) -> "ServeServer":
        """Start the control socket and the runner; recovers stale claims.

        Recovery is what makes restarts seamless: any job a dead process
        left ``running`` is re-queued before the runner starts, and its
        re-execution resumes through the tenant cache.
        """
        recovered = self.queue.recover()
        if recovered and self.telemetry:
            self.telemetry.metrics.inc("serve.recovered_jobs", len(recovered))
        accept = threading.Thread(target=self._tcp.serve_forever, daemon=True)
        runner = threading.Thread(target=self._run_loop, daemon=True)
        accept.start()
        runner.start()
        self._accept_thread = accept
        self._runner_thread = runner
        return self

    def stop(self, abort: bool = False) -> None:
        """Stop the service.

        ``abort=True`` simulates a crash: the in-flight claim (if any) is
        *not* acked — its queue row stays ``running``, exactly as a killed
        process would leave it, so the next :meth:`start` on the same root
        recovers and resumes it.  ``abort=False`` waits for the current job
        to finish normally, however long it runs — the queue only closes
        once the runner has actually exited, so a slow job can never hit a
        closed database in its event sink or its terminal ack.
        """
        runner = self._runner_thread
        if abort:
            self._abort.set()
            executor = self._active_executor
            if executor is not None:
                executor.cancel()
        self._stop.set()
        self.queue.wake()
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=10.0)
        if runner is not None:
            # A graceful stop owes the in-flight job its normal completion:
            # join without a deadline.  An abort cancelled the executor, so
            # a bounded join suffices (and guards against a wedged cancel).
            runner.join() if not abort else runner.join(timeout=10.0)
        self._accept_thread = None
        self._runner_thread = None
        if runner is None or not runner.is_alive():
            self.queue.close()

    # ---------------------------------------------------------------- workers
    def register_worker(self, address: str) -> None:
        address = format_address(address)
        with self._workers_lock:
            self._workers[address] = time.time()

    def live_workers(self) -> list[str]:
        """Addresses registered within the last ``worker_ttl`` seconds."""
        deadline = time.time() - self.worker_ttl
        with self._workers_lock:
            stale = [a for a, seen in self._workers.items() if seen < deadline]
            for address in stale:
                del self._workers[address]
            return sorted(self._workers)

    # ----------------------------------------------------------------- runner
    def _run_loop(self) -> None:
        while True:
            # Read the change count before the stop flag and the claim, so
            # neither a submit nor stop()'s wake can land unseen in between.
            seen = self.queue.changes
            if self._stop.is_set():
                return
            self.queue.requeue_expired()
            row = self.queue.claim()
            if row is None:
                self.queue.wait_change(seen, self.poll_seconds)
                continue
            # Activated so ambient active_metrics()/active_tracer() callers
            # on the runner and its dispatcher threads (e.g. the remote
            # backend's requeue/fallback counters, store eviction) land in
            # the server's registry rather than a silent void.
            with self.telemetry.activate():
                self._run_one(row)

    def _choose_backend(self, metadata: dict[str, Any]) -> tuple[str, dict]:
        """Remote over live workers when any; else the local backend.

        A submission may pin a *local* backend via ``metadata["backend"]``
        (used when the submitter knows the plan is process-hostile); remote
        dispatch is always the server's decision, because only the server
        knows which workers are alive.
        """
        workers = self.live_workers()
        if workers:
            return "remote", {"workers": workers, "fallback": True,
                              "lease_seconds": self.queue.lease_seconds,
                              "token": self.auth_token}
        pinned = metadata.get("backend")
        if pinned in EXECUTOR_BACKENDS:
            return str(pinned), {}
        return self.local_backend, {}

    def _finish_safely(
        self,
        job_id: int,
        state: str,
        error: "str | None" = None,
        summary: "dict[str, Any] | None" = None,
    ) -> None:
        """Terminal ack that survives a shutdown race with ``queue.close()``.

        An escape here would kill the runner thread with the job stuck
        ``running``; a claim left un-acked because the queue closed is
        exactly what :meth:`~repro.serve.queue.ServeQueue.recover` handles
        on the next start, so swallowing the race is safe.
        """
        try:
            self.queue.finish(job_id, state, error=error, summary=summary)
        except sqlite3.Error:
            pass

    def _run_one(self, row: dict[str, Any]) -> None:
        job_id = int(row["id"])
        tenant = row["tenant"]
        metrics = self.telemetry.metrics if self.telemetry else None
        try:
            metadata = json.loads(row["metadata"] or "{}")
            plan = Plan.from_dict(json.loads(row["plan"]))
            resources = pickle.loads(row["resources"]) if row["resources"] else {}
            # The server's one design memo, keyed by design identity: every
            # write on a design reuses its build and ATPG artefacts.
            # ``_``-prefixed, so it never ships to process or remote workers.
            plan = plan.with_resources({**resources, "_materialized": self._designs})
            backend, backend_options = self._choose_backend(metadata)
            executor = Executor(
                backend=backend,
                backend_options=backend_options,
                max_workers=self.max_workers,
                cache=self.store.cache_for(tenant),
                telemetry=self.telemetry if self.telemetry else None,
            )
            last_beat = [time.time()]

            def sink(event) -> None:
                self.queue.append_event(job_id, event.to_json())
                now = time.time()
                if now - last_beat[0] >= self.queue.lease_seconds / 3:
                    self.queue.heartbeat(job_id)
                    last_beat[0] = now
                if self.queue.cancel_requested(job_id):
                    executor.cancel()

            token = executor.add_event_sink(sink)
            self._active_executor = executor
            if metrics is not None:
                metrics.inc("serve.jobs_started")
            with self.telemetry.tracer.span(
                f"serve:job:{job_id}", tenant=tenant, backend=backend
            ):
                try:
                    outcome = executor.execute(plan)
                finally:
                    self._active_executor = None
                    executor.remove_event_sink(token)
        except Exception as exc:  # noqa: BLE001 - job failure, not server death
            if self._abort.is_set():
                return  # crash simulation: leave the claim un-acked
            self._finish_safely(job_id, "failed",
                                error=f"{type(exc).__name__}: {exc}")
            if metrics is not None:
                metrics.inc("serve.jobs_failed")
            return
        if self._abort.is_set():
            return  # crash simulation: leave the claim un-acked
        summary = {
            "backend": backend,
            "jobs": len(outcome.jobs),
            "executed": len(outcome.executed()),
            "skipped_cache": len(outcome.skipped("cache")),
            "skipped_total": len(outcome.skipped()),
            "coalesced": len(outcome.coalesced()),
            "wall_seconds": outcome.wall_seconds,
            "fallbacks": list(outcome.fallbacks),
        }
        if outcome.cancelled:
            self._finish_safely(job_id, "cancelled", summary=summary)
            if metrics is not None:
                metrics.inc("serve.jobs_cancelled")
        else:
            self._finish_safely(job_id, "done", summary=summary)
            if metrics is not None:
                metrics.inc("serve.jobs_done")
        self.store.enforce(tenant)

    # ------------------------------------------------------------- control ops
    def _handle(self, request: dict[str, Any], wfile) -> None:
        op = request.get("op")
        if op == "ping":
            send_line(wfile, {"ok": True, "pong": True,
                              "protocol": PROTOCOL_VERSION})
        elif op == "submit":
            self._op_submit(request, wfile)
        elif op == "status":
            status = self.queue.status(int(request["job"]))
            if status is None:
                send_line(wfile, {"ok": False,
                                  "error": f"no job {request['job']!r}"})
            else:
                send_line(wfile, {"ok": True, "job": status})
        elif op == "jobs":
            send_line(wfile, {"ok": True,
                              "jobs": self.queue.jobs(request.get("tenant"))})
        elif op == "events":
            self._op_events(request, wfile)
        elif op == "cancel":
            state = self.queue.request_cancel(int(request["job"]))
            if state is None:
                send_line(wfile, {"ok": False,
                                  "error": f"no job {request['job']!r}"})
            else:
                send_line(wfile, {"ok": True, "state": state})
        elif op == "results":
            self._op_results(request, wfile)
        elif op == "register_worker":
            self.register_worker(str(request["address"]))
            send_line(wfile, {"ok": True, "workers": len(self.live_workers())})
        elif op == "workers":
            send_line(wfile, {"ok": True, "workers": self.live_workers()})
        elif op == "stats":
            send_line(wfile, {
                "ok": True,
                "queue": self.queue.counts(),
                "workers": self.live_workers(),
                "store": {"tenants": self.store.usage()},
            })
        else:
            send_line(wfile, {"ok": False, "error": f"unknown op {op!r}"})

    def _op_submit(self, request: dict[str, Any], wfile) -> None:
        tenant = str(request.get("tenant") or "default")
        tenant_namespace(tenant)  # validate before anything lands in the db
        plan_dict = request["plan"]
        Plan.from_dict(plan_dict)  # reject malformed graphs at the door
        resources = None
        if request.get("resources"):
            resources = decode_blob(request["resources"])
        job_id = self.queue.submit(
            tenant,
            str(request.get("name") or plan_dict.get("name") or "plan"),
            json.dumps(plan_dict, sort_keys=True),
            resources=resources,
            metadata=dict(request.get("metadata") or {}),
        )
        if self.telemetry:
            self.telemetry.metrics.inc("serve.jobs_submitted")
        send_line(wfile, {"ok": True, "job": job_id})

    def _op_events(self, request: dict[str, Any], wfile) -> None:
        """Stream journaled events; with ``follow`` tail until terminal."""
        job_id = int(request["job"])
        after = int(request.get("after") or 0)
        follow = bool(request.get("follow"))
        if self.queue.status(job_id) is None:
            send_line(wfile, {"ok": False, "error": f"no job {job_id!r}"})
            return
        send_line(wfile, {"ok": True})
        last_sent = time.monotonic()
        while True:
            # Read before the queries: a write after them wakes the wait.
            seen = self.queue.changes
            batch = self.queue.events_after(job_id, after)
            for seq, payload in batch:
                after = seq
                send_event_line(wfile, seq, payload)
            if batch:
                last_sent = time.monotonic()
            status = self.queue.status(job_id)
            state = status["state"] if status else "failed"
            if not follow or state in TERMINAL_STATES:
                # Drain once more: the run may have journaled between the
                # read above and the state flip.
                for seq, payload in self.queue.events_after(job_id, after):
                    after = seq
                    send_event_line(wfile, seq, payload)
                send_line(wfile, {"end": True, "state": state, "last": after})
                return
            if self._stop.is_set():
                send_line(wfile, {"end": True, "state": state, "last": after})
                return
            # Keepalives let a tailing client sit on a blocking read through
            # arbitrarily long event-less stretches (one slow plan job) and
            # still notice a dead server promptly.
            if time.monotonic() - last_sent >= self.keepalive_seconds:
                send_line(wfile, {"keepalive": True})
                last_sent = time.monotonic()
            keepalive_due = last_sent + self.keepalive_seconds - time.monotonic()
            self.queue.wait_change(seen, min(self.poll_seconds, keepalive_due))

    def _op_results(self, request: dict[str, Any], wfile) -> None:
        """Latest result-bearing event per plan job, replayed from the journal.

        The journal *is* the result store: ``job_finished`` and value-bearing
        ``job_skipped`` lines carry each plan job's result in the event wire
        encoding.  Latest-wins folds requeued attempts (a resumed job's
        cache-skip supersedes nothing — the value is identical by
        construction, that is the cache's contract).
        """
        job_id = int(request["job"])
        if self.queue.status(job_id) is None:
            send_line(wfile, {"ok": False, "error": f"no job {job_id!r}"})
            return
        latest: dict[str, dict[str, Any]] = {}
        for _, payload in self.queue.events_after(job_id):
            wire = json.loads(payload)
            if wire.get("kind") in ("job_finished", "job_skipped") and wire.get("job"):
                latest[wire["job"]] = wire
        send_line(wfile, {"ok": True, "results": latest})
