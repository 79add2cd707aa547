"""`ServeClient` — the programmatic peer of a :class:`ServeServer`.

One request per connection, JSON lines both ways.  Plans are submitted in
their declarative :meth:`~repro.runtime.Plan.to_dict` form plus a pickled
resource-bindings blob (the same shippable subset the executor sends to its
process workers, filtered through :func:`~repro.runtime.shippable_resources`); results come
back as journal replays — each plan job's latest value-bearing event, decoded
through :func:`~repro.runtime.event_from_json` so the caller receives real
:class:`~repro.runtime.Event` objects with real result values.

``Campaign.submit(client=...)`` builds on this to give campaigns a
fire-and-forget mode whose final :class:`~repro.api.campaign.CampaignReport`
is assembled by the exact same code path as ``Campaign.run()``.
"""

from __future__ import annotations

import pickle
import socket
import time
from typing import Any, Callable, Iterator, Mapping

from repro.runtime import Event, Plan, event_from_json, shippable_resources
from repro.serve.protocol import (
    encode_blob,
    parse_address,
    recv_line,
    send_line,
)
from repro.serve.queue import TERMINAL_STATES


class ServeError(RuntimeError):
    """The server answered a request with ``ok: false``."""


class ServeClient:
    """Talks the serve control protocol to one server address.

    ``token`` is the deployment's shared secret: when the server was
    started with ``auth_token=...``, every request must carry it.
    """

    def __init__(
        self,
        address: "str | tuple",
        timeout: float = 10.0,
        *,
        token: "str | None" = None,
    ) -> None:
        self.address = parse_address(address)
        self.timeout = timeout
        self.token = token

    # ------------------------------------------------------------- transport
    def _open(self):
        sock = socket.create_connection(self.address, timeout=self.timeout)
        return sock, sock.makefile("wb"), sock.makefile("rb")

    def _stamp(self, payload: dict[str, Any]) -> dict[str, Any]:
        if self.token is not None:
            payload["token"] = self.token
        return payload

    def _request(self, payload: dict[str, Any]) -> dict[str, Any]:
        sock, wfile, rfile = self._open()
        try:
            send_line(wfile, self._stamp(payload))
            reply = recv_line(rfile)
        finally:
            sock.close()
        if reply is None:
            raise ServeError("server closed the connection without replying")
        if not reply.get("ok"):
            raise ServeError(str(reply.get("error") or "request failed"))
        return reply

    # ------------------------------------------------------------------- ops
    def ping(self) -> bool:
        return bool(self._request({"op": "ping"}).get("pong"))

    def submit(
        self,
        plan: "Plan | Mapping[str, Any]",
        *,
        tenant: str = "default",
        name: "str | None" = None,
        resources: "Mapping[str, Any] | None" = None,
        metadata: "Mapping[str, Any] | None" = None,
    ) -> int:
        """Submit one plan for execution; returns the queue job id.

        ``resources`` may be the plan compiler's full bindings — they are
        filtered to the shippable subset and pickled here.  When ``plan`` is
        a :class:`~repro.runtime.Plan` with attached resources and none are
        passed explicitly, the attached ones ship.
        """
        if isinstance(plan, Plan):
            if resources is None:
                resources = plan.resources
            plan_dict = plan.to_dict()
        else:
            plan_dict = dict(plan)
        request: dict[str, Any] = {
            "op": "submit",
            "tenant": tenant,
            "name": name,
            "plan": plan_dict,
            "metadata": dict(metadata or {}),
        }
        shipped = shippable_resources(resources)
        if shipped:
            request["resources"] = encode_blob(pickle.dumps(shipped))
        return int(self._request(request)["job"])

    def status(self, job_id: int) -> dict[str, Any]:
        return self._request({"op": "status", "job": job_id})["job"]

    def jobs(self, tenant: "str | None" = None) -> list[dict[str, Any]]:
        return self._request({"op": "jobs", "tenant": tenant})["jobs"]

    def cancel(self, job_id: int) -> str:
        """Request cancellation; returns the job's state after the request."""
        return str(self._request({"op": "cancel", "job": job_id})["state"])

    def workers(self) -> list[str]:
        return list(self._request({"op": "workers"})["workers"])

    def stats(self) -> dict[str, Any]:
        return self._request({"op": "stats"})

    # ---------------------------------------------------------------- events
    def events(
        self,
        job_id: int,
        after: int = 0,
        *,
        follow: bool = False,
        timeout: "float | None" = None,
    ) -> Iterator[tuple[int, Event]]:
        """Yield ``(seq, Event)`` from the job's journal, oldest first.

        With ``follow`` the stream tails the journal until the job reaches a
        terminal state (the live-progress mode); without it, one snapshot of
        the journal so far.  ``seq`` values resume a tail: pass the last one
        back as ``after``.

        ``timeout`` bounds the *whole* stream (``None`` == no deadline).
        With no deadline the reads block indefinitely — safe even across
        long event-less gaps (one slow plan job, say), because a following
        server emits periodic keepalive lines, so the socket never sits on
        a per-read timeout that a healthy quiet job could trip.  A finite
        ``timeout`` raises :class:`TimeoutError` once the deadline passes,
        however quiet or busy the stream.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        sock, wfile, rfile = self._open()
        try:
            send_line(wfile, self._stamp({"op": "events", "job": job_id,
                                          "after": after, "follow": follow}))
            head = recv_line(rfile)
            if head is None or not head.get("ok"):
                raise ServeError(
                    str((head or {}).get("error") or "event stream refused")
                )
            while True:
                if deadline is None:
                    sock.settimeout(None)
                else:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"serve job {job_id} event stream still open "
                            f"after {timeout:.1f}s"
                        )
                    sock.settimeout(remaining)
                try:
                    line = recv_line(rfile)
                except socket.timeout:
                    raise TimeoutError(
                        f"serve job {job_id} event stream still open "
                        f"after {timeout:.1f}s"
                    ) from None
                if line is None or line.get("end"):
                    return
                if line.get("keepalive"):
                    continue
                yield int(line["seq"]), event_from_json(line["event"])
        finally:
            sock.close()

    def wait(
        self,
        job_id: int,
        *,
        timeout: "float | None" = None,
        on_event: "Callable[[Event], None] | None" = None,
    ) -> dict[str, Any]:
        """Block until the job is terminal, streaming events along the way.

        Returns the job's final status dict.  ``timeout`` bounds the whole
        wait (``None`` == forever — the event stream blocks without any
        per-read socket timeout, so arbitrarily long gaps between events
        are fine); events observed more than once (a requeued job replays
        its journal from the start) are delivered as they appear —
        idempotent consumers, like the campaign report assembler, fold
        them naturally.
        """
        for _, event in self.events(job_id, follow=True, timeout=timeout):
            if on_event is not None:
                on_event(event)
        status = self.status(job_id)
        if status["state"] not in TERMINAL_STATES:
            raise ServeError(
                f"event stream ended but job {job_id} is {status['state']!r}"
            )
        return status

    # ---------------------------------------------------------------- results
    def results(self, job_id: int) -> dict[str, Event]:
        """Each plan job's latest result-bearing event, values decoded."""
        reply = self._request({"op": "results", "job": job_id})
        return {
            plan_job: event_from_json(wire)
            for plan_job, wire in reply["results"].items()
        }
