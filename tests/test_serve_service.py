"""ServeServer + ServeClient integration: the control protocol, tenant
stores, cancellation, and the kill-and-restart recovery guarantee.

Everything here runs the server's *local* execution path (no remote
workers); the remote backend has its own suite in test_serve_remote.py.
"""

from __future__ import annotations

import io
import json
import os
import socket
import socketserver
import sys
import threading
import time

import pytest

from repro.runtime import Event, Job, Plan, event_from_json, register_job_kind
from repro.serve import (
    ServeClient,
    ServeError,
    ServeQueue,
    ServeServer,
    TenantStore,
    tenant_namespace,
)
from repro.serve.protocol import WakingTCPServer, recv_line, send_event_line, send_line


@register_job_kind("serve-value")
def _serve_value(resources, params, deps):
    return {"value": params["x"] * resources.get("factor", 1)}


@register_job_kind("serve-nap")
def _serve_nap(resources, params, deps):
    time.sleep(params.get("seconds", 0.1))
    return params["x"]


@register_job_kind("serve-payload")
def _serve_payload(resources, params, deps):
    return b"x" * params.get("bytes", 4096)


def value_plan(count: int = 4, *, name: str = "vals", keyed: bool = True) -> Plan:
    return Plan(
        name=name,
        jobs=tuple(
            Job(id=f"v:{i}", kind="serve-value", params={"x": i},
                cache_key=f"{name}-{i}" if keyed else None)
            for i in range(count)
        ),
    )


def nap_plan(count: int, seconds: float, *, name: str = "naps") -> Plan:
    return Plan(
        name=name,
        jobs=tuple(
            Job(id=f"n:{i}", kind="serve-nap",
                params={"x": i, "seconds": seconds},
                cache_key=f"{name}-{i}")
            for i in range(count)
        ),
    )


@pytest.fixture()
def service(tmp_path):
    server = ServeServer(tmp_path / "root", poll_seconds=0.02)
    server.start()
    yield server, ServeClient(server.address)
    server.stop()


class TestControlPlane:
    def test_ping_and_empty_stats(self, service):
        server, client = service
        assert client.ping()
        stats = client.stats()
        assert stats["queue"]["queued"] == 0
        assert stats["workers"] == []

    def test_submit_wait_results_round_trip(self, service):
        server, client = service
        job_id = client.submit(value_plan(), resources={"factor": 10})
        final = client.wait(job_id, timeout=30)
        assert final["state"] == "done"
        assert final["summary"]["executed"] == 4
        results = client.results(job_id)
        assert {k: e.value["value"] for k, e in results.items()} == {
            f"v:{i}": i * 10 for i in range(4)
        }

    def test_resubmission_is_served_from_the_tenant_cache(self, service):
        server, client = service
        plan = value_plan(name="cached")
        first = client.wait(client.submit(plan), timeout=30)
        assert first["summary"]["executed"] == 4
        second = client.wait(client.submit(plan), timeout=30)
        assert second["summary"]["executed"] == 0
        assert second["summary"]["skipped_cache"] == 4
        # The cache-resumed attempt still carries every job's value.
        results = client.results(2)
        assert len(results) == 4
        assert all(e.kind == "job_skipped" for e in results.values())

    def test_summary_counts_coalesced_jobs(self, service):
        server, client = service
        jobs = tuple(
            Job(id=f"v:{i}", kind="serve-value", params={"x": i % 2},
                cache_key=f"twins-{i % 2}")
            for i in range(5)
        )
        first = client.wait(client.submit(Plan(name="twins", jobs=jobs)), timeout=30)
        summary = first["summary"]
        assert (summary["jobs"], summary["executed"], summary["coalesced"]) == (5, 2, 3)
        assert summary["skipped_total"] == 0
        second = client.wait(client.submit(Plan(name="twins", jobs=jobs)), timeout=30)
        summary = second["summary"]
        assert (summary["executed"], summary["skipped_cache"], summary["coalesced"]) == (0, 5, 0)

    def test_tenants_do_not_share_caches(self, service):
        server, client = service
        plan = value_plan(name="isolated")
        a = client.wait(client.submit(plan, tenant="alpha"), timeout=30)
        b = client.wait(client.submit(plan, tenant="beta"), timeout=30)
        assert a["summary"]["executed"] == 4
        assert b["summary"]["executed"] == 4  # no cross-tenant hits
        again = client.wait(client.submit(plan, tenant="alpha"), timeout=30)
        assert again["summary"]["skipped_cache"] == 4
        usage = client.stats()["store"]["tenants"]
        assert usage["alpha"]["entries"] == 4
        assert usage["beta"]["entries"] == 4

    def test_event_tail_snapshot_and_resume(self, service):
        server, client = service
        job_id = client.submit(value_plan(2, name="tailed"))
        client.wait(job_id, timeout=30)
        tail = list(client.events(job_id))
        kinds = [event.kind for _, event in tail]
        assert kinds[0] == "plan_started"
        assert kinds[-1] == "plan_finished"
        assert kinds.count("job_finished") == 2
        # Resuming from a mid-stream seq yields exactly the remainder.
        cut = tail[2][0]
        rest = list(client.events(job_id, after=cut))
        assert [seq for seq, _ in rest] == [seq for seq, _ in tail[3:]]

    def test_live_wait_streams_events_as_they_happen(self, service):
        server, client = service
        kinds: list[str] = []
        job_id = client.submit(nap_plan(3, 0.05, name="live"))
        client.wait(job_id, timeout=30, on_event=lambda e: kinds.append(e.kind))
        assert "plan_started" in kinds and "plan_finished" in kinds
        assert kinds.count("job_finished") == 3

    def test_cancel_a_running_job(self, service):
        server, client = service
        job_id = client.submit(nap_plan(40, 0.1, name="doomed"))
        for _, event in client.events(job_id, follow=True, timeout=60):
            if event.kind == "job_finished":
                state = client.cancel(job_id)
                assert state in ("running", "cancelled")
                break
        final = client.wait(job_id, timeout=60)
        assert final["state"] == "cancelled"
        assert final["summary"]["executed"] < 40

    def test_metadata_can_pin_a_local_backend(self, service):
        server, client = service
        job_id = client.submit(value_plan(3, name="pinned"),
                               metadata={"backend": "threads"})
        final = client.wait(job_id, timeout=30)
        assert final["state"] == "done"
        assert final["summary"]["backend"] == "threads"

    def test_failing_plan_lands_in_failed_state(self, service):
        server, client = service
        plan = Plan(name="boom", jobs=(
            Job(id="bad", kind="no-such-kind", params={}),
        ))
        job_id = client.submit(plan)
        final_state = None
        deadline = time.time() + 30
        while time.time() < deadline:
            status = client.status(job_id)
            if status["state"] in ("done", "failed", "cancelled"):
                final_state = status
                break
            time.sleep(0.05)
        assert final_state is not None and final_state["state"] == "failed"
        assert "no-such-kind" in final_state["error"]


class TestProtocolRobustness:
    def test_unknown_op_is_an_error_reply(self, service):
        server, client = service
        with pytest.raises(ServeError, match="unknown op"):
            client._request({"op": "teleport"})

    def test_unknown_job_ids_are_error_replies(self, service):
        server, client = service
        with pytest.raises(ServeError, match="no job"):
            client.status(999)
        with pytest.raises(ServeError, match="no job"):
            client.cancel(999)
        with pytest.raises(ServeError, match="no job"):
            list(client.events(999))
        with pytest.raises(ServeError, match="no job"):
            client.results(999)

    def test_bad_tenant_rejected_at_the_door(self, service):
        server, client = service
        with pytest.raises(ServeError, match="namespace"):
            client.submit(value_plan(1), tenant="../escape")
        assert client.stats()["queue"]["queued"] == 0

    def test_garbage_line_gets_an_error_not_a_hang(self, service):
        server, client = service
        sock = socket.create_connection(server.address, timeout=5)
        try:
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile("rb").readline())
        finally:
            sock.close()
        assert reply["ok"] is False


    @pytest.mark.parametrize("value", [
        None, {"value": 3, "name": "caf\u00e9"}, b"\x00\xff" * 64, 1.0 / 3,
    ])
    def test_journaled_event_line_is_spliced_verbatim(self, value):
        event = Event(kind="job_finished", plan="p\u00e9", job="j:0", value=value,
                      wall_seconds=0.1 + 0.2, completed=1, total=2)
        payload = event.to_json()
        spliced, reencoded = io.BytesIO(), io.BytesIO()
        send_event_line(spliced, 42, payload)
        send_line(reencoded, {"seq": 42, "event": json.loads(payload)})
        assert spliced.getvalue() == reencoded.getvalue()
        assert event_from_json(recv_line(io.BytesIO(spliced.getvalue()))["event"]) == event


class TestRestartRecovery:
    def test_killed_server_resumes_with_zero_reruns(self, tmp_path):
        """The acceptance scenario: kill mid-campaign, restart, and every
        plan job completed before the crash must be served from cache."""
        root = tmp_path / "root"
        server = ServeServer(root, poll_seconds=0.02)
        server.start()
        client = ServeClient(server.address)
        job_id = client.submit(nap_plan(8, 0.1, name="crashy"))

        finished_before_crash: set[str] = set()
        for _, event in client.events(job_id, follow=True, timeout=60):
            if event.kind == "job_finished":
                finished_before_crash.add(event.job)
                if len(finished_before_crash) >= 2:
                    break
        server.stop(abort=True)  # simulated kill: claim stays un-acked

        # The queue row is exactly what a dead process leaves behind.
        peek = ServeQueue(root / "queue.sqlite")
        assert peek.status(job_id)["state"] == "running"
        peek.close()

        revived = ServeServer(root, poll_seconds=0.02)
        revived.start()
        try:
            client = ServeClient(revived.address)
            final = client.wait(job_id, timeout=60)
            assert final["state"] == "done"
            assert final["attempts"] == 2
            summary = final["summary"]
            assert summary["executed"] + summary["skipped_cache"] == 8
            assert summary["skipped_cache"] >= len(finished_before_crash)

            # Zero re-runs: every job that finished before the crash came
            # back as a cache skip in the second attempt, never re-executed.
            second_attempt: list = []
            plan_starts = 0
            for _, event in client.events(job_id):
                if event.kind == "plan_started":
                    plan_starts += 1
                if plan_starts == 2:
                    second_attempt.append(event)
            assert plan_starts == 2, "the journal must keep both attempts"
            rerun = {e.job for e in second_attempt if e.kind == "job_finished"}
            assert not (rerun & finished_before_crash)
            skipped = {e.job for e in second_attempt
                       if e.kind == "job_skipped" and e.reason == "cache"}
            assert finished_before_crash <= skipped

            # The journal doubles as the result store across attempts.
            results = client.results(job_id)
            assert {k: e.value for k, e in results.items()} == {
                f"n:{i}": i for i in range(8)
            }
        finally:
            revived.stop()


class TestStreamLiveness:
    def test_wait_with_no_deadline_survives_quiet_gaps(self, tmp_path):
        """A follow stream must not inherit the client's short request
        timeout: one slow plan job means a long event-less gap, and an
        unbounded wait() has to sit through it (server keepalives + a
        blocking read), not die on a socket timeout."""
        server = ServeServer(tmp_path / "root", poll_seconds=0.02)
        server.start()
        try:
            client = ServeClient(server.address, timeout=0.4)
            job_id = client.submit(nap_plan(1, 1.2, name="quiet"))
            final = client.wait(job_id)  # timeout=None == forever
            assert final["state"] == "done"
        finally:
            server.stop()

    def test_finite_wait_deadline_raises_timeout(self, service):
        server, client = service
        job_id = client.submit(nap_plan(1, 2.0, name="slow"))
        with pytest.raises(TimeoutError, match="event stream"):
            client.wait(job_id, timeout=0.3)
        client.cancel(job_id)


class TestPushDelivery:
    """Claims and event tails are woken by queue writes: with a fallback
    period far longer than the test, a lost wake-up times out the client."""

    def test_cold_and_cache_hit_submits_finish_without_the_fallback(self, tmp_path):
        server = ServeServer(tmp_path / "root", poll_seconds=30,
                             keepalive_seconds=30).start()
        try:
            client = ServeClient(server.address)
            # Naps keep the cold run going after its tail starts following.
            plan = nap_plan(2, 0.1, name="pushed")
            cold = client.wait(client.submit(plan), timeout=10)
            hit = client.wait(client.submit(plan), timeout=10)
        finally:
            server.stop()
        assert cold["state"] == "done" and cold["summary"]["executed"] == 2
        assert hit["state"] == "done" and hit["summary"]["skipped_cache"] == 2

    def test_stop_on_an_idle_runner_is_prompt(self, tmp_path):
        server = ServeServer(tmp_path / "root", poll_seconds=30).start()
        time.sleep(0.05)  # the runner is parked in its wait
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 0.3

    def test_accept_loop_sleeps_until_shutdown_wakes_it(self):
        handled = []

        class Count(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                handled.append(self.client_address)

        never_served = WakingTCPServer(("127.0.0.1", 0), Count)
        started = time.monotonic()
        never_served.shutdown()  # no accept loop ran: nothing to wait for
        never_served.server_close()
        assert time.monotonic() - started < 0.1

        tcp = WakingTCPServer(("127.0.0.1", 0), Count)
        loop = threading.Thread(target=tcp.serve_forever, daemon=True)
        loop.start()
        socket.create_connection(tcp.server_address, timeout=5).close()
        deadline = time.monotonic() + 5
        while not handled and time.monotonic() < deadline:
            time.sleep(0.01)
        started = time.monotonic()
        stopper = threading.Thread(target=tcp.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=5)  # a lost wake-up fails here, not hangs
        assert not stopper.is_alive()
        assert time.monotonic() - started < 0.1
        loop.join(timeout=5)
        tcp.server_close()
        assert not loop.is_alive()
        assert len(handled) == 1  # the wake-up connection is not served

    def test_a_write_between_read_and_wait_is_not_lost(self, tmp_path):
        queue = ServeQueue(tmp_path / "queue.sqlite")
        try:
            job_id = queue.submit("t", "n", "{}")
            seen = queue.changes  # a follower reads the count...
            assert queue.events_after(job_id) == []  # ...then queries
            writer = threading.Thread(target=queue.append_event,
                                      args=(job_id, "{}"))
            writer.start()
            writer.join()
            started = time.monotonic()
            assert queue.wait_change(seen, timeout=30)
            assert time.monotonic() - started < 1.0
            assert not queue.wait_change(queue.changes, timeout=0.01)
        finally:
            queue.close()

    def test_followers_miss_no_write_under_thread_churn(self, tmp_path):
        """More followers and writers than cores, switching every few
        bytecodes: a lost wake-up parks a follower for the whole 30 s wait
        and fails the join deadline."""
        queue = ServeQueue(tmp_path / "queue.sqlite")
        job_id = queue.submit("t", "n", "{}")
        writers, per_writer = 4, 50
        total = writers * per_writer
        counts: list[int] = []

        def follow() -> None:
            after, count = 0, 0
            while count < total:
                seen = queue.changes
                batch = queue.events_after(job_id, after)
                if batch:
                    after, count = batch[-1][0], count + len(batch)
                else:
                    queue.wait_change(seen, timeout=30)
            counts.append(count)

        def write() -> None:
            for _ in range(per_writer):
                queue.append_event(job_id, "{}")

        threads = [threading.Thread(target=follow, daemon=True) for _ in range(4)]
        threads += [threading.Thread(target=write, daemon=True)
                    for _ in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            queue.close()
        assert counts == [total] * 4


class TestAuth:
    def test_token_checked_on_every_op_but_ping(self, tmp_path):
        server = ServeServer(tmp_path / "root", poll_seconds=0.02,
                             auth_token="s3cret")
        server.start()
        try:
            anonymous = ServeClient(server.address)
            assert anonymous.ping()  # health checks stay open
            with pytest.raises(ServeError, match="authentication failed"):
                anonymous.submit(value_plan(1, name="denied"))
            with pytest.raises(ServeError, match="authentication failed"):
                anonymous.stats()
            wrong = ServeClient(server.address, token="guess")
            with pytest.raises(ServeError, match="authentication failed"):
                wrong.stats()
            trusted = ServeClient(server.address, token="s3cret")
            final = trusted.wait(trusted.submit(value_plan(2, name="auth")),
                                 timeout=30)
            assert final["state"] == "done"
        finally:
            server.stop()

    def test_non_loopback_bind_refused_without_token(self, tmp_path):
        with pytest.raises(ValueError, match="auth_token"):
            ServeServer(tmp_path / "root", host="0.0.0.0")


class TestGracefulStop:
    def test_stop_waits_out_the_running_job(self, tmp_path):
        """stop(abort=False) must let the in-flight job finish normally —
        even past any join grace — and only then close the queue, so the
        job lands in a terminal state instead of dying on a closed db."""
        root = tmp_path / "root"
        server = ServeServer(root, poll_seconds=0.02)
        server.start()
        client = ServeClient(server.address)
        job_id = client.submit(nap_plan(4, 0.15, name="draining"))
        for _, event in client.events(job_id, follow=True, timeout=30):
            if event.kind == "job_started":
                break  # the runner is mid-plan right now
        server.stop()
        peek = ServeQueue(root / "queue.sqlite")
        try:
            status = peek.status(job_id)
            assert status["state"] == "done"
            assert status["summary"]["executed"] == 4
        finally:
            peek.close()


class TestServerMetrics:
    def test_counters_land_in_the_configured_registry(self, tmp_path):
        from repro.obs import Telemetry

        telemetry = Telemetry.on()
        server = ServeServer(tmp_path / "root", poll_seconds=0.02,
                             telemetry=telemetry)
        server.start()
        try:
            client = ServeClient(server.address)
            final = client.wait(client.submit(value_plan(2, name="counted")),
                                timeout=30)
            assert final["state"] == "done"
        finally:
            server.stop()
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters.get("serve.jobs_submitted") == 1
        assert counters.get("serve.jobs_started") == 1
        assert counters.get("serve.jobs_done") == 1


class TestTenantStore:
    def test_namespace_validation(self):
        assert tenant_namespace("acme") == "tenant-acme"
        with pytest.raises(ValueError):
            tenant_namespace("../up")

    def test_quota_enforcement_evicts_oldest(self, tmp_path):
        cache = TenantStore(tmp_path / "cache").cache_for("acme")
        keys = [f"{i:02x}" + "a" * 62 for i in range(4)]
        for age, key in zip((4, 3, 2, 1), keys):
            cache.put(key, b"x" * 1024)
            stamp = time.time() - 60 * age
            os.utime(cache._entry_paths(key)[0], (stamp, stamp))
        per_entry = cache.stats()["payload_bytes"] // 4
        store = TenantStore(tmp_path / "cache", default_quota_bytes=2 * per_entry)
        outcome = store.enforce("acme")
        assert outcome["removed"] == 2
        assert [cache.contains(key) for key in keys] == [False, False, True, True]
        assert store.usage()["acme"]["payload_bytes"] <= 2 * per_entry

    def test_default_quota_applies_to_every_tenant(self, tmp_path):
        unlimited = TenantStore(tmp_path / "cache")
        for tenant in ("a1", "b2"):
            cache = unlimited.cache_for(tenant)
            for i in range(3):
                cache.put(f"{i:02x}" + "c" * 62, b"y" * 1024)
        per_entry = unlimited.usage()["a1"]["payload_bytes"] // 3
        store = TenantStore(tmp_path / "cache", default_quota_bytes=per_entry)
        for tenant in ("a1", "b2"):
            assert store.enforce(tenant)["removed"] == 2
        usage = store.usage()
        assert {tenant: info["entries"] for tenant, info in usage.items()} == {"a1": 1, "b2": 1}
        assert all(info["quota_bytes"] == per_entry for info in usage.values())

    def test_no_quota_means_no_eviction(self, tmp_path):
        store = TenantStore(tmp_path / "cache")
        cache = store.cache_for("acme")
        cache.put("aa" + "d" * 62, b"z" * 4096)
        assert store.enforce("acme")["removed"] == 0
