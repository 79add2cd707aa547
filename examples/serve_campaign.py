#!/usr/bin/env python3
"""A campaign through the service plane: one server, two workers, a client.

The :class:`~repro.serve.ServeServer` owns a durable job queue and one
result-cache namespace per tenant; :class:`~repro.serve.ServeWorker`
processes register with it and execute shipped plan waves; the
:class:`~repro.serve.ServeClient` submits a campaign, tails its event
journal live, and assembles the final :class:`CampaignReport` — through the
exact same event fold ``Campaign.run()`` uses, so the report is identical
to a local run's.  A second submission of the same grid is served entirely
from the tenant's cache: zero jobs execute.

Everything runs in-process here for a self-contained demo; in production
the workers are separate processes started with
``python -m repro.serve.worker --server host:port``.

Run with ``python examples/serve_campaign.py``.
"""

import tempfile
import time

from repro.api import Campaign
from repro.atpg import AtpgOptions
from repro.runtime import Event
from repro.serve import ServeClient, ServeServer, ServeWorker


def ticker(event: Event) -> None:
    """Render the journal tail as a live progress log."""
    if event.kind in ("job_started", "job_finished", "job_skipped"):
        print(f"  {event.describe()}")


def fresh_campaign() -> Campaign:
    options = AtpgOptions(
        random_pattern_batches=2, patterns_per_batch=32, backtrack_limit=15,
        random_seed=2005,
    )
    return Campaign(designs=["tiny"], scenarios=["a", "c"], options=options)


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-serve-demo-") as tmp:
        server = ServeServer(tmp).start()
        host, port = server.address
        print(f"server listening on {host}:{port}")

        workers = [
            ServeWorker(server_address=server.address, register_seconds=0.2).start()
            for _ in range(2)
        ]
        client = ServeClient(server.address)
        while len(client.workers()) < 2:
            time.sleep(0.05)
        print(f"workers registered: {client.workers()}\n")

        print("Submitting the campaign (tenant 'demo', streaming events):")
        handle = fresh_campaign().submit(client, tenant="demo")
        report = handle.report(on_event=ticker)
        summary = handle.status()["summary"]
        print(f"\nbackend: {summary['backend']}  "
              f"executed: {summary['executed']}  "
              f"cache hits: {summary['skipped_cache']}")
        print(report.table("tiny"))

        print("Resubmitting — the tenant cache serves everything:")
        resumed = fresh_campaign().submit(client, tenant="demo").report()
        second = client.status(2)["summary"]
        print(f"executed: {second['executed']}  "
              f"cache hits: {second['skipped_cache']}  "
              f"identical results: {resumed.same_results(report)}")

        print("\nservice stats:", client.stats()["queue"])
        for worker in workers:
            worker.stop()
        server.stop()


if __name__ == "__main__":
    main()
