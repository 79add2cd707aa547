#!/usr/bin/env python3
"""A campaign through the service plane: one server, two workers, a client.

The :class:`~repro.serve.ServeServer` owns a durable job queue and one
result-cache namespace per tenant; :class:`~repro.serve.ServeWorker`
processes register with it and execute shipped plan waves; the
:class:`~repro.serve.ServeClient` submits a campaign, tails its event
journal live, and assembles the final :class:`CampaignReport` — through the
exact same event fold ``Campaign.run()`` uses, so the report is identical
to a local run's.  A second submission of the same grid is served entirely
from the tenant's cache: zero jobs execute.  The script exits non-zero
when the resubmission executes a job or its results differ from the
first run's.

Everything runs in-process here for a self-contained demo; in production
the workers are separate processes started with
``python -m repro.serve.worker --server host:port``.

Run with ``python examples/serve_campaign.py``.
"""

import sys
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


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-demo-") as tmp:
        server = ServeServer(tmp).start()
        host, port = server.address
        print(f"server listening on {host}:{port}")

        workers = [
            ServeWorker(server_address=server.address, register_seconds=0.2).start()
            for _ in range(2)
        ]
        try:
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
            second_handle = fresh_campaign().submit(client, tenant="demo")
            resumed = second_handle.report()
            second = second_handle.status()["summary"]
            identical = resumed.same_results(report)
            print(f"executed: {second['executed']}  "
                  f"cache hits: {second['skipped_cache']}  "
                  f"identical results: {identical}")

            print("\nservice stats:", client.stats()["queue"])
        finally:
            for worker in workers:
                worker.stop()
            server.stop()
    if second["executed"] or not identical:
        print("FAIL: the resubmission must execute no job and match the first run",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
