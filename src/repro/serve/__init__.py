"""repro.serve — persistent multi-tenant campaign service with remote workers.

The service plane turns the runtime execution plane into something that
outlives a Python process:

* :mod:`repro.serve.queue` — a durable sqlite job queue storing serialized
  :class:`~repro.runtime.Plan` graphs (states ``queued`` / ``running`` /
  ``done`` / ``failed`` / ``cancelled``) with crash-safe leased claims, plus
  the append-only event journal every execution streams into;
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — a JSON-lines
  control protocol (``submit`` / ``status`` / ``events`` tail / ``cancel`` /
  ``results``) over a threading socket server, with
  :class:`~repro.serve.client.ServeClient` as the programmatic peer and
  ``Campaign.submit(client=...)`` as the front door;
* :mod:`repro.serve.store` — per-tenant namespaces of the engine
  :class:`~repro.engine.cache.ResultCache` under one byte quota with
  oldest-first eviction;
* :mod:`repro.serve.worker` — :class:`~repro.serve.worker.ServeWorker`
  execution slots and the ``remote``
  :class:`~repro.runtime.backends.Backend` that ships executor waves to
  them (heartbeat leases, lost-shard requeue, local fallback).

Restart safety is the defining property: a killed server's claims are
re-queued on the next start, and because every execution runs against the
tenant's result cache, the resumed plan skips straight through its completed
jobs — zero re-runs, and the journal keeps the full event history across
attempts.

Quickstart::

    from repro.api import Campaign
    from repro.serve import ServeClient, ServeServer, ServeWorker

    server = ServeServer("/tmp/serve-root").start()
    workers = [
        ServeWorker(server_address=server.address).start() for _ in range(2)
    ]
    client = ServeClient(server.address)
    handle = Campaign(designs=["tiny"], scenarios=["a"]).submit(client)
    report = handle.report()          # byte-identical to Campaign.run()
"""

from repro.serve.client import ServeClient, ServeError, shippable_resources
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.serve.queue import JOB_STATES, TERMINAL_STATES, ServeQueue
from repro.serve.server import ServeServer
from repro.serve.store import TenantStore, tenant_namespace
from repro.serve.worker import RemoteBackend, ServeWorker

__all__ = [
    "JOB_STATES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RemoteBackend",
    "ServeClient",
    "ServeError",
    "ServeQueue",
    "ServeServer",
    "ServeWorker",
    "TERMINAL_STATES",
    "TenantStore",
    "shippable_resources",
    "tenant_namespace",
]
