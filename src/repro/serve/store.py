"""Per-tenant result stores under one byte quota, on one shared cache root.

Every tenant of a :class:`~repro.serve.server.ServeServer` gets its own
namespace of the server's :class:`~repro.engine.cache.ResultCache`
(``<root>/tenant-<name>/...``), so cache-resume works per tenant and one
tenant's quota enforcement can never evict another's results.  Quotas ride
on the cache's own maintenance surface: usage comes from the exact
per-namespace accounting of :meth:`~repro.engine.cache.ResultCache.stats`
and eviction is :meth:`~repro.engine.cache.ResultCache.prune` on the
tenant's namespaced handle (oldest entries first).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.engine.cache import ResultCache, validate_namespace
from repro.obs.telemetry import active_metrics

#: Tenant namespaces are prefixed so they can never collide with the cache's
#: two-hex-char bucket directories, whatever the tenant is called.
_TENANT_PREFIX = "tenant-"


def tenant_namespace(tenant: str) -> str:
    """The cache namespace of one tenant (validates the tenant name)."""
    if not tenant:
        raise ValueError("a tenant needs a non-empty name")
    return validate_namespace(f"{_TENANT_PREFIX}{tenant}")


class TenantStore:
    """Namespaced result caches plus quota accounting for one serve root.

    Args:
        root: Directory holding every tenant's cache entries.
        default_quota_bytes: The one byte quota of the store, applied to
            every tenant alike (``None`` == unlimited).
    """

    def __init__(
        self,
        root: "Path | str",
        default_quota_bytes: "int | None" = None,
    ) -> None:
        self.root = Path(root)
        if default_quota_bytes is not None and default_quota_bytes < 0:
            raise ValueError("default_quota_bytes must be non-negative")
        self.default_quota_bytes = default_quota_bytes
        self._root_cache = ResultCache(self.root)

    # ------------------------------------------------------------------ caches
    def cache_for(self, tenant: str) -> ResultCache:
        """The tenant's namespaced cache handle (creates nothing on disk)."""
        return self._root_cache.namespaced(tenant_namespace(tenant))

    # -------------------------------------------------------------- accounting
    def usage(self) -> dict[str, dict[str, Any]]:
        """Exact per-tenant usage: ``{tenant: {entries, payload_bytes, quota_bytes}}``.

        Derived from the root cache's per-namespace stats, so the numbers a
        quota decision reads are the same numbers the operator sees.
        Non-tenant namespaces (including the default one) are skipped.
        """
        namespaces = self._root_cache.stats()["namespaces"]
        usage: dict[str, dict[str, Any]] = {}
        for namespace, counts in namespaces.items():
            if not namespace.startswith(_TENANT_PREFIX):
                continue
            tenant = namespace[len(_TENANT_PREFIX):]
            usage[tenant] = {
                "entries": counts["entries"],
                "payload_bytes": counts["payload_bytes"],
                "quota_bytes": self.default_quota_bytes,
            }
        return usage

    def enforce(self, tenant: str) -> dict[str, int]:
        """Prune one tenant back under the quota (no-op without a quota).

        Returns the cache's prune summary (``removed`` == 0 when the tenant
        fits).  Eviction is oldest-first within the tenant's namespace only.
        """
        quota = self.default_quota_bytes
        if quota is None:
            return {"removed": 0, "freed_bytes": 0}
        pruned = self.cache_for(tenant).prune(quota)
        if pruned["removed"]:
            metrics = active_metrics()
            if metrics is not None:
                metrics.inc("serve.quota_evictions", pruned["removed"])
        return pruned

    def stats(self) -> dict[str, Any]:
        """Root-level cache stats plus the per-tenant quota view."""
        stats = self._root_cache.stats()
        stats["tenants"] = self.usage()
        return stats
