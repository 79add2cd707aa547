"""Persistent, content-addressed result cache for engine runs.

Repeated ``TestSession.run()`` / benchmark invocations redo work whose
inputs have not changed: the good-machine planes, detection masks, the whole
ATPG result of a scenario.  :class:`ResultCache` stores those artifacts on
disk keyed by a SHA-256 over *content*, never over identity:

* the **design fingerprint** — every node of the flattened circuit model
  (kind, net, gate type, fanin, level) plus outputs and scan structure;
* the **scenario fingerprint** — all declarative fields of a
  :class:`~repro.api.scenario.ScenarioSpec` (the procedure factory
  contributes its module-qualified name) and the effective
  :class:`~repro.atpg.config.AtpgOptions`;
* the **engine version** (:data:`~repro.engine.compile.ENGINE_VERSION`, a
  digest of every ``repro`` source file), so any code change invalidates
  everything at once.

Entries are a pickle payload plus a small JSON sidecar for inspection; the
cache root defaults to ``~/.cache/repro-engine`` and can be moved with the
``REPRO_ENGINE_CACHE`` environment variable.  Corrupt or unpicklable entries
degrade to cache misses — the cache is an accelerator, never a correctness
dependency.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import re
import time
from pathlib import Path
from typing import Any

from repro.engine.compile import ENGINE_VERSION
from repro.obs.telemetry import active_metrics
from repro.simulation.model import CircuitModel

#: Environment variable overriding the cache root directory.
CACHE_ENV_VAR = "REPRO_ENGINE_CACHE"


def default_cache_root() -> Path:
    """The cache directory honoring ``REPRO_ENGINE_CACHE``."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-engine"


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def design_fingerprint(model: CircuitModel) -> str:
    """Content hash of a flattened circuit model (netlist-equivalent).

    Memoised on the model instance (models are immutable once built, and
    the digest is content-derived, so it stays valid across pickling).
    """
    cached = model.__dict__.get("_engine_fingerprint")
    if cached is not None:
        return cached
    parts: list[str] = [model.name]
    for node in model.nodes:
        parts.append(
            f"{node.index}:{node.kind.value}:{node.net}:"
            f"{node.gtype.value if node.gtype else '-'}:{node.fanin}:{node.level}"
        )
    parts.append(f"po:{model.po_nodes}")
    parts.append(
        "scan:"
        + ",".join(
            f"{e.name}/{e.q_node}/{e.d_node}/{e.scan_in_node}/{e.clock}/{e.is_scan}"
            for e in model.state_elements
        )
    )
    digest = _digest("|".join(parts))
    model.__dict__["_engine_fingerprint"] = digest
    return digest


def _stable(value: Any) -> Any:
    """Lower a value to something ``json.dumps`` can sort deterministically."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _stable(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _stable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_stable(v) for v in value]
        return sorted(items, key=repr) if isinstance(value, (set, frozenset)) else items
    if isinstance(value, functools.partial):
        return {
            "partial": _stable(value.func),
            "args": _stable(value.args),
            "keywords": _stable(value.keywords),
        }
    if callable(value):
        # Name alone is not enough: two closures produced by the same
        # factory share a __qualname__ but may behave differently, so fold
        # in captured cell values and defaults.  (repr() is avoided — it
        # embeds per-process addresses and would defeat cross-session
        # caching.)
        name = f"{getattr(value, '__module__', '?')}.{getattr(value, '__qualname__', type(value).__name__)}"
        extras: dict[str, Any] = {}
        closure = getattr(value, "__closure__", None)
        if closure:
            cells = []
            for cell in closure:
                try:
                    cells.append(_stable(cell.cell_contents))
                except ValueError:  # pragma: no cover - empty cell
                    cells.append("<empty>")
            extras["closure"] = cells
        defaults = getattr(value, "__defaults__", None)
        if defaults:
            extras["defaults"] = _stable(defaults)
        return {"callable": name, **extras} if extras else name
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def design_spec_fingerprint(spec: Any) -> str:
    """Content hash of a declarative :class:`~repro.api.design.DesignSpec`.

    Derived purely from the spec's declarative fields (via the same stable
    lowering the scenario fingerprint uses), so it is identical across
    processes and sessions *without building the design* — which is what lets
    an interrupted campaign probe the cache for completed cells before paying
    for netlist generation, scan insertion or model building.
    """
    return _digest("designspec|" + json.dumps(_stable(spec), sort_keys=True))


def spec_fingerprint(spec: Any, options: Any = None) -> str:
    """Content hash of a scenario spec (and the effective ATPG options)."""
    payload = {"spec": _stable(spec), "options": _stable(options)}
    return _digest(json.dumps(payload, sort_keys=True))


def design_identity(design: Any) -> str:
    """The design-identity digest every pattern-set and diagnosis key uses.

    ``design`` is a declarative :class:`~repro.api.design.DesignSpec` or a
    built :class:`~repro.api.design.PreparedDesign`.  A design built from a
    spec keys on that spec's :func:`design_spec_fingerprint` — computable
    without a build, so a resumed run probes the cache before paying for
    netlist generation, and a session, a campaign and a volume plan on the
    same spec share entries.  Only a design with no declarative identity (a
    caller-built SoC) keys on its model content (:func:`design_fingerprint`).
    """
    model = getattr(design, "model", None)
    if model is None:
        return design_spec_fingerprint(design)
    if design.spec is not None:
        return design_spec_fingerprint(design.spec)
    return design_fingerprint(model)


def campaign_cell_key(design_fp: str, spec: Any, options: Any = None) -> str:
    """The cache key of one (design, scenario) pattern-set execution.

    ``design_fp`` is :func:`design_identity` of the design (or any other
    design digest).  The scenario pipeline is fixed, so design, scenario
    and options are everything a pattern set depends on.
    """
    return _digest(
        f"engine={ENGINE_VERSION}|design={design_fp}|"
        f"scenario={spec_fingerprint(spec, options)}"
    )


def fail_log_fingerprint(fail_log: Any) -> str:
    """Content hash of a captured fail log.

    Derived from the log's dict form (design, pattern count, every fail
    bit, injected-defect provenance), so an externally captured tester log
    becomes content-addressed: diagnoses cache per log
    (:func:`diagnosis_key`) even though no declarative spec describes where
    the log came from.  That dict holds only JSON scalars, lists and
    ``str``-keyed dicts, so ``json.dumps`` sorts it directly, byte for byte
    as the generic :func:`_stable` lowering would.
    """
    return _digest("faillog|" + json.dumps(fail_log.to_dict(), sort_keys=True))


def diagnosis_key(
    design_fp: str,
    scenario_fp: str,
    diagnosis: Any,
    log_fp: str | None = None,
) -> str:
    """The cache key of one diagnosis job, classical or BP.

    Keyed on the design identity, ``scenario_fp`` — the
    :func:`spec_fingerprint` of the scenario that produced the pattern set
    with the effective ATPG options the patterns depend on, computed once
    per (design, scenario) row by the caller — ``diagnosis`` (the job's
    JSON-safe verdict inputs: diagnosis spec, BP knobs, injected defect
    list) and the engine version.  ``log_fp`` is the
    :func:`fail_log_fingerprint` of an externally captured fail log, so
    tester logs are content-addressed too; closed-loop runs pass ``None``
    and are keyed by their injected defects alone.

    ``diagnosis`` holds only JSON scalars, lists and ``str``-keyed dicts, so
    one ``json.dumps`` lowers it to the :func:`spec_fingerprint` digest
    without the generic :func:`_stable` walk (the same shortcut as
    :func:`fail_log_fingerprint`).
    """
    spec_fp = _digest(json.dumps({"spec": diagnosis, "options": None}, sort_keys=True))
    return _digest(
        f"diagnosis|engine={ENGINE_VERSION}|design={design_fp}|"
        f"scenario={scenario_fp}|spec={spec_fp}|log={log_fp}"
    )


def plan_fingerprint(plan: Any) -> str:
    """Content hash of a plan's declarative structure.

    Accepts a :class:`~repro.runtime.plan.Plan` (anything with ``to_dict``)
    or its already-lowered dict.  Runtime resource bindings never reach the
    digest — two plans that describe the same jobs share a fingerprint even
    when bound to different in-memory objects.
    """
    payload = plan.to_dict() if hasattr(plan, "to_dict") else plan
    return _digest("plan|" + json.dumps(_stable(payload), sort_keys=True))


def coerce_cache(cache: "ResultCache | Path | str | bool | None") -> "ResultCache | None":
    """Normalize the ``with_cache`` argument the API front doors accept.

    ``True`` -> the default cache root (honoring ``REPRO_ENGINE_CACHE``),
    ``False``/``None`` -> detached, a path -> a cache rooted there, and an
    existing :class:`ResultCache` passes through unchanged.
    """
    if cache is True:
        return ResultCache()
    if cache is False or cache is None:
        return None
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


#: Namespace names must be path-safe and must never collide with the
#: two-hex-char bucket directories of the default namespace.
_NAMESPACE_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")
_BUCKET_RE = re.compile(r"[0-9a-f]{2}\Z")


def validate_namespace(namespace: str) -> str:
    """Check a cache namespace name; returns it unchanged when legal."""
    if not _NAMESPACE_RE.match(namespace):
        raise ValueError(
            f"illegal cache namespace {namespace!r} (letters, digits, '.', "
            "'_' and '-' only; must start with a letter or digit)"
        )
    if _BUCKET_RE.match(namespace):
        raise ValueError(
            f"illegal cache namespace {namespace!r}: two-hex-character names "
            "collide with the default namespace's bucket directories"
        )
    return namespace


class ResultCache:
    """Content-addressed pickle store with JSON sidecars.

    Layout: ``<root>/<key[:2]>/<key>.pkl`` plus ``<key>.json`` holding
    ``{"key", "label", "created", "engine_version"}`` for human inspection.

    A cache can be **namespaced** (``ResultCache(root, namespace="tenant-a")``
    or :meth:`namespaced`): entries then live under
    ``<root>/<namespace>/<key[:2]>/...`` and every operation — ``get``,
    ``put``, ``stats``, ``prune``, ``clear`` — is scoped to that subtree, so
    one tenant's quota enforcement can never evict another tenant's results.
    The un-namespaced handle on the same root sees *all* entries (its
    ``stats()`` breaks usage down per namespace), which is what the serve
    plane's operators use for global accounting.
    """

    def __init__(
        self, root: "Path | str | None" = None, namespace: "str | None" = None
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.namespace = validate_namespace(namespace) if namespace else None
        #: Lifetime I/O counters for this handle (also mirrored into the
        #: active telemetry registry, when one is enabled): ``hits`` /
        #: ``misses`` probe outcomes, ``stores`` successful puts,
        #: ``evictions`` pruned entries, ``bytes_read`` / ``bytes_written``
        #: payload traffic.
        self.counters: dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "evictions": 0,
            "bytes_read": 0,
            "bytes_written": 0,
        }

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        metrics = active_metrics()
        if metrics is not None:
            metrics.inc(f"cache.{name}", amount)

    # ------------------------------------------------------------------ paths
    def namespaced(self, namespace: str) -> "ResultCache":
        """A handle scoped to one namespace of the same cache root."""
        return ResultCache(self.root, namespace)

    @property
    def _base(self) -> Path:
        return self.root / self.namespace if self.namespace else self.root

    def _entry_paths(self, key: str) -> tuple[Path, Path]:
        bucket = self._base / key[:2]
        return bucket / f"{key}.pkl", bucket / f"{key}.json"

    def _glob_patterns(self) -> tuple[str, ...]:
        """Payload globs this handle's scope covers.

        A namespaced handle sees only its subtree; the root handle sees the
        default namespace (depth 2: ``<bucket>/<key>.pkl``) *and* every
        namespace (depth 3: ``<namespace>/<bucket>/<key>.pkl``) — bucket
        directories hold only files, so the two depths never alias.
        """
        if self.namespace:
            return (f"{self.namespace}/*/*.pkl",)
        return ("*/*.pkl", "*/*/*.pkl")

    def _namespace_of(self, payload_path: Path) -> str:
        """The namespace a payload file belongs to (``""`` == default)."""
        parts = payload_path.relative_to(self.root).parts
        return parts[0] if len(parts) == 3 else ""

    def contains(self, key: str) -> bool:
        return self._entry_paths(key)[0].is_file()

    # ------------------------------------------------------------------- I/O
    def get(self, key: str) -> Any | None:
        """Load a cached payload; any failure reads as a miss."""
        payload_path, _ = self._entry_paths(key)
        try:
            with payload_path.open("rb") as handle:
                data = handle.read()
            value = pickle.loads(data)
        except (OSError, pickle.PickleError, EOFError, AttributeError, ImportError):
            self._count("misses")
            return None
        self._count("hits")
        self._count("bytes_read", len(data))
        return value

    def put(self, key: str, payload: Any, label: str = "") -> bool:
        """Store a payload; returns False when it cannot be pickled/written."""
        payload_path, meta_path = self._entry_paths(key)
        try:
            data = pickle.dumps(payload)
        except (pickle.PickleError, TypeError, AttributeError):
            return False
        try:
            payload_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = payload_path.with_suffix(".tmp")
            tmp.write_bytes(data)
            os.replace(tmp, payload_path)
            meta_path.write_text(
                json.dumps(
                    {
                        "key": key,
                        "label": label,
                        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
                        "engine_version": ENGINE_VERSION,
                        "bytes": len(data),
                    },
                    indent=2,
                )
                + "\n"
            )
        except OSError:
            return False
        self._count("stores")
        self._count("bytes_written", len(data))
        return True

    # ------------------------------------------------------------- management
    def entries(self) -> list[dict[str, Any]]:
        """Metadata of every cached entry in this handle's scope."""
        found: list[dict[str, Any]] = []
        if not self.root.is_dir():
            return found
        meta_globs = [pattern[:-4] + ".json" for pattern in self._glob_patterns()]
        for pattern in meta_globs:
            for meta_path in sorted(self.root.glob(pattern)):
                try:
                    found.append(json.loads(meta_path.read_text()))
                except (OSError, json.JSONDecodeError):
                    continue
        return found

    def clear(self) -> int:
        """Delete every entry in scope; returns how many payloads were removed."""
        removed = 0
        for payload_path, _, _ in self._payload_files():
            meta = payload_path.with_suffix(".json")
            try:
                payload_path.unlink()
                removed += 1
                if meta.is_file():
                    meta.unlink()
            except OSError:
                continue
        return removed

    def _payload_files(self) -> list[tuple[Path, int, float]]:
        """(path, bytes, mtime) of every in-scope payload file, oldest first."""
        found: list[tuple[Path, int, float]] = []
        if not self.root.is_dir():
            return found
        for pattern in self._glob_patterns():
            for payload_path in self.root.glob(pattern):
                try:
                    stat = payload_path.stat()
                except OSError:
                    continue
                found.append((payload_path, stat.st_size, stat.st_mtime))
        found.sort(key=lambda item: (item[2], item[0]))
        return found

    def stats(self) -> dict[str, Any]:
        """Summary of the store: entry count, payload bytes, label histogram.

        Diagnosis campaigns multiply cache entries (one per design x scenario
        x defect cell), so operators need a cheap way to see what the store
        holds before deciding to :meth:`prune` it.  ``namespaces`` breaks the
        same accounting down per namespace with *exact* byte/entry counts
        (the default namespace reports under ``""``) — tenant quota
        enforcement reads these numbers, so they are computed from the same
        stat pass as the totals and can never drift from them.
        """
        files = self._payload_files()
        labels: dict[str, int] = {}
        namespaces: dict[str, dict[str, int]] = {}
        for payload_path, size, _ in files:
            meta_path = payload_path.with_suffix(".json")
            try:
                label = str(json.loads(meta_path.read_text()).get("label", ""))
            except (OSError, json.JSONDecodeError):
                label = "<no metadata>"
            labels[label] = labels.get(label, 0) + 1
            bucket = namespaces.setdefault(
                self._namespace_of(payload_path), {"entries": 0, "payload_bytes": 0}
            )
            bucket["entries"] += 1
            bucket["payload_bytes"] += size
        return {
            "root": str(self.root),
            "namespace": self.namespace,
            "entries": len(files),
            "payload_bytes": sum(size for _, size, _ in files),
            "labels": dict(sorted(labels.items())),
            "namespaces": dict(sorted(namespaces.items())),
            "oldest_mtime": files[0][2] if files else None,
            "newest_mtime": files[-1][2] if files else None,
            "counters": dict(self.counters),
        }

    def prune(self, max_bytes: int) -> dict[str, int]:
        """Evict oldest entries until total payload bytes fit ``max_bytes``.

        Eviction order is payload mtime (oldest first) — an LRU approximation
        good enough for a content-addressed store whose entries are
        immutable.  Sidecar metadata files are removed with their payloads.

        Returns:
            ``{"removed", "freed_bytes", "remaining_entries",
            "remaining_bytes"}``.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        files = self._payload_files()
        total = sum(size for _, size, _ in files)
        removed = 0
        freed = 0
        for payload_path, size, _ in files:
            if total <= max_bytes:
                break
            meta = payload_path.with_suffix(".json")
            try:
                payload_path.unlink()
            except OSError:
                continue
            if meta.is_file():
                try:
                    meta.unlink()
                except OSError:
                    pass
            removed += 1
            freed += size
            total -= size
        if removed:
            self._count("evictions", removed)
        return {
            "removed": removed,
            "freed_bytes": freed,
            "remaining_entries": len(files) - removed,
            "remaining_bytes": total,
        }
