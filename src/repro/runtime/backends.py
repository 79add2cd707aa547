"""Worker-pool backends of the runtime :class:`~repro.runtime.Executor`.

A :class:`Backend` runs a wave of independent tasks and streams their
results back as they complete.  Two pools are built in — ``threads``
(:class:`ThreadBackend`) and ``processes`` (:class:`ProcessBackend`) — and
subsystems outside the runtime plug in more through
:func:`register_backend` (e.g. the :mod:`repro.serve` ``remote`` backend),
without the runtime importing them.
"""

from __future__ import annotations

import atexit
import pickle
import weakref
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Protocol, Sequence

#: Built-in plan fan-out backends.  Backends registered via
#: :func:`register_backend` (e.g. the serve plane's ``remote``) are accepted
#: by the executor in addition to these.
EXECUTOR_BACKENDS = ("serial", "threads", "processes")

#: Registered backend factories: ``name -> factory(max_workers, initializer,
#: initargs, options) -> Backend``.  The built-in names never live here.
_BACKEND_FACTORIES: dict[str, Callable] = {}


def register_backend(name: str, factory: Callable) -> Callable:
    """Register an executor backend factory under ``name``.

    The factory is called as ``factory(max_workers=..., initializer=...,
    initargs=..., options=...)`` and must return an object satisfying the
    :class:`Backend` protocol.  ``initializer``/``initargs`` follow the
    ``concurrent.futures`` contract (the runtime executor ships its plan
    resources through them exactly as it does for the processes pool);
    ``options`` is the executor's opaque ``backend_options`` mapping.

    The :data:`EXECUTOR_BACKENDS` names are reserved, so a plugin can never
    silently replace a built-in pool; re-registering a custom name replaces
    the previous factory (imports must stay idempotent).
    """
    if name in EXECUTOR_BACKENDS:
        raise ValueError(f"backend name {name!r} is reserved for a built-in")
    if not name:
        raise ValueError("a backend needs a non-empty name")
    _BACKEND_FACTORIES[name] = factory
    return factory


def has_backend_factory(name: str) -> bool:
    return name in _BACKEND_FACTORIES


def backend_factory(name: str) -> Callable:
    try:
        return _BACKEND_FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"no backend factory registered for {name!r} "
            f"(registered: {sorted(_BACKEND_FACTORIES) or '<none>'})"
        ) from None


def validate_pool_size(name: str, value: "int | None") -> "int | None":
    """Validation of a pool-sizing knob (the executor's ``max_workers``).

    Nonsense fails loudly where it is set instead of hanging a pool.
    ``None`` (== "keep the default") passes through.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer (got {value!r})")
    return value


def is_result_transport_error(exc: BaseException) -> bool:
    """Did a process-pool exception come from shipping a result, not from
    the work itself?

    Unpicklable worker returns re-raise in the parent with their original
    type (often ``TypeError``), so the type alone cannot discriminate; the
    chained remote traceback does — transport failures originate in the
    pool's ``_sendback_result``.  Used by the runtime executor to decide
    whether a processes wave may spill back in-process (transport failures
    do; genuine job exceptions propagate unchanged).
    """
    if isinstance(exc, (pickle.PicklingError, BrokenProcessPool)):
        return True
    return "_sendback_result" in str(getattr(exc, "__cause__", ""))


class Backend(Protocol):
    """Execution surface the runtime executor dispatches waves onto.

    Results stream back through ``on_result`` as each task completes, and
    ``should_stop`` cancels not-yet-started tasks between completions
    (already-running tasks finish and are still reported).
    """

    name: str

    def run_tasks(
        self,
        fn: Callable,
        items: Sequence,
        on_result: "Callable[[int, object], None] | None" = None,
        should_stop: "Callable[[], bool] | None" = None,
    ) -> dict[int, object]:
        """Apply ``fn`` to every item, streaming ``(index, result)`` pairs.

        Returns the results of every task that completed, keyed by item
        index (tasks cancelled via ``should_stop`` are absent).  The first
        task exception aborts the remaining tasks and re-raises.
        """
        ...

    def close(self) -> None:
        """Release pooled resources (idempotent)."""
        ...


def _run_tasks_pooled(
    pool: Executor,
    fn: Callable,
    items: Sequence,
    on_result: "Callable[[int, object], None] | None",
    should_stop: "Callable[[], bool] | None",
) -> dict[int, object]:
    """Shared streaming dispatch for the pooled backends."""
    futures = {pool.submit(fn, item): index for index, item in enumerate(items)}
    done: dict[int, object] = {}
    failure: BaseException | None = None
    for future in as_completed(futures):
        if failure is None and should_stop is not None and should_stop():
            for pending in futures:
                pending.cancel()
        if future.cancelled():
            continue
        index = futures[future]
        try:
            value = future.result()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if failure is None:
                failure = exc
                # Tag the failing item's index so callers can attribute the
                # failure to the right task (best effort — some exception
                # types refuse new attributes).
                try:
                    failure.task_index = index
                except Exception:
                    pass
            for pending in futures:
                pending.cancel()
            continue
        if failure is None:
            done[index] = value
            if on_result is not None:
                on_result(index, value)
    if failure is not None:
        raise failure
    return done


class ThreadBackend:
    """Fan work items out over a shared thread pool."""

    name = "threads"

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max_workers
        self._pool: Executor | None = None

    def _executor(self) -> Executor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            _live_backends.add(self)
        return self._pool

    def run_tasks(
        self,
        fn: Callable,
        items: Sequence,
        on_result: "Callable[[int, object], None] | None" = None,
        should_stop: "Callable[[], bool] | None" = None,
    ) -> dict[int, object]:
        return _run_tasks_pooled(self._executor(), fn, items, on_result, should_stop)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            _live_backends.discard(self)


class ProcessBackend:
    """Fan work items out over a process pool.

    ``initializer``/``initargs`` follow the ``concurrent.futures`` contract;
    the executor uses them to ship the plan resources to every worker
    exactly once.
    """

    name = "processes"

    def __init__(
        self,
        max_workers: int,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ) -> None:
        self.max_workers = max_workers
        self._initializer = initializer
        self._initargs = initargs
        self._pool: Executor | None = None

    def _executor(self) -> Executor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=self._initializer,
                initargs=self._initargs,
            )
            _live_backends.add(self)
        return self._pool

    def run_tasks(
        self,
        fn: Callable,
        items: Sequence,
        on_result: "Callable[[int, object], None] | None" = None,
        should_stop: "Callable[[], bool] | None" = None,
    ) -> dict[int, object]:
        return _run_tasks_pooled(self._executor(), fn, items, on_result, should_stop)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            _live_backends.discard(self)


#: Backends with live pools, shut down at interpreter exit as a safety net.
#: Weak: membership must not keep a dropped backend (and its pool) alive.
_live_backends: "weakref.WeakSet" = weakref.WeakSet()


@atexit.register
def _shutdown_backends() -> None:  # pragma: no cover - interpreter teardown
    for backend in list(_live_backends):
        backend.close()
