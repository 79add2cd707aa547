"""Sharded fault-simulation scheduling over pluggable execution backends.

The engine separates *what* is computed (the compiled kernels of
:mod:`repro.engine.compile`) from *where* it runs.  A :class:`Backend` maps a
function over work items:

* ``serial`` — in-process, using the **interpreted legacy** simulators as the
  reference semantics (kept on purpose so the equivalence suite can hold the
  compiled kernels to identical results);
* ``compiled`` — in-process, compiled kernels, no sharding overhead (the
  default everywhere);
* ``processes`` — compiled kernels over fault shards on a
  ``ProcessPoolExecutor``.  Each worker unpickles the circuit model once (in
  the pool initializer), compiles it once, and then receives only
  ``(planes, fault shard, observation)`` tuples per round.

:class:`FaultSimScheduler` partitions a fault batch into contiguous shards,
fans the shards out through the backend and merges the detection masks back
in the original fault order — so fault dropping between rounds (done by the
calling simulator) is bit-identical regardless of backend or shard count.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
import weakref
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Protocol, Sequence

from repro.engine.compile import CompiledCircuit, compile_circuit
from repro.obs.telemetry import get_telemetry
from repro.faults.models import StuckAtFault, TransitionFault
from repro.simulation.model import CircuitModel
from repro.simulation.parallel_sim import PackedPatterns

#: Recognised execution backend names.
BACKENDS = ("serial", "compiled", "processes")

# --------------------------------------------------------------------------
# Pluggable backend registry
# --------------------------------------------------------------------------
#: Registered backend factories: ``name -> factory(max_workers, initializer,
#: initargs, options) -> Backend``.  The built-in names above never live
#: here — the registry exists so subsystems outside the engine (e.g. the
#: :mod:`repro.serve` remote-worker backend) can plug new execution planes
#: into the runtime :class:`~repro.runtime.Executor` without the engine
#: importing them.
_BACKEND_FACTORIES: dict[str, Callable] = {}


def register_backend(name: str, factory: Callable) -> Callable:
    """Register an executor backend factory under ``name``.

    The factory is called as ``factory(max_workers=..., initializer=...,
    initargs=..., options=...)`` and must return an object satisfying the
    :class:`Backend` protocol.  ``initializer``/``initargs`` follow the
    ``concurrent.futures`` contract (the runtime executor ships its plan
    resources through them exactly as it does for the processes pool);
    ``options`` is the executor's opaque ``backend_options`` mapping.

    Built-in names are reserved; re-registering a custom name replaces the
    previous factory (imports must stay idempotent).
    """
    if name in BACKENDS:
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


def default_worker_count() -> int:
    """Worker-pool size when the caller does not pin one."""
    return max(1, min(4, os.cpu_count() or 1))


def validate_pool_size(name: str, value: "int | None") -> "int | None":
    """Shared validation of pool-sizing knobs (``shards``, ``workers``, ...).

    Every place the knobs live — :class:`~repro.atpg.AtpgOptions`
    (``sim_shards``/``sim_workers``) and the runtime ``Executor`` — must
    reject nonsense with the same message, so degraded configurations fail
    loudly where they are set instead of hanging a pool.
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
    """Minimal execution surface the engine schedules onto.

    Two dispatch shapes: :meth:`map` is the classic bulk fan-out the fault
    scheduler shards over; :meth:`run_tasks` is the runtime executor's
    worker layer — results stream back through ``on_result`` as each task
    completes, and ``should_stop`` cancels not-yet-started tasks between
    completions (already-running tasks finish and are still reported).
    """

    name: str

    def map(self, fn: Callable, items: Sequence) -> list:
        """Apply ``fn`` to every item, preserving order."""
        ...

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


class SerialBackend:
    """Run everything inline on the calling thread."""

    name = "serial"

    def map(self, fn: Callable, items: Sequence) -> list:
        return [fn(item) for item in items]

    def run_tasks(
        self,
        fn: Callable,
        items: Sequence,
        on_result: "Callable[[int, object], None] | None" = None,
        should_stop: "Callable[[], bool] | None" = None,
    ) -> dict[int, object]:
        done: dict[int, object] = {}
        for index, item in enumerate(items):
            if should_stop is not None and should_stop():
                break
            done[index] = value = fn(item)
            if on_result is not None:
                on_result(index, value)
        return done

    def close(self) -> None:
        pass


class ThreadBackend:
    """Fan work items out over a shared thread pool."""

    name = "threads"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers or default_worker_count()
        self._pool: Executor | None = None

    def _executor(self) -> Executor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            _live_backends.add(self)
        return self._pool

    def map(self, fn: Callable, items: Sequence) -> list:
        if len(items) <= 1:
            return [fn(item) for item in items]
        return list(self._executor().map(fn, items))

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
    the fault-sim scheduler uses them to ship the pickled circuit model to
    every worker exactly once.
    """

    name = "processes"

    def __init__(
        self,
        max_workers: int | None = None,
        initializer: Callable | None = None,
        initargs: tuple = (),
    ) -> None:
        self.max_workers = max_workers or default_worker_count()
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

    def map(self, fn: Callable, items: Sequence) -> list:
        return list(self._executor().map(fn, items))

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
#: Weak: membership must not keep a dropped backend (and its pool) alive —
#: schedulers attach a GC finalizer that closes the pool instead.
_live_backends: "weakref.WeakSet" = weakref.WeakSet()


@atexit.register
def _shutdown_backends() -> None:  # pragma: no cover - interpreter teardown
    for backend in list(_live_backends):
        backend.close()


# --------------------------------------------------------------------------
# Process-worker plumbing (module level: must be picklable by reference)
# --------------------------------------------------------------------------
_WORKER_COMPILED: CompiledCircuit | None = None


def _fault_worker_init(model_payload: bytes) -> None:
    """Pool initializer: unpickle and compile the circuit once per worker."""
    global _WORKER_COMPILED
    _WORKER_COMPILED = compile_circuit(pickle.loads(model_payload))


def _fault_worker(task: tuple) -> list:
    """Run one fault shard through the batch kernel against shipped planes.

    ``kernel`` names the :class:`CompiledCircuit` batch method
    (``"detect_batch"`` or ``"syndrome_batch"``).
    """
    kernel, launch_planes, final_planes, faults, observation = task
    compiled = _WORKER_COMPILED
    assert compiled is not None, "worker pool initialized without a model"
    final = PackedPatterns(*final_planes)
    launch = PackedPatterns(*launch_planes) if launch_planes is not None else None
    return getattr(compiled, kernel)(final, faults, observation, launch)


def _fault_worker_timed(task: tuple) -> tuple[list, float]:
    """Telemetry variant: run one shard and report its measured wall.

    The masks are produced by the exact same worker, so results stay
    bit-identical; only the return envelope differs.
    """
    started = time.perf_counter()
    masks = _fault_worker(task)
    return masks, time.perf_counter() - started


def _transition_gate_serial(
    model: CircuitModel,
    fault: TransitionFault,
    launch: PackedPatterns,
    final: PackedPatterns,
) -> int:
    """Interpreted launch/settle gating mask of one transition fault."""
    from repro.simulation.parallel_sim import known_equal_mask

    site = fault.site
    site_node = site.node if site.pin is None else model.nodes[site.node].fanin[site.pin]
    launch_ok = known_equal_mask(launch, site_node, fault.kind.initial_value)
    if not launch_ok:
        return 0
    settle_ok = known_equal_mask(final, site_node, fault.kind.final_value)
    return launch_ok & settle_ok


def _syndrome_serial(
    model: CircuitModel,
    fault: StuckAtFault | TransitionFault,
    final: PackedPatterns,
    observation: Sequence[int],
    launch: PackedPatterns | None,
) -> list[int]:
    """Interpreted reference per-node syndromes (mirrors ``_detect_serial``)."""
    # Imported lazily: repro.fault_sim imports this module at load time.
    from repro.fault_sim.stuck_at import propagate_fault_nodes

    if isinstance(fault, TransitionFault):
        assert launch is not None, "transition syndromes need launch-frame planes"
        gate = _transition_gate_serial(model, fault, launch, final)
        if not gate:
            return [0] * len(observation)
        masks = propagate_fault_nodes(
            model, final, fault.capture_frame_stuck_at, observation
        )
        return [gate & mask for mask in masks]
    return propagate_fault_nodes(model, final, fault, observation)


def _detect_serial(
    model: CircuitModel,
    fault: StuckAtFault | TransitionFault,
    final: PackedPatterns,
    observation: Sequence[int],
    launch: PackedPatterns | None,
) -> int:
    """Interpreted reference detection (the pre-engine code path)."""
    # Imported lazily: repro.fault_sim imports this module at load time.
    from repro.fault_sim.stuck_at import propagate_fault_packed

    if isinstance(fault, TransitionFault):
        assert launch is not None, "transition detection needs launch-frame planes"
        gate = _transition_gate_serial(model, fault, launch, final)
        if not gate:
            return 0
        detect = propagate_fault_packed(
            model, final, fault.capture_frame_stuck_at, observation
        )
        return gate & detect
    return propagate_fault_packed(model, final, fault, observation)


def _shard(items: list, shard_count: int) -> list[list]:
    """Split into at most ``shard_count`` contiguous, near-equal shards."""
    shard_count = max(1, min(shard_count, len(items)))
    size, extra = divmod(len(items), shard_count)
    shards: list[list] = []
    start = 0
    for index in range(shard_count):
        end = start + size + (1 if index < extra else 0)
        shards.append(items[start:end])
        start = end
    return shards


class FaultSimScheduler:
    """Runs fault-detection batches for one circuit on a chosen backend.

    The scheduler owns the backend (and its worker pool, for
    ``processes``); reusing one scheduler across pattern batches amortizes
    pool start-up and the one-time model transfer.  Use as a context manager
    or call :meth:`close` when done — dropping the reference also works, the
    pools are shut down at interpreter exit.
    """

    #: Pooled backends only pay worker dispatch when a round carries at least
    #: this much work (``len(faults) * num_nodes``); smaller rounds — e.g.
    #: the late, heavily fault-dropped rounds of a batch — run in-process on
    #: the compiled kernels, where shipping the planes would cost more than
    #: the propagation itself.
    SPILL_THRESHOLD = 400_000

    def __init__(
        self,
        model: CircuitModel,
        backend: str = "compiled",
        shard_count: int | None = None,
        max_workers: int | None = None,
        spill_threshold: int | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown engine backend {backend!r} (expected one of {BACKENDS})"
            )
        self.model = model
        self.backend_name = backend
        self.max_workers = validate_pool_size("workers", max_workers) or default_worker_count()
        self.shard_count = validate_pool_size("shards", shard_count) or self.max_workers
        self.spill_threshold = (
            self.SPILL_THRESHOLD if spill_threshold is None else spill_threshold
        )
        self._compiled = compile_circuit(model) if backend != "serial" else None
        self._backend: Backend | None = None

    # ------------------------------------------------------------- lifecycle
    def _pool(self) -> Backend:
        if self._backend is None:
            if self.backend_name == "processes":
                self._backend = ProcessBackend(
                    self.max_workers,
                    initializer=_fault_worker_init,
                    initargs=(pickle.dumps(self.model),),
                )
            else:
                self._backend = SerialBackend()
            # Close the pool when this scheduler is garbage collected, so
            # dropping the reference (without close()) does not leak worker
            # processes.  The finalizer holds the backend, never ``self``.
            weakref.finalize(self, self._backend.close)
        return self._backend

    def close(self) -> None:
        if self._backend is not None:
            self._backend.close()
            self._backend = None

    def __enter__(self) -> "FaultSimScheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ good machine
    def simulate_good(self, packed: PackedPatterns) -> PackedPatterns:
        """Good-machine evaluation on the scheduler's semantics."""
        if self._compiled is not None:
            return self._compiled.simulate(packed)
        from repro.simulation.parallel_sim import simulate_packed

        return simulate_packed(self.model, packed)

    # --------------------------------------------------------------- detection
    def _run_batch(
        self,
        final: PackedPatterns,
        faults: Sequence[StuckAtFault | TransitionFault],
        observation: Sequence[int],
        launch: PackedPatterns | None,
        serial_fn: Callable,
        kernel: str,
    ) -> list:
        """Shared backend dispatch of one fault batch.

        One code path for detection masks and per-node syndromes: the
        serial/compiled in-process loops, the spill heuristic, the shard
        fan-out and the order-preserving merge are identical by construction,
        which is what keeps ``syndrome_batch`` bit-consistent with
        ``detect_batch`` on every backend and shard count.  ``kernel`` names
        the compiled batch method; a pooled shard runs the same method on its
        slice of the batch.
        """
        if not faults:
            return []
        name = self.backend_name
        telemetry = get_telemetry()
        if telemetry:
            # Plane ops == faults handed to the kernel this round, per backend.
            telemetry.metrics.inc(f"engine.plane_ops.{name}", len(faults))
        if name == "serial":
            model = self.model
            return [
                serial_fn(model, fault, final, observation, launch)
                for fault in faults
            ]
        compiled = self._compiled
        assert compiled is not None
        if name == "compiled" or len(faults) * self.model.num_nodes < self.spill_threshold:
            if telemetry and name != "compiled":
                # A pooled backend ran this round in-process: the round was
                # below the spill threshold (late, fault-dropped rounds).
                telemetry.metrics.inc("engine.inprocess_spills")
            return getattr(compiled, kernel)(final, faults, observation, launch)
        shards = _shard(list(faults), self.shard_count)
        if telemetry:
            telemetry.metrics.inc("engine.sharded_rounds")
        launch_planes = (
            (launch.num_patterns, launch.can0, launch.can1)
            if launch is not None
            else None
        )
        final_planes = (final.num_patterns, final.can0, final.can1)
        tasks = [
            (kernel, launch_planes, final_planes, shard, list(observation))
            for shard in shards
        ]
        if telemetry:
            dispatch = time.perf_counter()
            results = self._pool().map(_fault_worker_timed, tasks)
        else:
            results = self._pool().map(_fault_worker, tasks)
        merged: list = []
        if telemetry:
            # Same seam as the mask merge: shard spans land in shard order,
            # so the trace is as deterministic as the results.
            tracer = telemetry.tracer
            for index, (shard_masks, seconds) in enumerate(results):
                # Wall time measured in the worker, anchored at dispatch.
                tracer.record(f"shard:{index}", start=dispatch, duration=seconds,
                              backend=name, faults=len(shards[index]))
                merged.extend(shard_masks)
        else:
            for shard_masks in results:
                merged.extend(shard_masks)
        return merged

    def detect_batch(
        self,
        final: PackedPatterns,
        faults: Sequence[StuckAtFault | TransitionFault],
        observation: Sequence[int],
        launch: PackedPatterns | None = None,
    ) -> list[int]:
        """Detection masks for one pattern batch, aligned with ``faults``.

        Stuck-at faults are propagated through the ``final`` planes;
        transition faults are additionally gated on the ``launch`` planes.
        The caller merges masks and drops detected faults between rounds.
        """
        return self._run_batch(
            final, faults, observation, launch,
            _detect_serial, "detect_batch",
        )

    def syndrome_batch(
        self,
        final: PackedPatterns,
        faults: Sequence[StuckAtFault | TransitionFault],
        observation: Sequence[int],
        launch: PackedPatterns | None = None,
    ) -> list[list[int]]:
        """Per-fault, per-observation-node detection masks for one batch.

        The diagnosis counterpart of :meth:`detect_batch`: every fault's
        entry is aligned with ``observation`` and OR-ing it reproduces the
        ``detect_batch`` mask bit for bit; syndromes are identical across
        backends and shard counts.
        """
        return self._run_batch(
            final, faults, observation, launch,
            _syndrome_serial, "syndrome_batch",
        )
