"""Remote workers and the ``remote`` executor backend.

Two halves of one wire:

* :class:`ServeWorker` — a single-slot execution worker: a small TCP server
  that accepts **shipped wave tasks** (the exact payloads the runtime
  executor builds for its process pool — pickled ``(fn, item)`` pairs plus a
  once-per-pool initializer) and streams back results, emitting heartbeat
  lines while a long job runs so the caller's lease never lapses on live
  work.  Run in-process for tests, or as a standalone process via
  ``python -m repro.serve.worker --server host:port`` (it then registers
  itself with a :class:`~repro.serve.server.ServeServer` and re-registers
  periodically so the server's registry doubles as its liveness record).

* :class:`RemoteBackend` — a runtime
  :class:`~repro.runtime.backends.Backend` that fans those payloads out over
  registered workers.  It is registered as the ``"remote"`` executor backend
  (:func:`~repro.runtime.backends.register_backend`), so
  ``Executor(backend="remote", backend_options={"workers": [...]})`` is all
  it takes — the executor ships waves through it exactly as it ships them to
  the local process pool, which is what keeps remote results byte-identical
  to local ones.  One dispatcher thread per worker feeds tasks and relays
  completions to the calling thread (events stay on the caller, the
  executor's ordering contract); a worker that stops answering within its
  lease gets its in-flight task re-queued to the survivors, and when no
  worker is reachable at all the backend **falls back to local execution**
  rather than failing the plan.

.. warning:: **Trust boundary.**  A worker unpickles and *executes* every
   task blob a connected peer ships — the socket is arbitrary code execution
   by design.  Like the control plane (see :mod:`repro.serve.server`),
   workers refuse to bind a non-loopback interface without ``auth_token``,
   the deployment's shared secret; when set, every protocol line must carry
   it (``RemoteBackend`` forwards it via ``backend_options["token"]``).
"""

from __future__ import annotations

import argparse
import hashlib
import hmac
import pickle
import queue as queue_mod
import socket
import socketserver
import threading
import time
from typing import Any, Callable, Sequence

from repro.obs.telemetry import active_metrics
from repro.runtime.backends import register_backend
from repro.serve.protocol import (
    WakingTCPServer,
    decode_blob,
    encode_blob,
    format_address,
    is_loopback,
    parse_address,
    recv_line,
    send_line,
)

# --------------------------------------------------------------------------
# Worker-side execution (one task at a time, init memoised by digest)
# --------------------------------------------------------------------------
#: Serializes task execution in one worker process: a worker is a single
#: execution slot (parallelism == number of workers), and the lock is what
#: lets one worker serve interleaved runs with different resource payloads —
#: the initializer re-runs exactly when the active init digest changes.
_EXEC_LOCK = threading.Lock()
_ACTIVE_INIT: "str | None" = None


def _execute_task(init_digest: str, init_blob: bytes, task_blob: bytes) -> Any:
    """Run one shipped task, (re)running its pool initializer when needed."""
    global _ACTIVE_INIT
    with _EXEC_LOCK:
        if _ACTIVE_INIT != init_digest:
            initializer, initargs = pickle.loads(init_blob)
            if initializer is not None:
                initializer(*initargs)
            _ACTIVE_INIT = init_digest
        fn, item = pickle.loads(task_blob)
        return fn(item)


class _WorkerHandler(socketserver.StreamRequestHandler):
    """One caller connection: ``init`` once, then ``task`` round trips."""

    def handle(self) -> None:  # noqa: D102 - socketserver entry point
        init_digest: "str | None" = None
        init_blob = b""
        reply_lock = threading.Lock()

        def reply(message: dict[str, Any]) -> None:
            with reply_lock:
                send_line(self.wfile, message)

        token = getattr(self.server, "auth_token", None)
        while True:
            try:
                message = recv_line(self.rfile)
            except (OSError, ValueError):
                return
            if message is None:
                return
            if token is not None and not hmac.compare_digest(
                str(message.get("token") or ""), token
            ):
                reply({"op": "error", "transport": True,
                       "message": "authentication failed"})
                return
            op = message.get("op")
            if op == "init":
                init_blob = decode_blob(message["blob"])
                init_digest = hashlib.sha256(init_blob).hexdigest()
                reply({"op": "ready"})
            elif op == "ping":
                reply({"op": "pong"})
            elif op == "task":
                if init_digest is None:
                    reply({"op": "error", "index": message.get("index"),
                           "transport": True, "message": "task before init"})
                    continue
                self._run_task(message, init_digest, init_blob, reply)
            elif op == "close":
                return
            else:
                reply({"op": "error", "transport": True,
                       "message": f"unknown op {op!r}"})

    def _run_task(
        self,
        message: dict[str, Any],
        init_digest: str,
        init_blob: bytes,
        reply: Callable[[dict[str, Any]], None],
    ) -> None:
        index = message.get("index", 0)
        box: dict[str, Any] = {}
        done = threading.Event()

        def work() -> None:
            try:
                box["value"] = _execute_task(
                    init_digest, init_blob, decode_blob(message["blob"])
                )
            except BaseException as exc:  # noqa: BLE001 - shipped to the caller
                box["error"] = exc
            finally:
                done.set()

        thread = threading.Thread(target=work, daemon=True)
        thread.start()
        # Heartbeats while the job runs: each line resets the caller's lease
        # window, so a slow ATPG job outlives any lease — only a dead worker
        # goes silent long enough to be requeued.
        interval = getattr(self.server, "heartbeat_seconds", 5.0)
        while not done.wait(interval):
            reply({"op": "heartbeat", "index": index})
        if "error" in box:
            exc = box["error"]
            try:
                blob = encode_blob(pickle.dumps(exc))
            except Exception:  # noqa: BLE001 - unpicklable exceptions degrade
                blob = None
            reply({"op": "error", "index": index, "blob": blob,
                   "transport": False, "message": f"{type(exc).__name__}: {exc}"})
            return
        try:
            blob = encode_blob(pickle.dumps(box["value"]))
        except Exception as exc:  # noqa: BLE001 - the transport-failure case
            reply({"op": "error", "index": index, "blob": None,
                   "transport": True,
                   "message": f"task result is not picklable ({exc})"})
            return
        reply({"op": "result", "index": index, "blob": blob})


class ServeWorker:
    """One remote execution slot, optionally registered with a serve server.

    Args:
        host/port: Listen address (port 0 == ephemeral, read it back from
            :attr:`address`).
        server_address: A :class:`~repro.serve.server.ServeServer` control
            address to register with; the worker re-registers every
            ``register_seconds`` so the server can expire dead workers.
        heartbeat_seconds: Interval of in-task heartbeat lines.
        auth_token: The deployment's shared secret — required on every
            protocol line when set, and **mandatory for non-loopback
            binds** (a worker socket executes what it is shipped; see the
            module docstring).  Also sent when registering with the server.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        server_address: "str | tuple | None" = None,
        heartbeat_seconds: float = 5.0,
        register_seconds: float = 2.0,
        auth_token: "str | None" = None,
    ) -> None:
        if auth_token is None and not is_loopback(host):
            raise ValueError(
                f"refusing to bind serve worker on {host!r} without "
                "auth_token: a worker executes every task blob it is "
                "shipped (arbitrary code execution for any reachable peer)"
            )
        self.auth_token = auth_token
        self._tcp = WakingTCPServer((host, port), _WorkerHandler)
        self._tcp.heartbeat_seconds = heartbeat_seconds
        self._tcp.auth_token = auth_token
        self.server_address = (
            parse_address(server_address) if server_address is not None else None
        )
        self.register_seconds = register_seconds
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address[0], self._tcp.server_address[1]

    def start(self) -> "ServeWorker":
        serve = threading.Thread(target=self._tcp.serve_forever, daemon=True)
        serve.start()
        self._threads.append(serve)
        if self.server_address is not None:
            beat = threading.Thread(target=self._register_loop, daemon=True)
            beat.start()
            self._threads.append(beat)
        return self

    def stop(self) -> None:
        self._stop.set()
        self._tcp.shutdown()
        self._tcp.server_close()
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads.clear()

    def _register_once(self) -> bool:
        assert self.server_address is not None
        try:
            with socket.create_connection(self.server_address, timeout=2.0) as sock:
                wfile = sock.makefile("wb")
                rfile = sock.makefile("rb")
                message = {"op": "register_worker",
                           "address": format_address(self.address)}
                if self.auth_token is not None:
                    message["token"] = self.auth_token
                send_line(wfile, message)
                reply = recv_line(rfile)
                return bool(reply and reply.get("ok"))
        except OSError:
            return False

    def _register_loop(self) -> None:
        while not self._stop.is_set():
            self._register_once()
            self._stop.wait(self.register_seconds)


# --------------------------------------------------------------------------
# The remote backend (executor side)
# --------------------------------------------------------------------------
class _RemoteTaskError(Exception):
    """Internal: a worker reported a genuine task exception."""

    def __init__(self, exception: BaseException) -> None:
        super().__init__(str(exception))
        self.exception = exception


class RemoteBackend:
    """Executor backend fanning shipped tasks out over remote workers.

    Constructed by the executor through the registered ``"remote"`` factory:
    ``initializer``/``initargs`` follow the ``concurrent.futures`` contract
    (shipped once per worker connection, exactly like the process pool's
    once-per-worker resource transfer) and ``options`` carries:

    * ``workers`` — worker addresses (``"host:port"`` or tuples); required
      for remote execution, empty means immediate local fallback;
    * ``lease_seconds`` — silence tolerated from a busy worker before its
      in-flight task is requeued (heartbeats reset the window; default 30);
    * ``connect_timeout`` — per-worker connect budget (default 2s);
    * ``fallback`` — run remaining tasks locally when no worker is
      reachable (default True; ``False`` raises instead);
    * ``token`` — the deployment's shared secret, stamped on every line
      sent to a worker (required by workers started with ``auth_token``).
    """

    name = "remote"

    def __init__(
        self,
        max_workers: "int | None" = None,
        initializer: "Callable | None" = None,
        initargs: tuple = (),
        options: "dict[str, Any] | None" = None,
    ) -> None:
        options = dict(options or {})
        self.workers = [parse_address(a) for a in options.get("workers") or []]
        self.lease_seconds = float(options.get("lease_seconds", 30.0))
        self.connect_timeout = float(options.get("connect_timeout", 2.0))
        self.fallback = bool(options.get("fallback", True))
        self.token = options.get("token") or None
        self.max_workers = max_workers
        self._initializer = initializer
        self._initargs = initargs
        self._init_blob = pickle.dumps((initializer, initargs))
        self._init_digest = hashlib.sha256(self._init_blob).hexdigest()
        self._local_init_done = False

    # ------------------------------------------------------------- protocol
    def close(self) -> None:
        """Connections are per ``run_tasks`` call; nothing pooled to release."""

    # ------------------------------------------------------------- dispatch
    def _stamp(self, message: dict[str, Any]) -> dict[str, Any]:
        if self.token is not None:
            message["token"] = self.token
        return message

    def _connect(self, address: tuple[str, int]):
        sock = socket.create_connection(address, timeout=self.connect_timeout)
        sock.settimeout(self.lease_seconds)
        wfile = sock.makefile("wb")
        rfile = sock.makefile("rb")
        send_line(wfile, self._stamp({"op": "init",
                                      "blob": encode_blob(self._init_blob)}))
        reply = recv_line(rfile)
        if not reply or reply.get("op") != "ready":
            raise OSError(f"worker {format_address(address)} refused init")
        return sock, wfile, rfile

    @staticmethod
    def _await_result(rfile) -> dict[str, Any]:
        """Read until a result/error line; heartbeats reset the lease window.

        Each ``readline`` enjoys a fresh socket-timeout window, so a worker
        that heartbeats stays leased indefinitely while a silent (dead) one
        times out and gets its task requeued by the dispatcher.
        """
        while True:
            reply = recv_line(rfile)
            if reply is None:
                raise OSError("worker connection closed mid-task")
            if reply.get("op") == "heartbeat":
                continue
            return reply

    def _roundtrip(self, wfile, rfile, index: int, payload: bytes) -> Any:
        send_line(wfile, self._stamp({"op": "task", "index": index,
                                      "blob": encode_blob(payload)}))
        reply = self._await_result(rfile)
        op = reply.get("op")
        if op == "result":
            return pickle.loads(decode_blob(reply["blob"]))
        if op == "error":
            if reply.get("transport"):
                # Same failure class as an unpicklable process-pool return:
                # raise it in transport costume so the executor's spill
                # machinery recognises it.
                raise _RemoteTaskError(
                    pickle.PicklingError(str(reply.get("message")))
                )
            blob = reply.get("blob")
            exc: "BaseException | None" = None
            if blob:
                try:
                    loaded = pickle.loads(decode_blob(blob))
                except Exception:  # noqa: BLE001 - corrupt exception pickle
                    loaded = None
                if isinstance(loaded, BaseException):
                    exc = loaded
            raise _RemoteTaskError(
                exc if exc is not None else RuntimeError(str(reply.get("message")))
            )
        raise OSError(f"unexpected worker reply {op!r}")

    def run_tasks(
        self,
        fn: Callable,
        items: Sequence,
        on_result: "Callable[[int, object], None] | None" = None,
        should_stop: "Callable[[], bool] | None" = None,
    ) -> dict[int, object]:
        items = list(items)
        if not items:
            return {}
        addresses = self.workers
        if self.max_workers:
            addresses = addresses[: self.max_workers]
        pending: "list[tuple[int, Any]]" = [
            (index, pickle.dumps((fn, item))) for index, item in enumerate(items)
        ]
        lock = threading.Lock()
        inbox: "queue_mod.SimpleQueue" = queue_mod.SimpleQueue()
        stop_flag = threading.Event()

        def dispatcher(address: tuple[str, int]) -> None:
            try:
                try:
                    sock, wfile, rfile = self._connect(address)
                except OSError:
                    return
                try:
                    while not stop_flag.is_set():
                        with lock:
                            if not pending:
                                return
                            index, payload = pending.pop(0)
                        try:
                            value = self._roundtrip(wfile, rfile, index, payload)
                        except _RemoteTaskError as err:
                            inbox.put(("err", index, err.exception))
                            continue
                        except (OSError, ValueError, EOFError):
                            # Worker lost (lease lapsed, connection died):
                            # requeue the shard for the survivors and retire
                            # this dispatcher.
                            with lock:
                                pending.insert(0, (index, payload))
                            metrics = active_metrics()
                            if metrics is not None:
                                metrics.inc("serve.remote_requeues")
                            return
                        inbox.put(("ok", index, value))
                finally:
                    try:
                        send_line(wfile, self._stamp({"op": "close"}))
                    except OSError:
                        pass
                    sock.close()
            finally:
                inbox.put(("exit", address, None))

        threads = [
            threading.Thread(target=dispatcher, args=(address,), daemon=True)
            for address in addresses
        ]
        for thread in threads:
            thread.start()

        done: dict[int, object] = {}
        failure: "BaseException | None" = None
        alive = len(threads)
        while alive:
            kind, a, b = inbox.get()
            if kind == "exit":
                alive -= 1
            elif kind == "ok":
                if failure is None:
                    done[a] = b
                    if on_result is not None:
                        on_result(a, b)
                    if should_stop is not None and should_stop():
                        stop_flag.set()
                        with lock:
                            pending.clear()
            elif kind == "err" and failure is None:
                failure = b
                try:
                    failure.task_index = a
                except Exception:  # noqa: BLE001 - some types refuse attrs
                    pass
                stop_flag.set()
                with lock:
                    pending.clear()
        if failure is not None:
            raise failure

        # Local fallback: tasks no reachable worker took (none configured,
        # none reachable, or every dispatcher died mid-run).
        if pending and not stop_flag.is_set():
            if not self.fallback:
                raise ConnectionError(
                    f"no remote worker reachable for {len(pending)} task(s) "
                    f"(workers: {[format_address(a) for a in self.workers] or '<none>'})"
                )
            metrics = active_metrics()
            if metrics is not None:
                metrics.inc("serve.local_fallbacks")
            if not self._local_init_done and self._initializer is not None:
                self._initializer(*self._initargs)
                self._local_init_done = True
            while pending:
                if should_stop is not None and should_stop():
                    break
                index, payload = pending.pop(0)
                local_fn, item = pickle.loads(payload)
                done[index] = value = local_fn(item)
                if on_result is not None:
                    on_result(index, value)
        return done


#: ``Executor(backend="remote", backend_options={...})`` works as soon as
#: this module is imported (idempotent — re-import re-registers the same
#: factory).
register_backend("remote", RemoteBackend)


# --------------------------------------------------------------------------
# Standalone worker process
# --------------------------------------------------------------------------
def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one repro.serve execution worker."
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--server", default=None,
        help="ServeServer control address (host:port) to register with",
    )
    parser.add_argument("--heartbeat", type=float, default=5.0)
    parser.add_argument(
        "--token", default=None,
        help="deployment shared secret (required for non-loopback --host)",
    )
    args = parser.parse_args(argv)
    worker = ServeWorker(
        args.host, args.port,
        server_address=args.server, heartbeat_seconds=args.heartbeat,
        auth_token=args.token,
    ).start()
    print(f"serve-worker listening on {format_address(worker.address)}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        worker.stop()
    return 0


if __name__ == "__main__":  # pragma: no cover - process entry point
    raise SystemExit(main())
