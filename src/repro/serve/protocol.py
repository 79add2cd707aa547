"""Shared JSON-lines wire helpers for the serve plane.

Every serve socket (control server, remote workers) speaks the same framing:
one JSON object per ``\\n``-terminated line, with binary payloads (pickled
plans, resources, task results) carried as base64 strings under ``"blob"``
keys.  JSON carries the routing and bookkeeping; pickle carries the values —
the same split the event wire format uses
(:mod:`repro.runtime.events`), so every byte crossing a serve socket is
inspectable except the payloads that were never JSON to begin with.  Both
sockets listen on :class:`WakingTCPServer`.
"""

from __future__ import annotations

import base64
import json
import socket
import socketserver
import threading
from typing import Any, BinaryIO

#: Bump when the serve socket protocol changes incompatibly.
PROTOCOL_VERSION = 1


class ProtocolError(RuntimeError):
    """A peer sent something that is not a protocol line."""


class WakingTCPServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server whose accept loop sleeps until a connection.

    ``socketserver``'s ``serve_forever`` wakes every ``poll_interval`` to
    look for a shutdown request, so an idle server spends a wake-up per
    period and ``shutdown()`` waits for the next one.  Here the loop blocks
    in accept, and :meth:`shutdown` wakes it by connecting to the socket
    itself: an idle server does nothing, and stops at once.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._closing = False
        self._serving = False
        self._closed = threading.Event()

    def serve_forever(self, poll_interval: "float | None" = None) -> None:
        """Accept until :meth:`shutdown` (``poll_interval`` is unused)."""
        self._serving = True
        try:
            while not self._closing:
                self.handle_request()
        finally:
            self._closed.set()

    def verify_request(self, request: Any, client_address: Any) -> bool:
        return not self._closing  # drops the wake-up connection

    def shutdown(self) -> None:
        """Stop the accept loop and wait for it (a no-op if it never ran)."""
        self._closing = True
        while self._serving and not self._closed.is_set():
            try:
                socket.create_connection(self.server_address[:2], timeout=1.0).close()
            except OSError:
                pass  # retried until the loop has stopped
            self._closed.wait(1.0)


def send_line(wfile: BinaryIO, message: dict[str, Any]) -> None:
    """Write one protocol line and flush it."""
    wfile.write(json.dumps(message, sort_keys=True).encode("utf-8") + b"\n")
    wfile.flush()


def send_event_line(wfile: BinaryIO, seq: int, payload: str) -> None:
    """Write one journaled event as a ``{"event": ..., "seq": N}`` line.

    ``payload`` is the stored :meth:`~repro.runtime.events.Event.to_json`
    text, spliced in verbatim: it already has sorted keys, so the line is
    the one :func:`send_line` writes for the parsed event, without parsing
    and re-encoding the event's (possibly large) value.
    """
    wfile.write(b'{"event": %s, "seq": %d}\n' % (payload.encode("utf-8"), seq))
    wfile.flush()


def recv_line(rfile: BinaryIO) -> "dict[str, Any] | None":
    """Read one protocol line (``None`` on a cleanly closed peer)."""
    line = rfile.readline()
    if not line:
        return None
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed protocol line: {line[:120]!r}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(f"protocol line is not an object: {line[:120]!r}")
    return message


def encode_blob(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def decode_blob(text: str) -> bytes:
    return base64.b64decode(text)


def parse_address(address: "str | tuple | list") -> tuple[str, int]:
    """Normalize ``"host:port"`` / ``(host, port)`` to a connect tuple."""
    if isinstance(address, (tuple, list)) and len(address) == 2:
        return str(address[0]), int(address[1])
    if isinstance(address, str) and ":" in address:
        host, _, port = address.rpartition(":")
        return host, int(port)
    raise ValueError(f"expected 'host:port' or (host, port), got {address!r}")


def format_address(address: "str | tuple | list") -> str:
    host, port = parse_address(address)
    return f"{host}:{port}"


def is_loopback(host: str) -> bool:
    """Whether a bind host stays on this machine.

    The serve wire carries pickles, so servers and workers refuse to bind
    anything else without an auth token.  ``""``/``"0.0.0.0"``/``"::"``
    (all interfaces) are deliberately *not* loopback.
    """
    return host == "localhost" or host == "::1" or host.startswith("127.")
