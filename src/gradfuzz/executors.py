"""Target executors: in-process interpreter and the framed TCP protocol.

A remote serving process speaks the wire format from ``target_abi``: it
reads one config frame, checks its caps against its own limits (the one
place caps are checked), executes the target, and answers with one
result frame on the same connection.  A config it rejects is answered
with an error frame carrying the reason, and the connection is dropped.
From the engine's side only the communication medium differs; results
must be byte-identical to local execution.

An executor is a callable from a config to a well-formed result (see
``target_abi``: tag widths that sum to the bytes read, ``nbytes`` that
never fall along the trace).  Nothing checks the results of an executor
in the engine's process: the interpreter is well-formed by construction,
and a custom callable executor is trusted the same way.  Only a result
frame from a serving process is checked, by ``wire_decode``; a frame it
rejects is a ``TransportError`` ("malformed frame").

Each side of a connection keeps one previous trace: the trace of the
last result sent (server) or decoded (client) on it.  Result frames are
coded against it, so a frame carries only the records that changed.  It
starts empty when a connection opens; the client empties it whenever it
closes the connection, which every transport or decode error does.
"""
from __future__ import annotations

import socket
import socketserver
import struct
import threading
from typing import Optional

from .minivm import Program, VmLimits, execute
from .target_abi import (
    _CAPS,
    _MAX_PAYLOAD,
    KIND_CONFIG,
    DecodeError,
    ExecutionConfig,
    ExecutionResult,
    wire_decode,
    wire_encode,
)


class TransportError(Exception):
    """Connection or framing failure, distinct from target termination."""


class LocalExecutor:
    # callers of the old (program, limits) form still pass caps: ignored
    def __init__(self, program: Program, _limits: object = None):
        self.program = program

    def __call__(self, config: ExecutionConfig) -> ExecutionResult:
        return execute(self.program, config)

    def close(self) -> None:
        pass


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise TransportError("connection closed mid-frame")
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(sock: socket.socket) -> bytes:
    header = _recv_exact(sock, 5)
    (length,) = struct.unpack(">I", header[1:])
    if length > _MAX_PAYLOAD:
        raise TransportError("oversized frame")
    return header + _recv_exact(sock, length)


class RemoteExecutor:
    """Persistent connection issuing one config frame per execution."""

    def __init__(self, endpoint: "tuple[str, int] | str",
                 timeout: float = 30.0):
        host, port = (endpoint.rpartition(":")[::2]
                      if isinstance(endpoint, str) else endpoint)
        if not (str(port).isdigit() and 1 <= int(port) <= 65535):
            raise TransportError(f"bad endpoint {endpoint!r}: the port must "
                                 f"be an integer from 1 to 65535")
        self.endpoint = (host or "127.0.0.1", int(port))
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._previous: tuple = ()

    def _connect(self) -> socket.socket:
        if self._sock is None:
            try:
                self._sock = socket.create_connection(self.endpoint,
                                                      timeout=self.timeout)
            except OSError as exc:
                raise TransportError(f"cannot connect to "
                                     f"{self.endpoint}: {exc}") from exc
        return self._sock

    def __call__(self, config: ExecutionConfig) -> ExecutionResult:
        sock = self._connect()
        try:
            sock.sendall(wire_encode(config))
            message = wire_decode(_recv_frame(sock), self._previous)
        except (OSError, ValueError, TransportError) as exc:
            # ValueError: a cap the wire cannot carry, or a DecodeError
            self.close()
            if isinstance(exc, TransportError):
                raise
            if isinstance(exc, DecodeError):
                raise TransportError(f"malformed frame: {exc}") from exc
            raise TransportError(str(exc)) from exc
        if not isinstance(message, ExecutionResult):
            self.close()
            if isinstance(message, str):
                raise TransportError(f"server rejected the config: "
                                     f"{message}")
            raise TransportError("expected a result frame")
        self._previous = message.trace
        return message

    def close(self) -> None:
        self._previous = ()
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "RemoteExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TargetServer:
    """Threaded server executing configs against one parsed program."""

    def __init__(self, program: Program, limits: VmLimits,
                 host: str = "127.0.0.1", port: int = 0):
        self.program = program
        self.limits = limits
        outer = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self) -> None:
                previous: tuple = ()
                while True:
                    try:
                        frame = _recv_frame(self.request)
                    except TransportError:
                        return
                    if frame[0] != KIND_CONFIG:
                        return  # protocol violation: drop the connection
                    try:
                        config = wire_decode(frame)
                        for name in _CAPS:
                            cap = getattr(outer.limits, name)
                            if getattr(config, name) > cap:
                                raise ValueError(f"config {name} exceeds "
                                                 f"executor limit {cap}")
                        result = execute(outer.program, config)
                    except ValueError as exc:  # DecodeError among them
                        self.request.sendall(wire_encode(str(exc)))
                        return
                    self.request.sendall(wire_encode(result, previous))
                    previous = result.trace

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._server = Server((host, port), Handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> None:
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
