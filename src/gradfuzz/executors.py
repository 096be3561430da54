"""Target executors: in-process interpreter and the framed TCP protocol.

A remote serving process speaks the wire format from ``target_abi``: it
reads one config frame, validates it against its own limits, executes the
target, and answers with one result frame on the same connection.  From
the engine's side only the communication medium differs; results must be
byte-identical to local execution.
"""
from __future__ import annotations

import socket
import socketserver
import struct
import threading
from typing import Optional

from .minivm import Program, VmLimits, execute
from .target_abi import (
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
    def __init__(self, program: Program, limits: VmLimits):
        self.program = program
        self.limits = limits

    def __call__(self, config: ExecutionConfig) -> ExecutionResult:
        return execute(self.program, config, self.limits)

    def scaled(self, trace: int, stack: int, input: int,
               steps: int) -> "LocalExecutor":
        return LocalExecutor(self.program,
                             self.limits.scaled(trace, stack, input, steps))

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
    if length > (1 << 28):
        raise TransportError("oversized frame")
    return header + _recv_exact(sock, length)


class RemoteExecutor:
    """Persistent connection issuing one config frame per execution."""

    def __init__(self, endpoint: "tuple[str, int] | str",
                 timeout: float = 30.0):
        if isinstance(endpoint, str):
            host, _, port = endpoint.rpartition(":")
            endpoint = (host or "127.0.0.1", int(port))
        self.endpoint = endpoint
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None

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
            frame = _recv_frame(sock)
        except (OSError, TransportError) as exc:
            self.close()
            if isinstance(exc, TransportError):
                raise
            raise TransportError(str(exc)) from exc
        try:
            message = wire_decode(frame)
        except DecodeError as exc:
            self.close()
            raise TransportError(f"malformed frame: {exc}") from exc
        if not isinstance(message, ExecutionResult):
            self.close()
            raise TransportError("expected a result frame")
        return message

    def scaled(self, trace: int, stack: int, input: int,
               steps: int) -> "RemoteExecutor":
        # configs carry the scaled caps; the step budget is the server's own
        return self

    def close(self) -> None:
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
                while True:
                    try:
                        frame = _recv_frame(self.request)
                    except TransportError:
                        return
                    if frame[0] != KIND_CONFIG:
                        return  # protocol violation: drop the connection
                    try:
                        config = wire_decode(frame)
                        result = execute(outer.program, config, outer.limits)
                    except (DecodeError, ValueError):
                        return  # rejected config surfaces as a dropped link
                    self.request.sendall(wire_encode(result))

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
