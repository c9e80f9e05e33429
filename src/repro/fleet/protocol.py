"""Fleet wire protocol: framed JSON messages over a byte stream.

Frame format (both directions, every message)::

    <length>\\n<body>\\n

``length`` is the body's byte count in ASCII decimal, ``body`` is one
UTF-8 JSON object.  The explicit length makes framing independent of
the body's content (a JSON string may contain anything), the trailing
newline keeps captures greppable and lets a human drive the protocol
with ``nc``.  Frames above :data:`MAX_FRAME_BYTES` are refused before
allocation — a garbage header cannot balloon the peer.

Every message carries an ``op`` field.  Connections open with a
versioned handshake: the initiator sends ``hello`` naming its
:data:`PROTOCOL_VERSION` and role, the server answers ``welcome`` (or
a terminal ``error`` when the version is unsupported — the number is
bumped on any incompatible change, so mismatched builds fail in the
first round trip instead of corrupting a campaign later).

:func:`read_frame` and :func:`write_frame` are the one frame codec:
the server's connection threads and every client frame through them.
:class:`FleetClient` is the synchronous side used by workers and the
CLI: one request/response at a time, with bounded reconnect-and-retry
(exponential backoff) around connection failures.  Requests are safe
to retry because the protocol is idempotent by design — submitting a
known campaign re-acks it, re-finishing a job re-acks it, and the
store's claim leases make a re-handed evaluation a cache hit.
"""

from __future__ import annotations

import json
import socket
import time
from typing import BinaryIO

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "FleetClient",
    "FleetError",
    "FleetProtocolError",
    "parse_address",
    "read_frame",
    "write_frame",
]

#: Wire protocol version; bumped on any incompatible change.  The
#: handshake rejects mismatches up front.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's body.  Campaign specs are the largest
#: legitimate payload (a few KiB); 8 MiB leaves two orders of margin
#: while keeping a corrupt length header harmless.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: :class:`FleetClient`'s socket timeout, in seconds.
_TIMEOUT_S = 30.0

#: Reconnect attempts per request, with exponential backoff between
#: them: 0.2 s, doubling, capped at 5 s.
_RETRIES = 5
_BACKOFF_S = 0.2
_MAX_BACKOFF_S = 5.0


class FleetError(RuntimeError):
    """The peer answered with a structured ``error`` message."""


class FleetProtocolError(RuntimeError):
    """The byte stream violated the framing or handshake rules."""


def parse_address(address: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)`` (IPv6 hosts in brackets)."""
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"address {address!r} is not HOST:PORT (e.g. 127.0.0.1:7341)"
        )
    host = host.strip("[]")
    if not host:
        raise ValueError(f"address {address!r} has an empty host")
    return host, int(port)


# ---------------------------------------------------------------------------
# framing (blocking binary streams)
# ---------------------------------------------------------------------------


def write_frame(stream: BinaryIO, message: dict) -> None:
    """Serialise one message onto a binary stream and flush it."""
    body = json.dumps(message, separators=(",", ":")).encode()
    if len(body) > MAX_FRAME_BYTES:
        raise FleetProtocolError(
            f"outgoing frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte bound"
        )
    stream.write(b"%d\n%s\n" % (len(body), body))
    stream.flush()


def read_frame(stream: BinaryIO) -> dict | None:
    """Read one message; ``None`` on clean EOF before a header."""
    header = stream.readline(32)
    if not header:
        return None
    if not header.endswith(b"\n"):
        raise FleetProtocolError(f"unterminated frame header {header!r}")
    try:
        length = int(header)
    except ValueError:
        raise FleetProtocolError(f"bad frame header {header!r}") from None
    if length < 0 or length > MAX_FRAME_BYTES:
        raise FleetProtocolError(f"frame length {length} out of bounds")
    body = stream.read(length + 1)
    if len(body) != length + 1 or body[-1:] != b"\n":
        raise FleetProtocolError("truncated frame body")
    try:
        message = json.loads(body[:-1])
    except ValueError as exc:
        raise FleetProtocolError(f"frame body is not JSON: {exc}") from None
    if not isinstance(message, dict) or "op" not in message:
        raise FleetProtocolError("frame is not an {'op': ...} object")
    return message


# ---------------------------------------------------------------------------
# the synchronous client
# ---------------------------------------------------------------------------


class FleetClient:
    """One synchronous fleet connection with reconnect-and-retry.

    ``request`` sends one message and returns the reply.  Connection
    failures (refused, reset, timed out) are retried up to five times
    with exponential backoff capped at 5 s — this is what lets a
    worker start before its server, or ride out a server restart,
    without wrapper scripts.  A structured ``error`` reply is
    *not* retried: it raises :class:`FleetError` carrying the server's
    message (the server stayed up and said no).
    """

    def __init__(
        self,
        address: str | tuple[str, int],
        *,
        role: str = "client",
    ) -> None:
        self.address = (
            parse_address(address) if isinstance(address, str) else address
        )
        self.role = role
        self._sock: socket.socket | None = None
        self._stream: BinaryIO | None = None
        self.server_host: str | None = None

    # -- connection lifecycle --------------------------------------------------
    def connect(self) -> None:
        """Dial and complete the handshake (no-op when connected)."""
        if self._stream is not None:
            return
        from ..obs import HOSTNAME

        sock = socket.create_connection(self.address, timeout=_TIMEOUT_S)
        try:
            stream = sock.makefile("rwb")
            write_frame(
                stream,
                {
                    "op": "hello",
                    "proto": PROTOCOL_VERSION,
                    "role": self.role,
                    "host": HOSTNAME,
                },
            )
            reply = read_frame(stream)
            if reply is None:
                raise FleetProtocolError("server closed during handshake")
            if reply.get("op") == "error":
                raise FleetError(str(reply.get("error", "handshake refused")))
            if reply.get("op") != "welcome":
                raise FleetProtocolError(
                    f"expected welcome, got {reply.get('op')!r}"
                )
            if reply.get("proto") != PROTOCOL_VERSION:
                raise FleetError(
                    f"server speaks protocol {reply.get('proto')!r}, "
                    f"this client speaks {PROTOCOL_VERSION}"
                )
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._stream = stream
        self.server_host = str(reply.get("server", ""))

    def close(self) -> None:
        stream, self._stream = self._stream, None
        sock, self._sock = self._sock, None
        for closable in (stream, sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:
                    pass

    def __enter__(self) -> "FleetClient":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- requests --------------------------------------------------------------
    def request(self, message: dict) -> dict:
        """One round trip; reconnects and retries on connection loss."""
        attempt = 0
        while True:
            try:
                self.connect()
                assert self._stream is not None
                write_frame(self._stream, message)
                reply = read_frame(self._stream)
                if reply is None:
                    raise FleetProtocolError("server closed mid-request")
            except (OSError, FleetProtocolError):
                # The stream is in an unknown state: drop it, back off,
                # redial.  FleetError (a live server's refusal) is
                # deliberately not in this tuple.
                self.close()
                attempt += 1
                if attempt > _RETRIES:
                    raise
                time.sleep(
                    min(_BACKOFF_S * 2 ** (attempt - 1), _MAX_BACKOFF_S)
                )
                continue
            if reply.get("op") == "error":
                raise FleetError(str(reply.get("error", "request refused")))
            return reply
