"""The fleet server: admit campaigns, hand points out, track workers.

A threaded TCP server runs each connection on its own thread, framing
with :func:`.protocol.read_frame` and :func:`.protocol.write_frame`;
one condition variable guards the shared
:class:`~.coordinator.FleetCoordinator` and wakes ``wait`` long-polls
when a job settles.  Connections handshake (see :mod:`.protocol`) and
then speak request/response frames.  A malformed frame gets an
``error`` frame, and a worker connection that drops — cleanly or not —
has its in-flight jobs requeued immediately, so a killed machine
delays its points by one round trip, never loses them.

The server is control-plane only.  It never ships traces or outcomes:
workers evaluate against the shared store root and publish through
the claim leases, which is also why the server can requeue a job it
is not sure about — the second evaluation is a cache hit or a benign
atomically-replaced duplicate, never a conflict.
"""

from __future__ import annotations

import contextlib
import math
import socket
import socketserver
import threading
from typing import BinaryIO

from .. import obs
from ..engine import CampaignSpec
from .coordinator import FleetCoordinator, SaturatedError
from .protocol import (
    PROTOCOL_VERSION,
    FleetProtocolError,
    read_frame,
    write_frame,
)

__all__ = ["FleetServer"]

#: Longest one ``wait`` round trip blocks server-side; clients loop.
_WAIT_SLICE_S = 30.0

#: What an idle worker is told to sleep before fetching again.
_IDLE_RETRY_S = 0.5

#: How often the accept loop checks for :meth:`FleetServer.close`
#: (socketserver's own default of 0.5 s would stall every shutdown).
_SHUTDOWN_POLL_S = 0.05


def _error(text: str) -> dict:
    return {"op": "error", "error": text}


class _Connection(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        self.server.fleet._converse(self.rfile, self.wfile)


class _Listener(socketserver.ThreadingTCPServer):
    # Rebind a just-closed port at once, and queue up to 100
    # connections that arrive together.
    allow_reuse_address = True
    request_queue_size = 100
    # A connection ends when its peer hangs up, not when the server
    # closes; the process does not wait for it either.
    daemon_threads = True

    def __init__(self, fleet: FleetServer, family: int, address) -> None:
        self.fleet = fleet
        self.address_family = family
        super().__init__(address, _Connection)


class FleetServer:
    """One listening fleet endpoint over one coordinator."""

    def __init__(
        self,
        coordinator: FleetCoordinator | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.coordinator = (
            coordinator if coordinator is not None else FleetCoordinator()
        )
        self._host = host
        self._port = port
        self._listener: _Listener | None = None
        self._serving = False
        #: guards the coordinator and ``_worker_seq``; notified when a
        #: job settles, the only step that can finish a campaign
        self._changed = threading.Condition()
        self._worker_seq = 0

    # -- lifecycle -------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._listener is None:
            return self._port
        return self._listener.server_address[1]

    def start(self) -> None:
        """Bind and listen; connections are accepted once serving."""
        # The host decides the address family (``::1`` needs AF_INET6).
        family, _, _, _, address = socket.getaddrinfo(
            self._host, self._port, type=socket.SOCK_STREAM
        )[0]
        self._listener = _Listener(self, family, address)
        obs.emit("fleet.listen", host=self._host, port=self.port)

    def serve_forever(self) -> None:
        """Accept connections until :meth:`close` is called elsewhere."""
        assert self._listener is not None, "call start() first"
        self._serving = True
        self._listener.serve_forever(poll_interval=_SHUTDOWN_POLL_S)

    def close(self) -> None:
        """Stop serving and release the port."""
        listener, self._listener = self._listener, None
        if listener is None:
            return
        if self._serving:
            listener.shutdown()
        listener.server_close()

    # -- the per-connection loop -----------------------------------------------
    def _converse(self, rfile: BinaryIO, wfile: BinaryIO) -> None:
        worker_id: str | None = None
        try:
            hello = read_frame(rfile)
            if hello is None:
                return
            if hello.get("op") != "hello":
                write_frame(wfile, _error("handshake must open with hello"))
                return
            if hello.get("proto") != PROTOCOL_VERSION:
                write_frame(
                    wfile,
                    _error(
                        f"unsupported protocol {hello.get('proto')!r}; "
                        f"this server speaks {PROTOCOL_VERSION}"
                    ),
                )
                return
            if hello.get("role") == "worker":
                with self._changed:
                    self._worker_seq += 1
                    worker_id = f"{hello.get('host', '?')}#{self._worker_seq}"
            write_frame(
                wfile,
                {"op": "welcome", "proto": PROTOCOL_VERSION, "server": obs.HOSTNAME},
            )
            while (message := read_frame(rfile)) is not None:
                write_frame(wfile, self._dispatch(message, worker_id))
        except FleetProtocolError as exc:
            with contextlib.suppress(OSError):
                write_frame(wfile, _error(str(exc)))
        except OSError:
            pass  # the peer vanished; its jobs are requeued below
        finally:
            if worker_id is not None:
                with self._changed:
                    recovered = self.coordinator.worker_lost(worker_id)
                if recovered:
                    obs.emit(
                        "fleet.worker_lost", worker=worker_id, requeued=recovered
                    )

    # -- ops -------------------------------------------------------------------
    def _dispatch(self, message: dict, worker_id: str | None) -> dict:
        op = message.get("op")
        if op == "ping":
            return {"op": "pong"}
        if op == "submit":
            return self._op_submit(message)
        if op == "wait":
            return self._op_wait(message)
        if op in ("fetch", "done", "fail") and worker_id is None:
            return _error(f"{op} requires role=worker")
        if op == "stats":
            with self._changed:
                return {"op": "stats", "stats": self.coordinator.stats()}
        if op == "status":
            with self._changed:
                status = self.coordinator.status(str(message.get("campaign")))
            if status is None:
                return _error("unknown campaign")
            return {"op": "campaign", **status}
        if op == "fetch":
            with self._changed:
                job = self.coordinator.next_job(worker_id)
            if job is None:
                return {"op": "idle", "retry_after": _IDLE_RETRY_S}
            obs.emit(
                "fleet.job",
                job=job["job_id"],
                worker=worker_id,
                campaign=job["campaign"][:8],
                index=job["index"],
            )
            return {"op": "job", **job}
        if op in ("done", "fail"):
            ok = op == "done"
            with self._changed:
                status = self.coordinator.complete(
                    str(message.get("job_id")),
                    ok=ok,
                    error=str(message.get("error", "")) or None,
                )
                self._changed.notify_all()
            obs.emit(
                "fleet.settle",
                job=str(message.get("job_id")),
                worker=worker_id,
                ok=ok,
            )
            return {"op": "ack", "known": status is not None}
        return _error(f"unknown op {op!r}")

    def _op_submit(self, message: dict) -> dict:
        try:
            spec = CampaignSpec.from_dict(message.get("spec"))
        except (KeyError, ValueError) as exc:
            return _error(str(exc))
        try:
            with self._changed:
                accepted = self.coordinator.submit(spec)
        except SaturatedError as exc:
            return {**_error(str(exc)), "saturated": True}
        obs.emit(
            "fleet.submit",
            campaign=accepted["campaign"][:8],
            points=accepted["points"],
            known=accepted["known"],
        )
        return {"op": "accepted", "backend": spec.backend, **accepted}

    def _op_wait(self, message: dict) -> dict:
        digest = str(message.get("campaign"))
        timeout = message.get("timeout", _WAIT_SLICE_S)
        if type(timeout) not in (int, float) or not math.isfinite(timeout):
            return _error(
                f"wait timeout must be a finite number of seconds, "
                f"not {timeout!r}"
            )

        def settled() -> bool:
            status = self.coordinator.status(digest)
            return status is None or status["state"] != "running"

        with self._changed:
            self._changed.wait_for(
                settled, timeout=min(max(timeout, 0.0), _WAIT_SLICE_S)
            )
            status = self.coordinator.status(digest)
        if status is None:
            return _error("unknown campaign")
        return {"op": "campaign", **status}
