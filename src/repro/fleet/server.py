"""The fleet server: admit campaigns, hand points out, track workers.

One asyncio server owns one :class:`~.coordinator.FleetCoordinator`.
Connections handshake (see :mod:`.protocol`) and then speak request/
response frames; a connection that identified as a worker and drops —
cleanly or not — has its in-flight jobs requeued immediately, so a
killed machine delays its points by one round trip, never loses them.

The server is control-plane only.  It never ships traces or outcomes:
workers evaluate against the shared store root and publish through
the claim leases, which is also why the server can requeue a job it
is not sure about — the second evaluation is a cache hit or a benign
atomically-replaced duplicate, never a conflict.
"""

from __future__ import annotations

import asyncio
import json

from .. import obs
from ..engine import CampaignSpec
from .coordinator import FleetCoordinator, SaturatedError
from .protocol import MAX_FRAME_BYTES, PROTOCOL_VERSION, FleetProtocolError
from .schema import validate_campaign

__all__ = ["FleetServer"]

#: Longest one ``wait`` round trip blocks server-side; clients loop.
_WAIT_SLICE_S = 30.0

#: What an idle worker is told to sleep before fetching again.
_IDLE_RETRY_S = 0.5


async def _read_frame(reader: asyncio.StreamReader) -> dict | None:
    """Asyncio twin of :func:`repro.fleet.protocol.read_frame`."""
    try:
        header = await reader.readline()
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    if not header:
        return None
    try:
        length = int(header)
    except ValueError:
        raise FleetProtocolError(f"bad frame header {header!r}") from None
    if length < 0 or length > MAX_FRAME_BYTES:
        raise FleetProtocolError(f"frame length {length} out of bounds")
    try:
        body = await reader.readexactly(length + 1)
    except (asyncio.IncompleteReadError, ConnectionError):
        raise FleetProtocolError("truncated frame body") from None
    try:
        message = json.loads(body[:-1])
    except ValueError as exc:
        raise FleetProtocolError(f"frame body is not JSON: {exc}") from None
    if not isinstance(message, dict) or "op" not in message:
        raise FleetProtocolError("frame is not an {'op': ...} object")
    return message


async def _write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    body = json.dumps(message, separators=(",", ":")).encode()
    writer.write(b"%d\n%s\n" % (len(body), body))
    await writer.drain()


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
        self._server: asyncio.base_events.Server | None = None
        self._changed: asyncio.Condition | None = None
        self._worker_seq = 0

    # -- lifecycle -------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is None:
            return self._port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._changed = asyncio.Condition()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )
        obs.emit("fleet.listen", host=self._host, port=self.port)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- the per-connection loop -----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        worker_id: str | None = None
        try:
            hello = await _read_frame(reader)
            if hello is None:
                return
            if hello.get("op") != "hello":
                await _write_frame(
                    writer,
                    {"op": "error", "error": "handshake must open with hello"},
                )
                return
            if hello.get("proto") != PROTOCOL_VERSION:
                await _write_frame(
                    writer,
                    {
                        "op": "error",
                        "error": (
                            f"unsupported protocol {hello.get('proto')!r}; "
                            f"this server speaks {PROTOCOL_VERSION}"
                        ),
                    },
                )
                return
            if hello.get("role") == "worker":
                self._worker_seq += 1
                worker_id = f"{hello.get('host', '?')}#{self._worker_seq}"
            await _write_frame(
                writer,
                {
                    "op": "welcome",
                    "proto": PROTOCOL_VERSION,
                    "server": obs.HOSTNAME,
                },
            )
            while True:
                message = await _read_frame(reader)
                if message is None:
                    return
                reply = await self._dispatch(message, worker_id)
                await _write_frame(writer, reply)
        except FleetProtocolError as exc:
            with_suppressed_send = {"op": "error", "error": str(exc)}
            try:
                await _write_frame(writer, with_suppressed_send)
            except (OSError, ConnectionError):
                pass
        except (OSError, ConnectionError, asyncio.CancelledError):
            raise
        finally:
            if worker_id is not None:
                recovered = self.coordinator.worker_lost(worker_id)
                if recovered:
                    obs.emit(
                        "fleet.worker_lost",
                        worker=worker_id,
                        requeued=recovered,
                    )
                    await self._notify()
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _notify(self) -> None:
        assert self._changed is not None
        async with self._changed:
            self._changed.notify_all()

    # -- ops -------------------------------------------------------------------
    async def _dispatch(
        self, message: dict, worker_id: str | None
    ) -> dict:
        op = message.get("op")
        if op == "ping":
            return {"op": "pong"}
        if op == "stats":
            return {"op": "stats", "stats": self.coordinator.stats()}
        if op == "submit":
            return await self._op_submit(message)
        if op == "status":
            status = self.coordinator.status(str(message.get("campaign")))
            if status is None:
                return {"op": "error", "error": "unknown campaign"}
            return {"op": "campaign", **status}
        if op == "wait":
            return await self._op_wait(message)
        if op == "fetch":
            if worker_id is None:
                return {"op": "error", "error": "fetch requires role=worker"}
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
            if worker_id is None:
                return {"op": "error", "error": f"{op} requires role=worker"}
            ok = op == "done"
            status = self.coordinator.complete(
                str(message.get("job_id")),
                ok=ok,
                error=str(message.get("error", "")) or None,
            )
            obs.emit(
                "fleet.settle",
                job=str(message.get("job_id")),
                worker=worker_id,
                ok=ok,
            )
            await self._notify()
            return {"op": "ack", "known": status is not None}
        return {"op": "error", "error": f"unknown op {op!r}"}

    async def _op_submit(self, message: dict) -> dict:
        document = message.get("spec")
        violations = validate_campaign(document)
        if violations:
            return {
                "op": "error",
                "error": "campaign spec rejected",
                "violations": violations,
            }
        try:
            spec = CampaignSpec.from_dict(document)
        except (KeyError, ValueError) as exc:
            return {"op": "error", "error": str(exc)}
        try:
            accepted = self.coordinator.submit(spec)
        except SaturatedError as exc:
            return {"op": "error", "error": str(exc), "saturated": True}
        obs.emit(
            "fleet.submit",
            campaign=accepted["campaign"][:8],
            points=accepted["points"],
            known=accepted["known"],
        )
        await self._notify()
        return {"op": "accepted", "backend": spec.backend, **accepted}

    async def _op_wait(self, message: dict) -> dict:
        digest = str(message.get("campaign"))
        timeout = min(
            float(message.get("timeout", _WAIT_SLICE_S)), _WAIT_SLICE_S
        )
        assert self._changed is not None
        deadline = asyncio.get_running_loop().time() + max(timeout, 0.0)
        while True:
            status = self.coordinator.status(digest)
            if status is None:
                return {"op": "error", "error": "unknown campaign"}
            if status["state"] != "running":
                return {"op": "campaign", **status}
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                return {"op": "campaign", **status}
            async with self._changed:
                try:
                    await asyncio.wait_for(
                        self._changed.wait(), timeout=remaining
                    )
                except asyncio.TimeoutError:
                    pass
