"""The fleet worker: pull points, evaluate them, publish to the store.

Two transports, one evaluation path:

* **TCP mode** (``repro worker --connect HOST:PORT``) — fetch jobs
  from a :class:`~.server.FleetServer`, report ``done``/``fail``;
* **spool mode** (``repro worker --store-root PATH``) — no network at
  all: campaign specs dropped under ``<root>/fleet/spool/`` are picked
  up and evaluated point by point, for fleets whose machines share
  only the filesystem.  Spool workers on one root share a campaign:
  each passes over the points a live peer holds the lease on, and
  settles them only after the rest.

Either way :func:`evaluate_point` is the unit of work: one
:meth:`TraceStore.get_result <repro.engine.store.TraceStore.get_result>`
call, the store's claim protocol that the campaign executor runs too.
The *store's* leases — not the server — are what guarantee each point
is built exactly once across every machine on the root.
Workers on rival transports, or a worker racing the submitting
process itself, coordinate correctly because they only ever meet in
the store.

Every settled point emits a ``fleet.eval`` obs event whose
``computed`` flag says whether this process actually built the point
(it won the claim) or replayed it.  Summing ``computed`` over the
fleet's merged event log is the exactly-once audit the tests and the
CI smoke job assert on.

``REPRO_FLEET_STALL_S`` (seconds, default 0) makes a worker sleep
*after winning a claim and before evaluating* — a deterministic
window in which tests kill the worker to exercise the lease-steal
recovery path.
"""

from __future__ import annotations

import os
import time
from typing import Any

from .. import obs
from ..backends import evaluate_scenario
from ..engine import (
    CampaignSpec,
    ResultKey,
    TraceStore,
    kernel_trace_cached,
    kernel_trace_key,
)
from ..engine.store import default_store
from .protocol import FleetClient, FleetError

__all__ = ["evaluate_point", "run_spool_worker", "run_worker", "spool_dir"]

#: kill-window hook: sleep this long between claiming and evaluating.
_STALL_ENV = "REPRO_FLEET_STALL_S"

#: point enumerations memoised per campaign digest (spec → points is
#: deterministic, and a 10⁵-point spec should enumerate once, not per
#: job)
_POINT_CACHE: dict[str, list] = {}
_POINT_CACHE_MAX = 8


def _points_of(spec: CampaignSpec) -> list:
    digest = spec.digest
    points = _POINT_CACHE.get(digest)
    if points is None:
        points = list(spec.points())
        if len(_POINT_CACHE) >= _POINT_CACHE_MAX:
            _POINT_CACHE.pop(next(iter(_POINT_CACHE)))
        _POINT_CACHE[digest] = points
    return points


def _result_key(kernel, scenario) -> ResultKey:
    return ResultKey.make(
        kernel_trace_key(kernel.name, n=kernel.n, seed=kernel.seed), scenario
    )


def evaluate_point(
    spec: CampaignSpec, index: int, *, store: TraceStore | None = None
) -> dict[str, Any]:
    """Settle one ``(kernel, scenario)`` point against the shared store.

    Returns ``{"ref", "computed", "wall_s"}``.  ``computed`` is True
    only when this process ran the evaluation — as the claim's owner,
    or unclaimed after the protocol's deadline; a cache hit or a replay
    of a peer's build reports False.
    """
    store = store if store is not None else default_store()
    points = _points_of(spec)
    if not 0 <= index < len(points):
        raise IndexError(
            f"point {index} out of range for campaign {spec.name!r} "
            f"({len(points)} points)"
        )
    kernel, scenario = points[index]
    key = _result_key(kernel, scenario)
    started = time.perf_counter()
    computed = False

    def compute():
        nonlocal computed
        stall = float(os.environ.get(_STALL_ENV, "0") or 0.0)
        if stall > 0:
            obs.emit("fleet.stall", ref=key.ref, stall_s=stall)
            time.sleep(stall)
        trace = kernel_trace_cached(
            kernel.name, n=kernel.n, seed=kernel.seed, store=store
        )
        outcome = evaluate_scenario(trace, scenario)
        computed = True
        return outcome

    store.get_result(key, compute)
    obs.emit(
        "fleet.eval",
        campaign=spec.digest[:8],
        index=index,
        ref=key.ref,
        computed=computed,
    )
    return {
        "ref": key.ref,
        "computed": computed,
        "wall_s": time.perf_counter() - started,
    }


# ---------------------------------------------------------------------------
# TCP mode
# ---------------------------------------------------------------------------


def run_worker(
    address: str,
    *,
    store: TraceStore | None = None,
    max_jobs: int | None = None,
    idle_exit_s: float | None = None,
    retries: int = 5,
) -> int:
    """The TCP worker loop: fetch → evaluate → report, until told not to.

    ``max_jobs`` bounds the number of settled points (tests); with
    ``idle_exit_s`` the worker exits 0 after that long without work —
    the natural way for a CI fleet to wind down instead of being
    killed.  Returns a process exit code.
    """
    store = store if store is not None else default_store()
    settled = 0
    idle_since: float | None = None
    with FleetClient(address, role="worker", retries=retries) as client:
        obs.emit("fleet.worker_start", server=client.server_host or "?")
        while True:
            reply = client.request({"op": "fetch"})
            op = reply.get("op")
            if op == "job":
                idle_since = None
                spec = CampaignSpec.from_dict(reply["spec"])
                try:
                    result = evaluate_point(
                        spec, int(reply["index"]), store=store
                    )
                except Exception as exc:  # noqa: BLE001 - reported upstream
                    client.request(
                        {
                            "op": "fail",
                            "job_id": reply["job_id"],
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                    )
                else:
                    client.request(
                        {
                            "op": "done",
                            "job_id": reply["job_id"],
                            "ref": result["ref"],
                            "computed": result["computed"],
                            "wall_s": result["wall_s"],
                        }
                    )
                settled += 1
                if max_jobs is not None and settled >= max_jobs:
                    return 0
            elif op == "idle":
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                if (
                    idle_exit_s is not None
                    and now - idle_since >= idle_exit_s
                ):
                    obs.emit("fleet.worker_idle_exit", settled=settled)
                    return 0
                time.sleep(float(reply.get("retry_after", 0.5)))
            elif op == "shutdown":
                return 0
            else:
                raise FleetError(f"unexpected reply {op!r} to fetch")


# ---------------------------------------------------------------------------
# spool mode
# ---------------------------------------------------------------------------


def spool_dir(store: TraceStore):
    """Where spool-mode campaign specs live under a store root."""
    return store.root / "fleet" / "spool"


def run_spool_worker(
    *,
    store: TraceStore | None = None,
    once: bool = True,
    poll_s: float = 1.0,
) -> int:
    """Evaluate every campaign spec spooled under the store root.

    Specs are ``<spool>/<anything>.json``; a finished campaign gains a
    ``<same-stem>.done`` marker.  Multiple spool workers over one root
    cooperate point by point through the store's claims: a first pass
    skips every point whose result lease a live peer holds, and a
    second pass settles those (mostly cache hits by then), so workers
    split a campaign instead of queueing behind one another.  The
    marker is written by whichever worker settles the campaign's last
    point it can see, and writing it twice is harmless.  ``once=True``
    processes the current backlog and returns (the CI-friendly mode);
    otherwise the worker polls every ``poll_s`` seconds forever.
    """
    store = store if store is not None else default_store()
    spool = spool_dir(store)
    spool.mkdir(parents=True, exist_ok=True)
    while True:
        handled = 0
        for path in sorted(spool.glob("*.json")):
            marker = path.with_suffix(".done")
            if marker.exists():
                continue
            spec = CampaignSpec.load(path)
            obs.emit(
                "fleet.spool_campaign",
                campaign=spec.digest[:8],
                points=spec.n_points,
            )
            held = []
            for index, (kernel, scenario) in enumerate(_points_of(spec)):
                if store.lease_holder(_result_key(kernel, scenario).ref):
                    held.append(index)
                else:
                    evaluate_point(spec, index, store=store)
            for index in held:
                evaluate_point(spec, index, store=store)
            handled += spec.n_points
            marker.write_text(spec.digest + "\n")
        if once:
            return 0
        if not handled:
            time.sleep(poll_s)
