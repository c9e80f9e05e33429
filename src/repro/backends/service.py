"""The shared evaluation service: one resident pool, many campaigns.

Every parallel campaign used to fork its own worker pool, pay its own
startup cost, and tear it down at the end — N concurrent campaigns
meant N pools fighting over the same cores.  This module hosts a
single long-lived :class:`EvalService` per process, modelled on a
tracing-JIT dispatch loop: one resident executor, many short-lived
requests.  Campaigns (and one-off ``evaluate_scenario`` calls) submit
jobs into a *bounded* queue; a small set of asyncio dispatchers drains
it into one shared process pool that outlives any individual campaign.

Admission is bounded globally (``queue_size``) and optionally by
distinct campaign (``max_campaigns``); *dispatch* order round-robins
across campaigns (:class:`_FairQueue`), so a 10⁵-point grid that
arrived first cannot starve a one-job ``evaluate_scenario`` call — or
a rival fleet campaign — behind its whole backlog.

Submissions that carry a ``result_key`` (plus the ``store`` it lives
in) are *store-coordinated inside submit*: the service looks the
result up, takes the cross-process claim lease before dispatching,
publishes the outcome on completion, and abandons the claim on
failure.  Bare ``evaluate_scenario`` callers therefore coordinate
through the same lease machinery campaigns use — two processes (or
two fleet hosts) evaluating the same trace/scenario pair against one
store root do the work exactly once while the first builder is alive.

What sharing buys:

* **workers** — the pool is created once (``pool_launches`` in
  :meth:`EvalService.stats` stays at 1 however many campaigns run) and
  its processes stay warm, so concurrent campaigns interleave on one
  set of cores instead of oversubscribing them with rival pools;
* **traces** — store-backed jobs ship only the trace's ``.npz`` path;
  each worker loads it once and memoises it, so ten campaigns over the
  same kernel share one in-worker copy instead of pickling the trace
  into ten pools;
* **results** — in-flight deduplication: two submissions of the same
  ``(trace, scenario)`` point share one future and one evaluation
  (``shared`` in the stats), on top of the store's claim/lease
  machinery.

The service is exposed as a third registered backend,
``backend="service"`` (:class:`ServiceBackend`): its ``evaluate``
round-trips one job through the queue, and the campaign executor
recognises it and submits whole job lists asynchronously instead of
forking a pool.  The actual simulation semantics come from a
*delegate* backend — ``"untimed"`` by default, configurable through
:func:`configure_service` — so the service adds scheduling, never a
third set of physics.

Degradation mirrors the campaign executor: when worker processes
cannot be created or break (restricted sandboxes; stdin/REPL-driven
``__main__`` modules that forkserver/spawn workers cannot re-import),
jobs run inline on the service thread — slower, bit-identical, and
the bounded queue still provides admission control.  The pool
deliberately never uses ``fork``: it launches lazily from a process
that is multi-threaded by construction, where a forked child could
inherit a held lock.
"""

from __future__ import annotations

import asyncio
import atexit
import collections
import concurrent.futures
import contextlib
import multiprocessing as mp
import os
import threading
import time
import warnings
from dataclasses import replace
from typing import Iterator, Mapping, Sequence

from .. import obs
from ..ir.trace import Trace
from .base import (
    EvalOutcome,
    Scenario,
    get_backend,
    record_evaluations,
    register_backend,
)

__all__ = [
    "DEFAULT_QUEUE_SIZE",
    "EvalService",
    "ServiceBackend",
    "ServiceSaturatedError",
    "TraceUnavailableError",
    "configure_service",
    "get_service",
    "shutdown_service",
]

#: Default bound on the service's admission queue: submissions beyond
#: this block in the submitter until a dispatcher frees a slot.
DEFAULT_QUEUE_SIZE = 128

#: How long a store-coordinated submission defers to a live foreign
#: claim holder before computing unclaimed (benign duplicate, atomic
#: replace) — mirrors the store's own in-flight timeout.
_CLAIM_DEFER_S = 120.0

class TraceUnavailableError(RuntimeError):
    """A worker could not load a job's trace from its shipped path.

    The submitter falls back to re-submitting the job with the trace
    object shipped inline (it holds the trace in memory; only the
    cheap path-based hand-off failed — e.g. the entry was evicted
    between planning and execution).
    """


class ServiceSaturatedError(RuntimeError):
    """Admission control refused a submission.

    Raised when the service's ``max_campaigns`` bound is set and a
    submission would open one queue bucket too many.  The caller —
    typically the fleet server — should back off and retry, or refuse
    its own client upstream; jobs of already-admitted campaigns are
    unaffected.
    """


class _FairQueue:
    """Bounded multi-campaign queue with round-robin dispatch order.

    Admission stays global — ``maxsize`` jobs across all campaigns,
    matching the old single ``asyncio.Queue`` semantics — but each
    campaign queues into its own bucket and :meth:`get` serves the
    buckets round-robin, one job at a time.  A grid that arrived
    first no longer starves later arrivals behind its whole backlog;
    with K campaigns queued, each is served every K-th dispatch.

    Runs entirely on the service's event loop thread (asyncio
    primitives, no locks).  ``max_campaigns`` is the optional
    admission bound on *distinct queued campaigns*: opening one bucket
    beyond it raises :class:`ServiceSaturatedError` to the submitter.
    """

    def __init__(self, maxsize: int, max_campaigns: int | None = None):
        self._maxsize = maxsize
        self._max_campaigns = max_campaigns
        self._size = 0
        self._buckets: dict[str, collections.deque] = {}
        self._rotation: collections.deque[str] = collections.deque()
        self._cond = asyncio.Condition()

    def qsize(self) -> int:
        return self._size

    def campaigns(self) -> int:
        """Distinct campaigns currently queued (snapshot)."""
        return len(self._buckets)

    def task_done(self) -> None:
        """Compatibility no-op (completion is tracked per future)."""

    async def put(self, campaign: str, item) -> None:
        async with self._cond:
            while self._size >= self._maxsize:
                await self._cond.wait()
            bucket = self._buckets.get(campaign)
            if bucket is None:
                if (
                    self._max_campaigns is not None
                    and len(self._buckets) >= self._max_campaigns
                ):
                    raise ServiceSaturatedError(
                        f"admission refused: {len(self._buckets)} campaigns "
                        f"already queued (max_campaigns="
                        f"{self._max_campaigns})"
                    )
                bucket = self._buckets[campaign] = collections.deque()
                self._rotation.append(campaign)
            bucket.append(item)
            self._size += 1
            self._cond.notify_all()

    async def get(self):
        async with self._cond:
            while self._size == 0:
                await self._cond.wait()
            # Invariant: every rotation entry has a non-empty bucket
            # (drained buckets are retired immediately below).
            campaign = self._rotation.popleft()
            bucket = self._buckets[campaign]
            item = bucket.popleft()
            if bucket:
                self._rotation.append(campaign)
            else:
                del self._buckets[campaign]
            self._size -= 1
            self._cond.notify_all()
            return item


# ---------------------------------------------------------------------------
# the job payload and its worker-side entry point
# ---------------------------------------------------------------------------

#: (delegate, scenario, trace | None, trace_path, ref, touch, parent_pid,
#:  count_eval) — kept a plain tuple so the pickle shipped per job stays
#: minimal when the trace travels by path.
_Payload = tuple

#: Worker-side memo of traces loaded by path; bounded so a worker that
#: serves many campaigns over many kernels cannot grow without limit.
_WORKER_TRACES: dict[str, Trace] = {}
_WORKER_TRACE_CAP = 32


def _load_worker_trace(path: str) -> Trace:
    trace = _WORKER_TRACES.get(path)
    if trace is not None:
        return trace
    try:
        trace = Trace.load(path)
    except Exception as exc:  # noqa: BLE001 - travels back to the submitter
        raise TraceUnavailableError(
            f"trace artifact unavailable at {path!r}: {exc}"
        ) from None
    if len(_WORKER_TRACES) >= _WORKER_TRACE_CAP:
        _WORKER_TRACES.pop(next(iter(_WORKER_TRACES)))
    _WORKER_TRACES[path] = trace
    return trace


def _run_job(payload: _Payload) -> EvalOutcome:
    """Evaluate one service job (runs in a pool worker, or inline).

    The delegate backend does the physics; the outcome is re-tagged
    ``backend="service"`` so records and result-cache entries carry
    the identity the scenario was addressed under.  Evaluation
    counting follows the campaign executor's write-ahead convention:
    the executing process counts the evaluation, and a worker-side
    count additionally rides home on the touch record (``evals=1``)
    for the campaign parent to merge — unless the submitter already
    counted the dispatch (``count_eval=False``, the
    ``evaluate_scenario`` path).
    """
    (
        delegate,
        scenario,
        trace,
        trace_path,
        ref,
        touch,
        parent_pid,
        count_eval,
    ) = payload
    if trace is None:
        trace = _load_worker_trace(trace_path)
    # Pool workers inherit REPRO_OBS through the environment, so this
    # span lands in the worker's own per-process JSONL file.
    with obs.span("engine.evaluate", backend=delegate, ref=ref):
        outcome = get_backend(delegate).evaluate(trace, scenario)
    if outcome.backend != scenario.backend:
        outcome = replace(outcome, backend=scenario.backend)
    if count_eval:
        record_evaluations(1)
    if touch is not None and ref:
        from ..engine.store import append_touch

        touch_dir, tag = touch
        in_parent = os.getpid() == parent_pid
        append_touch(
            touch_dir, tag, ref, evals=0 if (in_parent or not count_eval) else 1
        )
    return outcome


# ---------------------------------------------------------------------------
# the resident service
# ---------------------------------------------------------------------------


class EvalService:
    """A long-lived asyncio evaluation loop over one shared pool.

    ``workers`` is the resident pool's size (``None``: one per core;
    ``0``: no pool — jobs run inline on the service thread, the
    sandbox/degraded mode).  ``queue_size`` bounds the admission
    queue: :meth:`submit` blocks once that many jobs are in flight,
    which is what keeps a burst of campaigns from buffering their
    entire grids in memory.  ``max_campaigns`` optionally bounds the
    number of *distinct* campaigns queued at once (further admission
    raises :class:`ServiceSaturatedError` — the fleet server's
    refuse-upstream signal).  ``delegate`` names the backend that
    actually evaluates each job.  Queued jobs dispatch round-robin
    across campaigns, not strictly FIFO.

    Thread-safe: any number of campaign threads may submit
    concurrently; all coordination lives on the service's own event
    loop.  Fork-unsafe by construction (the loop thread does not
    survive into a forked child) — :func:`get_service` detects a pid
    change and builds a fresh instance instead of deadlocking.
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        delegate: str = "untimed",
        max_campaigns: int | None = None,
    ) -> None:
        if queue_size < 1:
            raise ValueError("queue_size must be at least 1")
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative")
        if max_campaigns is not None and max_campaigns < 1:
            raise ValueError("max_campaigns must be at least 1")
        _validate_delegate(delegate)
        from ..engine.executor import default_workers

        self.workers = default_workers() if workers is None else workers
        self.queue_size = queue_size
        self.delegate = delegate
        self.max_campaigns = max_campaigns
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._closed = False
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._pool_broken = False
        self._stats = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "shared": 0,
            "queue_high_water": 0,
            "pool_launches": 0,
            "store_hits": 0,
        }
        #: in-flight dedup: (trace identity, scenario digest) -> future
        self._inflight: dict[tuple[str, str], concurrent.futures.Future] = {}
        self._ready = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._queue: _FairQueue | None = None
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-eval-service", daemon=True
        )
        self._thread.start()
        self._ready.wait()

    # -- the loop --------------------------------------------------------------
    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._queue = _FairQueue(self.queue_size, self.max_campaigns)
        for slot in range(max(self.workers, 1)):
            self._loop.create_task(self._dispatch())
        self._loop.call_soon(self._ready.set)
        try:
            self._loop.run_forever()
        finally:
            # Drain: cancel the dispatchers and let them unwind before
            # closing, so interpreter shutdown sees no pending tasks.
            tasks = asyncio.all_tasks(self._loop)
            for task in tasks:
                task.cancel()
            if tasks:
                self._loop.run_until_complete(
                    asyncio.gather(*tasks, return_exceptions=True)
                )
            self._loop.close()

    async def _enqueue(self, campaign: str, item) -> None:
        queue = self._queue
        assert queue is not None
        await queue.put(campaign, item)
        high_water = None
        with self._lock:
            if queue.qsize() > self._stats["queue_high_water"]:
                self._stats["queue_high_water"] = queue.qsize()
                high_water = queue.qsize()
        if high_water is not None:
            obs.emit("service.queue_high_water", value=high_water)

    async def _dispatch(self) -> None:
        """One dispatcher: drain the queue into the shared pool."""
        queue = self._queue
        assert queue is not None
        while True:
            payload, future = await queue.get()
            try:
                try:
                    if not future.set_running_or_notify_cancel():
                        continue
                except Exception:
                    # Already resolved — a failed submission closed it
                    # out while the job sat queued.  Skip, never die.
                    continue
                try:
                    outcome = await self._execute(payload)
                except asyncio.CancelledError:
                    # Shutdown: the drain in _run_loop cancelled us.
                    # Swallowing this would resurrect the dispatcher
                    # (and close() would hang on the join) — resolve
                    # the job's future and let the cancellation out.
                    if not future.done():
                        with contextlib.suppress(Exception):
                            future.set_exception(
                                RuntimeError("evaluation service closed")
                            )
                    raise
                except BaseException as exc:  # noqa: BLE001 - handed to caller
                    with self._lock:
                        self._stats["failed"] += 1
                    if not future.done():
                        with contextlib.suppress(Exception):
                            future.set_exception(exc)
                else:
                    with self._lock:
                        self._stats["completed"] += 1
                    if not future.done():
                        with contextlib.suppress(Exception):
                            future.set_result(outcome)
            finally:
                queue.task_done()

    async def _execute(self, payload: _Payload) -> EvalOutcome:
        if self._closed:
            # A closed service must not evaluate its queued backlog
            # (let alone relaunch a pool for it) — fail the job to
            # its submitter instead.
            raise RuntimeError("evaluation service closed")
        pool = self._ensure_pool()
        if pool is None:
            return _run_job(payload)
        try:
            return await self._loop.run_in_executor(pool, _run_job, payload)
        except concurrent.futures.process.BrokenProcessPool:
            # A worker died under the job (OOM-killed, sandbox): the
            # pool is unusable — degrade to inline like the campaign
            # executor's serial fallback and keep serving.
            with self._lock:
                self._pool = None
                self._pool_broken = True
            warnings.warn(
                "evaluation service worker pool broke; "
                "continuing inline on the service thread",
                RuntimeWarning,
                stacklevel=2,
            )
            return _run_job(payload)

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor | None:
        """The shared pool, created at most once (None: inline mode)."""
        if self.workers == 0 or self._pool_broken or self._closed:
            return None
        with self._lock:
            if self._closed:
                return None  # never relaunch a pool after close()
            if self._pool is not None:
                return self._pool
            # Never fork: by the time the pool launches (lazily, from
            # the loop thread at first submit) this process is
            # multi-threaded by construction — campaign threads, the
            # lease heartbeat, this loop — and a fork could snapshot
            # a held lock into every worker.  Workers receive jobs by
            # pickle (traces travel by path), so the resident pool
            # loses nothing by starting from a clean interpreter:
            # forkserver where available, spawn otherwise — a one-off
            # startup cost the pool's lifetime amortises.
            methods = mp.get_all_start_methods()
            context = mp.get_context(
                "forkserver" if "forkserver" in methods else "spawn"
            )
            try:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=context
                )
            except (OSError, NotImplementedError, ValueError) as exc:
                self._pool_broken = True
                warnings.warn(
                    f"evaluation service pool unavailable ({exc}); "
                    "running jobs inline",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return None
            self._stats["pool_launches"] += 1
            return self._pool

    # -- submission ------------------------------------------------------------
    def submit(
        self,
        trace: Trace | None,
        scenario: Scenario,
        *,
        trace_path: str | None = None,
        ref: str = "",
        touch: tuple[str, str] | None = None,
        count_eval: bool = False,
        campaign: str | None = None,
        result_key=None,
        store=None,
    ) -> concurrent.futures.Future:
        """Queue one evaluation; returns its future.

        Blocks only for *admission* (while the bounded queue is full),
        never for execution.  ``trace_path`` ships the trace by its
        store artifact path instead of pickling it per job; ``ref`` and
        ``touch`` carry the write-ahead accounting of campaign jobs;
        ``count_eval=False`` marks dispatches the caller already
        counted (the ``evaluate_scenario`` path).  ``campaign`` names
        the fairness bucket the job queues under (anonymous
        submissions share one).  Identical in-flight submissions (same
        trace identity and scenario digest) share one future and one
        evaluation.

        ``result_key``/``store`` (a :class:`~repro.engine.store.ResultKey`
        and the :class:`~repro.engine.store.TraceStore` it addresses)
        make the submission *store-coordinated*: a cached outcome
        resolves the future immediately, otherwise the service takes
        the cross-process claim lease before dispatching and publishes
        (or abandons) it when the job settles — so bare
        ``evaluate_scenario`` callers in different processes build
        each point exactly once.
        """
        if trace is None and trace_path is None:
            raise ValueError("submit needs a trace or a trace_path")
        if self._closed or not self._thread.is_alive():
            raise RuntimeError("evaluation service is closed")
        identity = (
            ref
            or (result_key.ref if result_key is not None else "")
            or trace_path
            or f"mem:{id(trace)}"
        )
        key = (identity, scenario.digest)
        with self._lock:
            existing = self._inflight.get(key)
            if existing is not None:
                self._stats["shared"] += 1
            else:
                future = concurrent.futures.Future()
                self._inflight[key] = future
                self._stats["submitted"] += 1
        if existing is not None:
            obs.emit(
                "service.submit",
                ref=identity,
                scenario=scenario.digest[:8],
                shared=True,
            )
            return existing
        obs.emit(
            "service.submit",
            ref=identity,
            scenario=scenario.digest[:8],
            shared=False,
        )
        future.add_done_callback(lambda _f: self._forget(key))
        payload: _Payload = (
            self.delegate,
            scenario,
            None if trace_path is not None else trace,
            trace_path,
            ref,
            touch,
            self._pid,
            count_eval,
        )
        try:
            if result_key is not None and store is not None:
                hit, claimed = self._coordinate_store(result_key, store)
                if hit is not None:
                    with self._lock:
                        self._stats["store_hits"] += 1
                    future.set_result(hit)
                    return future
                future.add_done_callback(
                    self._settle_claim(result_key, store, claimed)
                )
            admission = asyncio.run_coroutine_threadsafe(
                self._enqueue(campaign or "adhoc", (payload, future)),
                self._loop,
            )
            # Backpressure: block while the queue is full — but poll
            # the service's liveness, because a concurrent close()
            # (reconfiguration) can stop the loop after the check
            # above, leaving the admission future permanently
            # unresolved.
            while True:
                try:
                    admission.result(timeout=0.5)
                    break
                except concurrent.futures.TimeoutError:
                    if self._closed or not self._thread.is_alive():
                        admission.cancel()
                        raise RuntimeError(
                            "evaluation service is closed"
                        ) from None
        except BaseException as exc:
            self._forget(key)
            # Another campaign may already share this future through
            # the dedup map — resolve it, or that sharer waits on a
            # future nobody will ever complete (close()'s pending
            # sweep cannot see it once it is forgotten).
            if not future.done():
                with contextlib.suppress(Exception):
                    future.set_exception(
                        RuntimeError(
                            f"evaluation service submission failed: {exc}"
                        )
                    )
            raise
        return future

    def _forget(self, key: tuple[str, str]) -> None:
        with self._lock:
            self._inflight.pop(key, None)

    # -- store coordination ----------------------------------------------------
    def _coordinate_store(self, result_key, store):
        """Resolve a store-coordinated submission up front.

        Returns ``(hit, claimed)``: a cached outcome (and the job is
        never dispatched), or ``(None, True)`` once this process holds
        the claim lease and an uncounted re-check still misses (a peer
        may have published between the miss and the claim), or
        ``(None, False)`` after deferring
        :data:`_CLAIM_DEFER_S` to a wedged foreign holder — then the
        job computes unclaimed, a benign duplicate that publishes by
        atomic replace.  Runs in the *submitter's* thread: blocking
        here is the same admission backpressure a full queue applies.
        """
        deadline = time.monotonic() + _CLAIM_DEFER_S
        while True:
            outcome = store.lookup_result(result_key)
            if outcome is not None:
                obs.emit("service.store_hit", ref=result_key.ref)
                return outcome, False
            gate = store.claim_result(result_key)
            if gate is None:
                outcome = store.lookup_result(result_key, count=False)
                if outcome is not None:
                    store.abandon_result_claim(result_key)
                    obs.emit("service.store_hit", ref=result_key.ref)
                    return outcome, False
                obs.emit("service.claim", ref=result_key.ref)
                return None, True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                obs.emit("service.claim_defer_expired", ref=result_key.ref)
                return None, False
            gate.wait(timeout=min(5.0, max(0.05, remaining)))

    def _settle_claim(self, result_key, store, claimed: bool):
        """Done-callback publishing a store-coordinated job's outcome.

        Success publishes through :meth:`TraceStore.put_result` (which
        also releases our claim lease); failure abandons the claim so
        waiters elsewhere stop deferring to a job that will never
        publish.  Never raises — a done-callback exception would
        poison the future's other callbacks.
        """

        def settle(future: concurrent.futures.Future) -> None:
            try:
                outcome = future.result()
            except BaseException:  # noqa: BLE001 - job failure, not ours
                if claimed:
                    with contextlib.suppress(Exception):
                        store.abandon_result_claim(result_key)
                return
            try:
                store.put_result(result_key, outcome)
            except Exception:
                if claimed:
                    with contextlib.suppress(Exception):
                        store.abandon_result_claim(result_key)

        return settle

    # -- observability ---------------------------------------------------------
    @property
    def mode(self) -> str:
        """How jobs execute: ``pool[N]``, ``inline``, or ``cold``."""
        if self.workers == 0 or self._pool_broken:
            return "inline"
        if self._pool is None:
            return "cold"  # pool not launched yet (no job has run)
        return f"pool[{self.workers}]"

    def stats_registry(self) -> "obs.MetricsRegistry":
        """The service's lifetime counters and gauges as a registry."""
        with self._lock:
            raw = dict(self._stats)
            in_flight = len(self._inflight)
        queue = self._queue
        queue_campaigns = queue.campaigns() if queue is not None else 0
        registry = obs.MetricsRegistry()
        registry.label("delegate", self.delegate)
        registry.label("mode", self.mode)
        for name, help in (
            ("submitted", "jobs admitted to the queue"),
            ("completed", "jobs finished successfully"),
            ("failed", "jobs that raised"),
            ("shared", "submissions served by an in-flight duplicate"),
            ("pool_launches", "resident pool launches"),
            ("store_hits", "submissions resolved from the result store"),
        ):
            registry.counter(name, help).inc(raw[name])
        registry.gauge(
            "queue_high_water", "deepest the admission queue has been"
        ).set(raw["queue_high_water"])
        registry.gauge("in_flight", "deduplicated jobs in flight").set(
            in_flight
        )
        registry.gauge("workers", "resident pool size").set(self.workers)
        registry.gauge("queue_size", "admission queue bound").set(
            self.queue_size
        )
        registry.gauge(
            "queue_campaigns", "distinct campaigns currently queued"
        ).set(queue_campaigns)
        return registry

    def stats(self) -> dict[str, object]:
        """Canonical snake_case snapshot (counters suffixed ``_total``)."""
        return self.stats_registry().snapshot()

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Stop the loop and the pool (idempotent; pending jobs fail)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        with self._lock:
            pending = list(self._inflight.values())
            self._inflight.clear()
        for future in pending:
            if not future.done():
                future.set_exception(
                    RuntimeError("evaluation service closed")
                )

    def __repr__(self) -> str:
        return (
            f"EvalService(workers={self.workers}, "
            f"queue_size={self.queue_size}, delegate={self.delegate!r}, "
            f"mode={self.mode!r})"
        )


# ---------------------------------------------------------------------------
# the per-process instance
# ---------------------------------------------------------------------------

_service: EvalService | None = None
_service_lock = threading.Lock()
_config: dict[str, object] = {
    "workers": None,
    "queue_size": DEFAULT_QUEUE_SIZE,
    "delegate": "untimed",
    "max_campaigns": None,
}


def _validate_delegate(name: str) -> None:
    if name == ServiceBackend.name:
        raise ValueError("the service cannot delegate to itself")
    backend = get_backend(name)  # KeyError on typos
    if hasattr(backend, "dispatch_jobs"):
        raise ValueError(f"backend {name!r} is itself a dispatching service")


def configure_service(
    *,
    workers: int | None = None,
    queue_size: int = DEFAULT_QUEUE_SIZE,
    delegate: str = "untimed",
    max_campaigns: int | None = None,
) -> None:
    """Set the shared service's parameters (tears down a live one).

    Takes effect on the next :func:`get_service` call — existing
    submissions complete against the old instance first if callers
    hold their futures, but new work sees the new configuration.
    """
    _validate_delegate(delegate)
    if workers is not None and workers < 0:
        raise ValueError("workers must be non-negative")
    if queue_size < 1:
        raise ValueError("queue_size must be at least 1")
    if max_campaigns is not None and max_campaigns < 1:
        raise ValueError("max_campaigns must be at least 1")
    global _service
    with _service_lock:
        _config.update(
            workers=workers,
            queue_size=queue_size,
            delegate=delegate,
            max_campaigns=max_campaigns,
        )
        service, _service = _service, None
    if service is not None:
        service.close()


def get_service() -> EvalService:
    """The process-wide service, created lazily from the current config.

    A pid change (this process is a fork of the one that built the
    service) discards the inherited instance — its loop thread did not
    survive the fork — and builds a fresh one.
    """
    global _service
    with _service_lock:
        if _service is not None and _service._pid != os.getpid():
            _service = None  # forked copy: thread/loop are not ours
        if _service is None:
            _service = EvalService(
                workers=_config["workers"],  # type: ignore[arg-type]
                queue_size=_config["queue_size"],  # type: ignore[arg-type]
                delegate=_config["delegate"],  # type: ignore[arg-type]
                max_campaigns=_config["max_campaigns"],  # type: ignore[arg-type]
            )
        return _service


def shutdown_service() -> None:
    """Close and forget the shared service (next use recreates it)."""
    global _service
    with _service_lock:
        service, _service = _service, None
    if service is not None and service._pid == os.getpid():
        service.close()


atexit.register(shutdown_service)


# ---------------------------------------------------------------------------
# the backend facade
# ---------------------------------------------------------------------------


class ServiceBackend:
    """Backend ``"service"``: evaluations via the shared resident pool.

    A scheduling facade, not a third simulator: every job is evaluated
    by the configured *delegate* backend (``"untimed"`` by default —
    see :func:`configure_service`), so the service's scenario axes,
    result schema and reduction support are exactly the delegate's,
    and campaign-spec validation stays accurate whichever delegate is
    active.  ``evaluate`` round-trips a single job; the campaign
    executor instead calls :meth:`dispatch_jobs` to keep a whole grid
    in flight against the shared pool at once.
    """

    name = "service"

    @property
    def delegate(self) -> str:
        with _service_lock:
            service = _service
        return service.delegate if service is not None else str(_config["delegate"])

    @property
    def cache_identity(self) -> str:
        """The name service results are cached under: delegate included.

        A service outcome's physics comes from the delegate, so cached
        entries must not survive a delegate switch — ``service:timed``
        and ``service:untimed`` are distinct cache namespaces, exactly
        as ``timed`` and ``untimed`` are.
        """
        return f"{self.name}:{self.delegate}"

    def _delegate_backend(self):
        return get_backend(self.delegate)

    @property
    def scenario_axes(self) -> tuple[str, ...]:
        return self._delegate_backend().scenario_axes

    @property
    def result_schema(self) -> tuple[str, ...]:
        return self._delegate_backend().result_schema

    @property
    def table_metrics(self) -> tuple[str, ...]:
        return self._delegate_backend().table_metrics

    @property
    def supported_reductions(self) -> tuple[str, ...] | None:
        return getattr(self._delegate_backend(), "supported_reductions", None)

    def evaluate(self, trace: Trace, scenario: Scenario) -> EvalOutcome:
        """One synchronous round-trip through the shared queue.

        Store-coordinated: the submission carries this point's
        :class:`~repro.engine.store.ResultKey` (content digest of the
        in-memory trace — no store registration required), so repeat
        evaluations are cache hits and concurrent processes on one
        store root serialise through the claim lease instead of
        duplicating the build.
        """
        from ..engine.store import ResultKey, default_store

        key = ResultKey(
            trace_digest=trace.content_digest,
            scenario_digest=scenario.digest,
            backend=self.cache_identity,
        )
        return (
            get_service()
            .submit(trace, scenario, result_key=key, store=default_store())
            .result()
        )

    def dispatch_label(self) -> str:
        service = get_service()
        return (
            "service[serial]"
            if service.mode == "inline"
            else f"service[{service.workers}]"
        )

    def dispatch_jobs(
        self,
        jobs: Sequence[tuple[int, str, str, Scenario]],
        traces: Mapping[str, Trace],
        touch: tuple[str, str] | None,
        trace_paths: Mapping[str, str] | None = None,
    ) -> Iterator[tuple[int, EvalOutcome, float]]:
        """Submit a campaign's job list; yield outcomes as they finish.

        Store-backed traces travel by artifact path (each shared
        worker loads and memoises them once); a worker that finds a
        path unavailable — evicted between planning and execution —
        triggers one resubmission with the trace shipped inline from
        the submitter's memory.  Deduplicated submissions (another
        in-flight campaign already queued the identical point) resolve
        through the shared future, so every yielded index still gets
        its outcome.
        """
        import queue as queue_module

        service = get_service()
        trace_paths = trace_paths or {}
        # Fairness bucket: the campaign's touch tag is its identity for
        # round-robin dispatch (anonymous grids share one bucket).
        campaign = touch[1] if touch is not None else None
        # Completion is collected through one done-callback per future
        # feeding a queue — O(jobs) bookkeeping total, where repeated
        # `concurrent.futures.wait` calls would re-register a waiter
        # on every still-pending future per wake-up (quadratic churn
        # on big grids).
        completed: queue_module.Queue = queue_module.Queue()
        entries_for: dict[concurrent.futures.Future, list] = {}
        outstanding: set[concurrent.futures.Future] = set()
        #: submission time per future — the yielded wall seconds are
        #: submit-to-completion (queue wait included: that *is* where
        #: a service job's wall-clock goes under contention)
        submitted_at: dict[concurrent.futures.Future, float] = {}

        def track(future: concurrent.futures.Future, entry) -> None:
            entries_for.setdefault(future, []).append(entry)
            submitted_at.setdefault(future, time.perf_counter())
            if future not in outstanding:
                outstanding.add(future)
                future.add_done_callback(completed.put)

        try:
            for index, label, ref, scenario in jobs:
                path = trace_paths.get(label)
                track(
                    service.submit(
                        traces[label] if path is None else None,
                        scenario,
                        trace_path=path,
                        ref=ref,
                        touch=touch,
                        count_eval=True,
                        campaign=campaign,
                    ),
                    (index, label, ref, scenario),
                )
            while entries_for:
                future = completed.get()
                outstanding.discard(future)
                entries = entries_for.pop(future, None)
                if entries is None:
                    continue  # a resubmitted future's first completion
                try:
                    outcome = future.result()
                except TraceUnavailableError:
                    for index, label, ref, scenario in entries:
                        track(
                            service.submit(
                                traces[label],
                                scenario,
                                ref=ref,
                                touch=touch,
                                count_eval=True,
                                campaign=campaign,
                            ),
                            (index, label, ref, scenario),
                        )
                    continue
                wall = time.perf_counter() - submitted_at.get(
                    future, time.perf_counter()
                )
                for index, _label, _ref, _scenario in entries:
                    yield index, outcome, wall
        finally:
            # An abandoned or errored stream cannot cancel jobs the
            # resident pool already accepted — but it must not return
            # while they are still appending this campaign's touch
            # files (the stream merges them right after closing us).
            # Drain, bounded: stragglers past the timeout fall to the
            # stale-file sweep of `repro store stats`.
            if outstanding:
                concurrent.futures.wait(list(outstanding), timeout=60.0)


register_backend(ServiceBackend())
