"""The shared evaluation service: one resident pool, many campaigns.

A parallel campaign run on its own forks a worker pool, pays its
startup cost, and tears it down at the end — N concurrent campaigns
mean N pools fighting over the same cores.  An :class:`EvalService`
is an *executor* that outlives any one campaign, modelled on a
tracing-JIT dispatch loop: one resident pool, many short-lived
requests.  A caller builds one, hands it to every campaign
(``run_campaign(spec, service=svc)``) and closes it when done.  Each
campaign looks up and claims its points in the store exactly as a
serial run does, then submits its remaining jobs into a *bounded*
queue; a small set of asyncio dispatchers drains it into the shared
process pool.

Scheduling is all the service adds.  Every job is evaluated by the
backend its scenario names, so a campaign's records and result-cache
keys are the ones a serial run of the same spec produces.  Admission
is bounded globally (``queue_size``); *dispatch* order round-robins
across campaigns (:class:`_FairQueue`), so a 10⁵-point grid that
arrived first cannot starve a later campaign behind its whole
backlog.

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

Degradation mirrors the campaign executor: when worker processes
cannot be created or break (restricted sandboxes; stdin/REPL-driven
``__main__`` modules that forkserver/spawn workers cannot re-import),
jobs run inline on the service thread — slower, bit-identical, and
the bounded queue still provides admission control.  The pool
deliberately never uses ``fork``: it launches lazily from a process
that is multi-threaded by construction, where a forked child could
inherit a held lock.  Pool workers resolve backends from their own
registry, so a backend registered at runtime (rather than on import)
needs ``workers=0``.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import contextlib
import multiprocessing as mp
import os
import queue as queue_module
import threading
import time
import warnings
from typing import Iterator, Mapping, Sequence

from .. import obs
from ..backends import EvalOutcome, Scenario, evaluate_scenario
from ..ir.trace import Trace
from .executor import default_workers
from .store import append_touch

__all__ = ["DEFAULT_QUEUE_SIZE", "EvalService", "TraceUnavailableError"]

#: Default bound on the service's admission queue: submissions beyond
#: this block in the submitter until a dispatcher frees a slot.
DEFAULT_QUEUE_SIZE = 128


class TraceUnavailableError(RuntimeError):
    """A worker could not load a job's trace from its shipped path.

    The submitter falls back to re-submitting the job with the trace
    object shipped inline (it holds the trace in memory; only the
    cheap path-based hand-off failed — e.g. the entry was evicted
    between planning and execution).
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
    primitives, no locks).
    """

    def __init__(self, maxsize: int):
        self._maxsize = maxsize
        self._size = 0
        self._buckets: dict[str, collections.deque] = {}
        self._rotation: collections.deque[str] = collections.deque()
        self._cond = asyncio.Condition()

    def qsize(self) -> int:
        return self._size

    def campaigns(self) -> int:
        """Distinct campaigns currently queued (snapshot)."""
        return len(self._buckets)

    async def put(self, campaign: str, item) -> None:
        async with self._cond:
            while self._size >= self._maxsize:
                await self._cond.wait()
            bucket = self._buckets.get(campaign)
            if bucket is None:
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

#: (scenario, trace | None, trace_path, ref, touch, parent_pid) — kept a
#: plain tuple so the pickle shipped per job stays minimal when the
#: trace travels by path.
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

    The scenario's own backend does the physics, through the counted
    :func:`~repro.backends.evaluate_scenario`.  Evaluation counting
    follows the campaign executor's write-ahead convention: the
    executing process counts the evaluation, and a pool worker's count
    additionally rides home on the touch record (``evals=1``) for the
    campaign parent to merge.
    """
    scenario, trace, trace_path, ref, touch, parent_pid = payload
    if trace is None:
        trace = _load_worker_trace(trace_path)
    # Pool workers inherit REPRO_OBS through the environment, so this
    # span lands in the worker's own per-process JSONL file.
    with obs.span("engine.evaluate", backend=scenario.backend, ref=ref):
        outcome = evaluate_scenario(trace, scenario)
    if touch is not None and ref:
        touch_dir, tag = touch
        in_parent = os.getpid() == parent_pid
        append_touch(touch_dir, tag, ref, evals=0 if in_parent else 1)
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
    entire grids in memory.  Queued jobs dispatch round-robin across
    campaigns, not strictly FIFO.

    Thread-safe: any number of campaign threads may submit
    concurrently; all coordination lives on the service's own event
    loop.  Fork-unsafe by construction (the loop thread does not
    survive into a forked child) — build the service in the process
    that uses it, and :meth:`close` it when done.
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        queue_size: int = DEFAULT_QUEUE_SIZE,
    ) -> None:
        if queue_size < 1:
            raise ValueError("queue_size must be at least 1")
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative")
        self.workers = default_workers() if workers is None else workers
        self.queue_size = queue_size
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
        self._queue = _FairQueue(self.queue_size)
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
                # Swallowing this would resurrect the dispatcher (and
                # close() would hang on the join) — resolve the job's
                # future and let the cancellation out.
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
        campaign: str | None = None,
    ) -> concurrent.futures.Future:
        """Queue one evaluation; returns its future.

        Blocks only for *admission* (while the bounded queue is full),
        never for execution.  ``trace_path`` ships the trace by its
        store artifact path instead of pickling it per job; ``ref`` and
        ``touch`` carry the write-ahead accounting of campaign jobs.
        ``campaign`` names the fairness bucket the job queues under
        (anonymous submissions share one).  Identical in-flight
        submissions (same trace identity and scenario digest) share
        one future and one evaluation.
        """
        if trace is None and trace_path is None:
            raise ValueError("submit needs a trace or a trace_path")
        if self._closed or not self._thread.is_alive():
            raise RuntimeError("evaluation service is closed")
        identity = ref or trace_path or f"mem:{id(trace)}"
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
            scenario,
            None if trace_path is not None else trace,
            trace_path,
            ref,
            touch,
            self._pid,
        )
        try:
            admission = asyncio.run_coroutine_threadsafe(
                self._enqueue(campaign or "adhoc", (payload, future)),
                self._loop,
            )
            # Backpressure: block while the queue is full — but poll
            # the service's liveness, because a concurrent close() can
            # stop the loop after the check above, leaving the
            # admission future permanently unresolved.
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

    def run_jobs(
        self,
        jobs: Sequence[tuple[int, str, str, Scenario]],
        traces: Mapping[str, Trace],
        touch: tuple[str, str] | None,
        trace_paths: Mapping[str, str] | None = None,
    ) -> Iterator[tuple[int, EvalOutcome, float]]:
        """Submit a campaign's job list; yield outcomes as they finish.

        Jobs are ``(index, trace label, trace ref, scenario)``; each
        yields ``(index, outcome, wall seconds)``.  Store-backed traces
        travel by artifact path (each shared worker loads and memoises
        them once); a worker that finds a path unavailable — evicted
        between planning and execution — triggers one resubmission
        with the trace shipped inline from the submitter's memory.
        Deduplicated submissions (another in-flight campaign already
        queued the identical point) resolve through the shared future,
        so every yielded index still gets its outcome.
        """
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
                    self.submit(
                        traces[label] if path is None else None,
                        scenario,
                        trace_path=path,
                        ref=ref,
                        touch=touch,
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
                            self.submit(
                                traces[label],
                                scenario,
                                ref=ref,
                                touch=touch,
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

    # -- observability ---------------------------------------------------------
    @property
    def mode(self) -> str:
        """How jobs execute: ``pool[N]``, ``inline``, or ``cold``."""
        if self.workers == 0 or self._pool_broken:
            return "inline"
        if self._pool is None:
            return "cold"  # pool not launched yet (no job has run)
        return f"pool[{self.workers}]"

    @property
    def description(self) -> str:
        """A campaign's executor tag: ``service[serial]`` or ``service[N]``."""
        if self.mode == "inline":
            return "service[serial]"
        return f"service[{self.workers}]"

    def stats_registry(self) -> "obs.MetricsRegistry":
        """The service's lifetime counters and gauges as a registry."""
        with self._lock:
            raw = dict(self._stats)
            in_flight = len(self._inflight)
        queue = self._queue
        queue_campaigns = queue.campaigns() if queue is not None else 0
        registry = obs.MetricsRegistry()
        registry.label("mode", self.mode)
        for name, help in (
            ("submitted", "jobs admitted to the queue"),
            ("completed", "jobs finished successfully"),
            ("failed", "jobs that raised"),
            ("shared", "submissions served by an in-flight duplicate"),
            ("pool_launches", "resident pool launches"),
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
            f"queue_size={self.queue_size}, mode={self.mode!r})"
        )
