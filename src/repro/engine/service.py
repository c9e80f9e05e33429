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
queue; one dispatcher thread per worker slot drains it into the shared
process pool.

Scheduling is all the service adds.  Every job is evaluated by the
backend its scenario names, so a campaign's records and result-cache
keys are the ones a serial run of the same spec produces.  Workers
only evaluate: the campaign stream stores each outcome and counts its
trace use, and the service counts a pool worker's evaluation in its
own process (:func:`~repro.backends.base.record_evaluations`) when
the outcome arrives.  A stream closed early cancels its queued jobs.

Admission is bounded globally (``queue_size``); *dispatch* order
round-robins across campaigns (:class:`_FairQueue`), so a 10⁵-point
grid that arrived first cannot starve a later campaign behind its
whole backlog.

What sharing buys:

* **workers** — the pool is created once (``pool_launches`` in
  :meth:`EvalService.stats` stays at 1 however many campaigns run) and
  its processes stay warm, so concurrent campaigns interleave on one
  set of cores instead of oversubscribing them with rival pools;
* **traces** — store-backed jobs ship only the trace's ``.npz`` path;
  each worker loads it once and memoises it, so ten campaigns over the
  same kernel share one in-worker copy instead of pickling the trace
  into ten pools.

The service does not deduplicate: the store's claims do.  Planning
claims every point a campaign will compute, so a point two campaigns
share is submitted once, by whichever claimed it first; with
``use_cache=False`` nothing is claimed and each campaign evaluates its
own points, exactly as its serial run would.

Degradation mirrors the campaign executor: when worker processes
cannot be created or break (restricted sandboxes; stdin/REPL-driven
``__main__`` modules that forkserver/spawn workers cannot re-import),
jobs run inline on the dispatcher threads — slower, bit-identical, and
the bounded queue still provides admission control.  The pool
deliberately never uses ``fork``: it launches lazily from a process
that is multi-threaded by construction, where a forked child could
inherit a held lock.  Pool workers resolve backends from their own
registry, so a backend registered at runtime (rather than on import)
needs ``workers=0``.
"""

from __future__ import annotations

import collections
import concurrent.futures
import itertools
import multiprocessing as mp
import queue as queue_module
import threading
import time
import warnings
from typing import Iterator, Mapping, Sequence

from .. import obs
from ..backends import EvalOutcome, Scenario, evaluate_scenario
from ..backends.base import record_evaluations
from ..ir.trace import Trace
from .executor import default_workers

__all__ = ["DEFAULT_QUEUE_SIZE", "EvalService", "TraceUnavailableError"]

#: Default bound on the service's admission queue: submissions beyond
#: this block in the submitter until a dispatcher frees a slot.
DEFAULT_QUEUE_SIZE = 128

#: Names each campaign's fairness bucket (:meth:`EvalService.run_jobs`).
_campaign_serial = itertools.count()


class TraceUnavailableError(RuntimeError):
    """A worker could not load a job's trace from its shipped path.

    The submitter falls back to re-submitting the job with the trace
    object shipped inline (it holds the trace in memory; only the
    cheap path-based hand-off failed — e.g. the entry was evicted
    between planning and execution).
    """


class _FairQueue:
    """Bounded multi-campaign queue with round-robin dispatch order.

    Admission stays global — ``maxsize`` jobs across all campaigns —
    but each campaign queues into its own bucket and :meth:`get` serves
    the buckets round-robin, one job at a time.  A grid that arrived
    first cannot starve later arrivals behind its whole backlog; with
    K campaigns queued, each is served every K-th dispatch.

    Thread-safe: submitters and dispatchers meet on one condition.
    """

    def __init__(self, maxsize: int):
        self._maxsize = maxsize
        self._size = 0
        self._buckets: dict[str, collections.deque] = {}
        self._rotation: collections.deque[str] = collections.deque()
        self._cond = threading.Condition()
        self._closed = False

    def campaigns(self) -> int:
        """Distinct campaigns currently queued (snapshot)."""
        return len(self._buckets)

    def put(self, campaign: str, item) -> int:
        """Queue ``item``, blocking while full; returns the new depth."""
        with self._cond:
            while self._size >= self._maxsize and not self._closed:
                self._cond.wait()
            if self._closed:
                raise RuntimeError("evaluation service is closed")
            bucket = self._buckets.get(campaign)
            if bucket is None:
                bucket = self._buckets[campaign] = collections.deque()
                self._rotation.append(campaign)
            bucket.append(item)
            self._size += 1
            self._cond.notify_all()
            return self._size

    def get(self):
        """The next item, blocking while empty; ``None`` once closed."""
        with self._cond:
            while self._size == 0 and not self._closed:
                self._cond.wait()
            if self._closed:
                return None
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

    def close(self) -> list:
        """Wake every waiter and return the queued backlog."""
        with self._cond:
            self._closed = True
            backlog = [
                item
                for campaign in self._rotation
                for item in self._buckets[campaign]
            ]
            self._buckets.clear()
            self._rotation.clear()
            self._size = 0
            self._cond.notify_all()
            return backlog


# ---------------------------------------------------------------------------
# the job payload and its worker-side entry point
# ---------------------------------------------------------------------------

#: (scenario, trace | None, trace_path, ref) — kept a plain tuple so
#: the pickle shipped per job stays minimal when the trace travels by
#: path.
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
    :func:`~repro.backends.evaluate_scenario`, which counts the
    evaluation in the process that runs it; a pool worker's is counted
    again in the service's process when its outcome arrives.
    """
    scenario, trace, trace_path, ref = payload
    if trace is None:
        trace = _load_worker_trace(trace_path)
    # Pool workers inherit REPRO_OBS through the environment, so this
    # span lands in the worker's own per-process JSONL file.
    with obs.span("engine.evaluate", backend=scenario.backend, ref=ref):
        return evaluate_scenario(trace, scenario)


# ---------------------------------------------------------------------------
# the resident service
# ---------------------------------------------------------------------------


class EvalService:
    """A long-lived evaluation executor over one shared pool.

    ``workers`` is the resident pool's size (``None``: one per core;
    ``0``: no pool — jobs run inline on a dispatcher thread, the
    sandbox/degraded mode).  ``queue_size`` bounds the admission
    queue: :meth:`submit` blocks once that many jobs are queued,
    which is what keeps a burst of campaigns from buffering their
    entire grids in memory.  Queued jobs dispatch round-robin across
    campaigns, not strictly FIFO, on one dispatcher thread per worker
    slot.

    Thread-safe: any number of campaign threads may submit
    concurrently.  Fork-unsafe by construction (the dispatcher threads
    do not survive into a forked child) — build the service in the
    process that uses it, and :meth:`close` it when done.
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
        self._lock = threading.Lock()
        self._closed = False
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._pool_broken = False
        self._stats = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "queue_high_water": 0,
            "pool_launches": 0,
        }
        self._queue = _FairQueue(queue_size)
        self._threads = [
            threading.Thread(
                target=self._dispatch,
                name=f"repro-eval-service-{slot}",
                daemon=True,
            )
            for slot in range(max(self.workers, 1))
        ]
        for thread in self._threads:
            thread.start()

    # -- dispatch --------------------------------------------------------------
    def _dispatch(self) -> None:
        """One dispatcher: run queued jobs until the queue closes."""
        while True:
            job = self._queue.get()
            if job is None:
                return
            payload, future = job
            if not future.set_running_or_notify_cancel():
                continue
            try:
                outcome = self._execute(payload)
            except BaseException as exc:  # noqa: BLE001 - handed to caller
                with self._lock:
                    self._stats["failed"] += 1
                future.set_exception(exc)
            else:
                with self._lock:
                    self._stats["completed"] += 1
                future.set_result(outcome)

    def _execute(self, payload: _Payload) -> EvalOutcome:
        if self._closed:
            # A job dequeued just before close() must not run (let
            # alone relaunch a pool) — fail it to its submitter.
            raise RuntimeError("evaluation service closed")
        pool = self._ensure_pool()
        if pool is None:
            return _run_job(payload)
        try:
            outcome = pool.submit(_run_job, payload).result()
        except concurrent.futures.process.BrokenProcessPool:
            # A worker died under the job (OOM-killed, sandbox): the
            # pool is unusable — degrade to inline like the campaign
            # executor's serial fallback and keep serving.
            with self._lock:
                self._pool = None
                self._pool_broken = True
            warnings.warn(
                "evaluation service worker pool broke; "
                "continuing inline on the dispatcher threads",
                RuntimeWarning,
                stacklevel=2,
            )
            return _run_job(payload)
        # The worker counted this evaluation in its own process.
        record_evaluations(1)
        return outcome

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
            # a dispatcher thread at the first job) this process is
            # multi-threaded by construction — campaign threads, the
            # lease heartbeat, the dispatchers — and a fork could
            # snapshot a held lock into every worker.  Workers receive
            # jobs by pickle (traces travel by path), so the resident
            # pool loses nothing by starting from a clean interpreter:
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
        campaign: str | None = None,
    ) -> concurrent.futures.Future:
        """Queue one evaluation; returns its future.

        Blocks only for *admission* (while the bounded queue is full),
        never for execution.  ``trace_path`` ships the trace by its
        store artifact path instead of pickling it per job; ``ref``
        names the stored trace in telemetry.  ``campaign`` names the
        fairness bucket the job queues under (anonymous submissions
        share one).  Every submission is its own job; the store's
        claims, taken while planning, deduplicate.
        """
        if trace is None and trace_path is None:
            raise ValueError("submit needs a trace or a trace_path")
        future: concurrent.futures.Future = concurrent.futures.Future()
        payload: _Payload = (
            scenario,
            None if trace_path is not None else trace,
            trace_path,
            ref,
        )
        depth = self._queue.put(campaign or "adhoc", (payload, future))
        with self._lock:
            self._stats["submitted"] += 1
            high_water = depth > self._stats["queue_high_water"]
            if high_water:
                self._stats["queue_high_water"] = depth
        obs.emit(
            "service.submit",
            ref=ref or trace_path or f"mem:{id(trace)}",
            scenario=scenario.digest[:8],
        )
        if high_water:
            obs.emit("service.queue_high_water", value=depth)
        return future

    def run_jobs(
        self,
        jobs: Sequence[tuple[int, str, str, Scenario]],
        traces: Mapping[str, Trace],
        trace_paths: Mapping[str, str] | None = None,
    ) -> Iterator[tuple[int, EvalOutcome, float]]:
        """Submit a campaign's job list; yield outcomes as they finish.

        Jobs are ``(index, trace label, trace ref, scenario)``; each
        yields ``(index, outcome, wall seconds)``.  The jobs share one
        fairness bucket.  Store-backed traces travel by artifact path
        (each shared worker loads and memoises them once); a worker
        that finds a path unavailable — evicted between planning and
        execution — triggers one resubmission with the trace shipped
        inline from the submitter's memory.  Closing the iterator
        early cancels the jobs still queued.
        """
        trace_paths = trace_paths or {}
        campaign = f"campaign-{next(_campaign_serial)}"
        # Completion is collected through one done-callback per future
        # feeding a queue — O(jobs) bookkeeping total, where repeated
        # `concurrent.futures.wait` calls would re-register a waiter
        # on every still-pending future per wake-up (quadratic churn
        # on big grids).
        completed: queue_module.Queue = queue_module.Queue()
        #: future -> (job, submission time); the yielded wall seconds
        #: are submit-to-completion (queue wait included: that *is*
        #: where a service job's wall-clock goes under contention)
        pending: dict[concurrent.futures.Future, tuple[tuple, float]] = {}

        def enqueue(job: tuple, path: str | None) -> None:
            _index, label, ref, scenario = job
            future = self.submit(
                traces[label] if path is None else None,
                scenario,
                trace_path=path,
                ref=ref,
                campaign=campaign,
            )
            pending[future] = (job, time.perf_counter())
            future.add_done_callback(completed.put)

        try:
            for job in jobs:
                enqueue(job, trace_paths.get(job[1]))
            while pending:
                future = completed.get()
                job, submitted_at = pending.pop(future)
                try:
                    outcome = future.result()
                except TraceUnavailableError:
                    enqueue(job, None)
                    continue
                yield job[0], outcome, time.perf_counter() - submitted_at
        finally:
            # An abandoned or errored stream stops using the service:
            # its queued jobs are cancelled, and one already running
            # finishes with nobody waiting for its outcome.
            for future in pending:
                future.cancel()

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
        registry = obs.MetricsRegistry()
        registry.label("mode", self.mode)
        for name, help in (
            ("submitted", "jobs admitted to the queue"),
            ("completed", "jobs finished successfully"),
            ("failed", "jobs that raised"),
            ("pool_launches", "resident pool launches"),
        ):
            registry.counter(name, help).inc(raw[name])
        registry.gauge(
            "queue_high_water", "deepest the admission queue has been"
        ).set(raw["queue_high_water"])
        registry.gauge("workers", "resident pool size").set(self.workers)
        registry.gauge("queue_size", "admission queue bound").set(
            self.queue_size
        )
        registry.gauge(
            "queue_campaigns", "distinct campaigns currently queued"
        ).set(self._queue.campaigns())
        return registry

    def stats(self) -> dict[str, object]:
        """Canonical snake_case snapshot (counters suffixed ``_total``)."""
        return self.stats_registry().snapshot()

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Fail the queued backlog, stop the pool and the dispatchers.

        Idempotent.  Jobs already running finish; queued ones fail
        with ``RuntimeError`` and later submissions raise it.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        for _payload, future in self._queue.close():
            if future.set_running_or_notify_cancel():
                future.set_exception(RuntimeError("evaluation service closed"))
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        for thread in self._threads:
            thread.join(timeout=10.0)

    def __repr__(self) -> str:
        return (
            f"EvalService(workers={self.workers}, "
            f"queue_size={self.queue_size}, mode={self.mode!r})"
        )
