"""The shared evaluation service: one resident pool, many campaigns.

A parallel campaign run on its own forks a worker pool, pays its
startup cost, and tears it down at the end — N concurrent campaigns
mean N pools fighting over the same cores.  An :class:`EvalService`
is an *executor* that outlives any one campaign, modelled on a
tracing-JIT dispatch loop: one resident pool, many short-lived
requests.  A caller builds one, hands it to every campaign
(``run_campaign(spec, service=svc)``) and closes it when done.  Each
campaign looks up and claims its points in the store exactly as a
serial run does, then submits its remaining jobs straight to the
shared process pool from the thread that iterates it, keeping at most
two jobs per worker in flight.

Scheduling is all the service adds.  Every job is evaluated by the
backend its scenario names, so a campaign's records and result-cache
keys are the ones a serial run of the same spec produces.  Workers
only evaluate: the campaign stream stores each outcome and counts its
trace use, and the service counts a pool worker's evaluation in its
own process (:func:`~repro.backends.base.record_evaluations`) when
the outcome arrives.  A stream closed early cancels its queued jobs.

The pool starts jobs in the order they arrive, and each campaign has
at most its window of jobs in the pool, so concurrent campaigns
interleave: a 10⁵-point grid that arrived first delays a later
campaign by at most one window of its backlog, not by the whole of it.

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
each job runs inline on the thread that iterates its campaign —
slower, bit-identical.  The pool deliberately never uses ``fork``: it
launches lazily from a process that may be running campaign threads
and the store's lease heartbeat, where a forked child could inherit a
held lock.  Pool workers resolve backends from their own registry, so
a backend registered at runtime (rather than on import) needs
``workers=0``.
"""

from __future__ import annotations

import collections
import concurrent.futures
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

__all__ = ["EvalService", "TraceUnavailableError"]


class TraceUnavailableError(RuntimeError):
    """A worker could not load a job's trace from its shipped path.

    The submitter falls back to re-submitting the job with the trace
    object shipped inline (it holds the trace in memory; only the
    cheap path-based hand-off failed — e.g. the entry was evicted
    between planning and execution).
    """


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
    ``0``: no pool — each job runs inline on the thread that iterates
    its campaign, the sandbox/degraded mode).  A campaign keeps at most
    ``2 × workers`` jobs in the pool, so the workers stay busy while
    its thread stores the outcome just received.

    Thread-safe: any number of campaign threads may run jobs
    concurrently; the service starts no thread of its own.  Build it
    in the process that uses it (its pool does not survive into a
    forked child), and :meth:`close` it when done.
    """

    def __init__(self, *, workers: int | None = None) -> None:
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative")
        self.workers = default_workers() if workers is None else workers
        self._lock = threading.Lock()
        self._closed = False
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._pool_broken = False
        self._stats = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "pool_launches": 0,
        }

    # -- execution -------------------------------------------------------------
    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor | None:
        """The shared pool, created at most once (None: inline mode)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("evaluation service closed")
            if self.workers == 0 or self._pool_broken:
                return None
            if self._pool is not None:
                return self._pool
            # Never fork: the pool launches lazily, at the first job,
            # in a process that may be running campaign threads and
            # the store's lease heartbeat, and a fork could snapshot a
            # held lock into every worker.  Workers receive jobs by
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

    def _degrade(self) -> None:
        """Drop a broken pool: every later job runs inline.  Warns once."""
        with self._lock:
            if self._pool_broken:
                return
            self._pool, self._pool_broken = None, True
        # A worker died under a job (OOM-killed, sandbox): degrade
        # like the campaign executor's serial fallback, keep serving.
        warnings.warn(
            "evaluation service worker pool broke; running jobs inline",
            RuntimeWarning,
            stacklevel=2,
        )

    def _settle(
        self, future: concurrent.futures.Future, pooled: bool = True
    ) -> None:
        """Count a finished job (a pool job's evaluation once more)."""
        if future.cancelled():
            return
        ok = future.exception() is None
        if ok and pooled:
            # The worker counted this evaluation in its own process.
            record_evaluations(1)
        with self._lock:
            self._stats["completed" if ok else "failed"] += 1

    def _submit(self, payload: _Payload) -> concurrent.futures.Future:
        """Start one job on the pool, or run it inline if there is none."""
        pool = self._ensure_pool()
        scenario, trace, trace_path, ref = payload
        with self._lock:
            self._stats["submitted"] += 1
        obs.emit(
            "service.submit",
            ref=ref or trace_path or f"mem:{id(trace)}",
            scenario=scenario.digest[:8],
        )
        if pool is not None:
            try:
                future = pool.submit(_run_job, payload)
            except concurrent.futures.BrokenExecutor:
                self._degrade()
            except RuntimeError:
                # close() shut the pool down after _ensure_pool().
                raise RuntimeError("evaluation service closed") from None
            else:
                future.add_done_callback(self._settle)
                return future
        future = concurrent.futures.Future()
        try:
            future.set_result(_run_job(payload))
        except Exception as exc:  # noqa: BLE001 - raised in the campaign
            future.set_exception(exc)
        self._settle(future, pooled=False)
        return future

    def run_jobs(
        self,
        jobs: Sequence[tuple[int, str, str, Scenario]],
        traces: Mapping[str, Trace],
        trace_paths: Mapping[str, str] | None = None,
    ) -> Iterator[tuple[int, EvalOutcome, float]]:
        """Run a campaign's job list; yield outcomes as they finish.

        Jobs are ``(index, trace label, trace ref, scenario)``; each
        yields ``(index, outcome, wall seconds)``.  At most ``2 ×
        workers`` of them are in the pool at once.  Store-backed
        traces travel by artifact path (each shared worker loads and
        memoises them once); a worker that finds a path unavailable —
        evicted between planning and execution — triggers one
        resubmission with the trace shipped inline from the
        submitter's memory, and a job the pool broke under runs again
        inline.  Closing the iterator early cancels the jobs still
        queued; closing the service fails this iterator with
        ``RuntimeError``.
        """
        trace_paths = trace_paths or {}
        backlog = collections.deque(
            (job, trace_paths.get(job[1])) for job in jobs
        )
        window = 2 * self.workers or 1
        # Done-callbacks, unlike `concurrent.futures.wait`, also fire
        # for the futures that `close()` cancels in the pool's queue.
        finished: queue_module.SimpleQueue = queue_module.SimpleQueue()
        #: future -> (job, trace path, submission time); the yielded
        #: wall seconds are submit-to-completion (time queued in the
        #: pool included: that *is* where a service job's wall-clock
        #: goes under contention)
        pending: dict[concurrent.futures.Future, tuple] = {}
        try:
            while backlog or pending:
                while backlog and len(pending) < window:
                    job, path = backlog.popleft()
                    _index, label, ref, scenario = job
                    payload = (
                        scenario,
                        traces[label] if path is None else None,
                        path,
                        ref,
                    )
                    started = time.perf_counter()
                    future = self._submit(payload)
                    pending[future] = (job, path, started)
                    future.add_done_callback(finished.put)
                future = finished.get()
                job, path, started = pending.pop(future)
                if future.cancelled():
                    raise RuntimeError("evaluation service closed")
                try:
                    outcome = future.result()
                except TraceUnavailableError:
                    backlog.appendleft((job, None))
                    continue
                except concurrent.futures.BrokenExecutor:
                    self._degrade()
                    backlog.appendleft((job, path))
                    continue
                yield job[0], outcome, time.perf_counter() - started
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
            ("submitted", "jobs submitted"),
            ("completed", "jobs finished successfully"),
            ("failed", "jobs that raised"),
            ("pool_launches", "resident pool launches"),
        ):
            registry.counter(name, help).inc(raw[name])
        registry.gauge("workers", "resident pool size").set(self.workers)
        return registry

    def stats(self) -> dict[str, object]:
        """Canonical snake_case snapshot (counters suffixed ``_total``)."""
        return self.stats_registry().snapshot()

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Cancel the queued jobs and stop the pool.

        Idempotent.  Jobs already running finish; a campaign waiting
        on a cancelled job, and every later submission, raises
        ``RuntimeError``.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __repr__(self) -> str:
        return f"EvalService(workers={self.workers}, mode={self.mode!r})"
