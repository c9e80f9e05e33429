"""Backend-dispatched campaign execution: parallel, cached, streamable.

The unit of work is one ``evaluate_scenario(trace, scenario)`` call —
pure, deterministic, and independent of every other point, so a
campaign fans out embarrassingly across cores whatever the backend.
Traces are loaded (or pulled from the :mod:`store
<repro.engine.store>`) exactly once in the parent and handed to the
workers as pool initializer arguments: under the ``fork`` start
method each worker inherits them copy-on-write, paying zero
serialisation cost; under ``spawn``/``forkserver`` they are pickled
once per worker.  Each pool carries its own traces, so any number of
campaigns/streams can be in flight in one process.

Jobs carry their position in the spec's canonical enumeration and
results are reassembled by that index, so the parallel executor
returns records in exactly the serial order — bit-identical output,
whatever the scheduling interleaving (asserted by the test suite).
The pool is created lazily, on first iteration; if it cannot be
created at all (restricted sandboxes without working process
primitives), execution degrades to the serial path with a warning
rather than failing.

Three engine features ride on the same job indexing:

* **result caching** — each job is content-addressed as
  ``(trace digest, scenario digest, backend)`` in the store; hits skip
  evaluation entirely (a fully-cached campaign does not even load its
  traces) and fresh outcomes are persisted for the next run (disable
  with ``use_cache=False``).  Points another in-flight campaign has
  already *claimed* are not re-evaluated either: the stream waits for
  the peer's result and replays it from the store, so two concurrent
  campaigns over one store build every shared entry exactly once
  (the store's claim protocol: one step per point while planning,
  ``get_result`` for a deferred point);
* **streaming** — ``run_campaign(..., stream=True)`` returns a
  :class:`CampaignStream` that yields backend-tagged records as
  workers complete them (cache hits first), for progress reporting on
  long sweeps; ``stream.result()`` drains it into the same
  canonically-ordered :class:`CampaignResult` a non-streaming run
  produces;
* **store accounting** — every evaluated job counts as a use of its
  trace: serial jobs count and stamp it in the parent
  (:meth:`TraceStore.touch <repro.engine.store.TraceStore.touch>`),
  pool workers append a record to a per-process access log
  (:func:`repro.engine.store.append_touch`) that the parent merges on
  campaign completion (access times for the GC's LRU order, hit
  counters, worker-side evaluation counts folded into
  :func:`repro.backends.evaluation_count` via
  :func:`~repro.backends.base.record_evaluations`).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import uuid
import warnings
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .. import obs
from ..backends import EvalOutcome, Scenario, evaluate_scenario
from ..backends.base import record_evaluations
from ..core.simulator import MachineConfig
from ..ir.trace import Trace
from .campaign import CampaignSpec, KernelSpec
from .results import CampaignResult, EvalRecord
from .store import (
    ResultKey,
    TraceStore,
    append_touch,
    default_store,
    kernel_trace_key,
)

if TYPE_CHECKING:
    from .service import EvalService

__all__ = ["CampaignStream", "default_workers", "run_campaign", "run_grid"]

#: Worker-side trace table and (touch_dir, tag) for access logging;
#: set by the pool initializer (it runs in every worker, whatever the
#: start method), never in the parent.
_WORKER_TRACES: dict[str, Trace] = {}
_WORKER_TOUCH: tuple[str, str] | None = None

#: A job is (canonical index, trace label, trace ref, scenario); the
#: ref names the stored trace the job evaluates ("" when
#: the trace is not store-backed, e.g. ``run_grid`` on a bare trace).
_Job = tuple[int, str, str, Scenario]


def default_workers() -> int:
    """Worker count when unspecified: one per available core."""
    return max(1, os.cpu_count() or 1)


def _init_worker(
    traces: dict[str, Trace], touch: tuple[str, str] | None
) -> None:
    global _WORKER_TRACES, _WORKER_TOUCH
    _WORKER_TRACES = traces
    _WORKER_TOUCH = touch


def _eval_job(job: _Job) -> tuple[int, EvalOutcome, float]:
    """Pool-worker entry point: evaluate against the worker's traces."""
    index, label, ref, scenario = job
    t0 = time.perf_counter()
    with obs.span("engine.evaluate", index=index):
        outcome = evaluate_scenario(_WORKER_TRACES[label], scenario)
    wall = time.perf_counter() - t0
    if _WORKER_TOUCH is not None and ref:
        touch_dir, tag = _WORKER_TOUCH
        # One access record per evaluation, to this worker's own file.
        # ``evals=1`` carries the worker-side evaluation count home
        # (the parent's counter never saw it).
        append_touch(touch_dir, tag, ref, evals=1)
    return index, outcome, wall


def _iter_parallel(
    jobs: Sequence[_Job],
    traces: dict[str, Trace],
    workers: int,
    touch: tuple[str, str] | None,
) -> Iterator[tuple[int, EvalOutcome, float]]:
    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else None)
    chunksize = max(1, len(jobs) // (workers * 4))
    # The traces ride in the initializer arguments: fork children
    # (replacements for workers that die mid-run included) inherit
    # them copy-on-write, spawn children unpickle them once each.
    pool = ctx.Pool(
        processes=workers, initializer=_init_worker, initargs=(traces, touch)
    )

    def results() -> Iterator[tuple[int, EvalOutcome, float]]:
        with pool:
            yield from pool.imap_unordered(_eval_job, jobs, chunksize)

    return results()


class _JobRunner:
    """Lazily executes a job list; the pool is created on first use.

    Nothing happens at construction beyond deciding the plan, so a
    runner that is never iterated starts no processes and leaks
    nothing.  ``description`` reports how the jobs actually ran
    ("serial", "parallel[N]", "serial-fallback" if the pool could not
    be created, or the service's tag when one was handed in) and is
    final once iteration has begun.
    """

    def __init__(
        self,
        jobs: Sequence[_Job],
        traces: dict[str, Trace],
        parallel: bool,
        workers: int | None,
        touch: tuple[str, str] | None = None,
        trace_paths: dict[str, str] | None = None,
        used: Callable[[str], None] | None = None,
        service: EvalService | None = None,
    ) -> None:
        self._jobs = jobs
        self._traces = traces
        self._touch = touch
        self._trace_paths = trace_paths
        #: serial jobs report each use of a store-backed trace (by
        #: label) straight to the store
        self._used = used
        self._service = service
        self._parallel = service is None and parallel and len(jobs) >= 2
        self._workers = (
            min(workers or default_workers(), len(jobs))
            if self._parallel
            else 0
        )
        if service is not None:
            self.description = service.description
        else:
            self.description = (
                f"parallel[{self._workers}]" if self._parallel else "serial"
            )

    def _serial(self) -> Iterator[tuple[int, EvalOutcome, float]]:
        for index, label, ref, scenario in self._jobs:
            t0 = time.perf_counter()
            with obs.span("engine.evaluate", index=index):
                outcome = evaluate_scenario(self._traces[label], scenario)
            wall = time.perf_counter() - t0
            if self._used is not None and ref:
                self._used(label)
            yield index, outcome, wall

    def __iter__(self) -> Iterator[tuple[int, EvalOutcome, float]]:
        if self._service is not None:
            yield from self._service.run_jobs(
                self._jobs, self._traces, self._touch, self._trace_paths
            )
            return
        if not self._parallel:
            yield from self._serial()
            return
        try:
            pairs = _iter_parallel(
                self._jobs, self._traces, self._workers, self._touch
            )
        except OSError as exc:
            warnings.warn(
                f"worker pool unavailable ({exc}); falling back to serial",
                RuntimeWarning,
                stacklevel=2,
            )
            self.description = "serial-fallback"
            yield from self._serial()
            return
        yield from pairs


def run_grid(
    trace: Trace,
    scenarios: Sequence[Scenario | MachineConfig],
    *,
    parallel: bool = False,
    workers: int | None = None,
) -> list[EvalOutcome]:
    """Evaluate one trace under many scenarios, in input order.

    The engine primitive beneath :class:`repro.bench.Sweep`: serial by
    default (cheap grids are dominated by pool startup), parallel on
    request, identical results either way.  Bare
    :class:`MachineConfig` items are coerced to default-backend
    (``untimed``) scenarios.
    """
    coerced = [
        s if isinstance(s, Scenario) else Scenario(config=s)
        for s in scenarios
    ]
    jobs: list[_Job] = [(i, "", "", s) for i, s in enumerate(coerced)]
    results = {
        i: outcome
        for i, outcome, _wall in _JobRunner(jobs, {"": trace}, parallel, workers)
    }
    return [results[i] for i in range(len(coerced))]


class CampaignStream:
    """A campaign in flight: iterate records as they complete.

    Construction resolves cache hits, *claims* the points it will
    compute (so a concurrent campaign over the same store defers to
    this one instead of re-evaluating them) and plans the remaining
    jobs — traces are loaded only for kernels that actually need
    evaluating; worker processes start (or, with a ``service``, the
    jobs are submitted to it) on first iteration.  Iterating
    yields :class:`EvalRecord` objects in *completion* order — cache
    hits first (canonical order), then live evaluations as workers
    finish them, then points replayed from peer campaigns — each
    tagged with its canonical ``index``.  :meth:`result` drains
    whatever has not been consumed and assembles the canonical-order
    :class:`CampaignResult`.  On completion the stream merges its pool
    workers' access logs into the store and releases any claims it
    still holds.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        *,
        store: TraceStore | None = None,
        parallel: bool = True,
        workers: int | None = None,
        use_cache: bool = True,
        service: EvalService | None = None,
    ) -> None:
        from .store import kernel_trace_cached

        self.spec = spec
        self._store = store if store is not None else default_store()
        self._use_cache = use_cache
        self._started = time.perf_counter()
        # The tag namespacing this campaign's worker access logs:
        # spec identity for attribution, a nonce for uniqueness when
        # the same spec runs twice concurrently.
        self._touch_tag = f"{spec.digest[:8]}-{uuid.uuid4().hex[:8]}"
        #: shape of every trace *acquired for this run* (a fully-cached
        #: campaign loads no traces and records no shapes)
        self.trace_meta: dict[str, dict[str, int]] = {}
        self._records: list[EvalRecord] = []
        self._done = 0

        trace_keys = {
            kernel.label: kernel_trace_key(
                kernel.name, n=kernel.n, seed=kernel.seed
            )
            for kernel in spec.kernels
        }
        self._points: list[tuple[KernelSpec, Scenario]] = list(spec.points())
        self._cached: list[tuple[int, EvalOutcome]] = []
        self._result_keys: dict[int, ResultKey] = {}
        #: indexes whose result claim this stream currently owns
        self._owned_claims: set[int] = set()
        #: points a peer campaign claimed first: (index, waiter)
        self._deferred: list[tuple[int, object]] = []
        pending: list[tuple[int, KernelSpec, Scenario]] = []
        for index, (kernel, scenario) in enumerate(self._points):
            if self._use_cache:
                key = ResultKey.make(trace_keys[kernel.label], scenario)
                self._result_keys[index] = key
                claim = self._store.try_claim_result(key)
                if claim.hit is not None:
                    self._cached.append((index, claim.hit))
                    continue
                if claim.waiter is not None:
                    # Another in-flight campaign is computing this
                    # exact point: replay its result instead of
                    # building the cache entry twice.
                    self._deferred.append((index, claim.waiter))
                    continue
                self._owned_claims.add(index)
            pending.append((index, kernel, scenario))

        try:
            # Acquire traces only for kernels with work left to do.
            traces: dict[str, Trace] = {}
            trace_paths: dict[str, str] = {}
            for kernel in spec.kernels:
                if not any(k.label == kernel.label for _i, k, _s in pending):
                    continue
                trace = kernel_trace_cached(
                    kernel.name,
                    n=kernel.n,
                    seed=kernel.seed,
                    store=self._store,
                )
                traces[kernel.label] = trace
                # The artifact's on-disk path lets a service hand jobs
                # to its resident workers without pickling the trace
                # per job.
                path = self._store.path_for(trace_keys[kernel.label])
                if service is not None and path.is_file():
                    trace_paths[kernel.label] = str(path)
                self.trace_meta[kernel.label] = {
                    "n_instances": trace.n_instances,
                    "n_reads": trace.n_reads,
                }
        except BaseException:
            # Claims were taken above; a failed construction must not
            # leave peers blocked on events nobody will ever set.
            for index in sorted(self._owned_claims):
                self._store.abandon_result_claim(self._result_keys[index])
            self._owned_claims.clear()
            raise

        jobs: list[_Job] = [
            (i, k.label, trace_keys[k.label].ref, s) for i, k, s in pending
        ]
        self._runner = _JobRunner(
            jobs,
            traces,
            parallel,
            workers,
            touch=(str(self._store.touch_dir), self._touch_tag),
            trace_paths=trace_paths,
            used=lambda label: self._store.touch(trace_keys[label]),
            service=service,
        )
        self._iterator = self._generate()
        if obs.active():
            obs.emit(
                "campaign.start",
                campaign=spec.digest[:8],
                backend=spec.backend,
                points=spec.n_points,
                cached=len(self._cached),
                deferred=len(self._deferred),
            )

    @property
    def executor(self) -> str:
        """How the campaign ran (final once iteration has begun)."""
        description = self._runner.description
        if self._cached:
            description += f"+cache[{len(self._cached)}/{self.spec.n_points}]"
        if self._deferred:
            description += (
                f"+shared[{len(self._deferred)}/{self.spec.n_points}]"
            )
        return description

    def __len__(self) -> int:
        return self.spec.n_points

    def _record(
        self,
        index: int,
        outcome: EvalOutcome,
        *,
        wall_s: float | None = None,
        cache_hit: bool = False,
    ) -> EvalRecord:
        kernel, scenario = self._points[index]
        self._done += 1
        if obs.active():
            obs.emit(
                "campaign.point",
                campaign=self.spec.digest[:8],
                index=index,
                done=self._done,
                total=self.spec.n_points,
                kernel=kernel.label,
                scenario=scenario.label(),
                cache_hit=cache_hit,
                wall_s=wall_s,
            )
        return EvalRecord(
            kernel=kernel,
            outcome=outcome,
            index=index,
            eval_wall_s=wall_s,
            cache_hit=cache_hit,
        )

    def _resolve_deferred(self, index: int, waiter) -> EvalOutcome:
        """Replay a point a peer campaign claimed (compute if it died).

        :meth:`TraceStore.get_result`, continuing the claim protocol
        from the peer's ``waiter``.
        """
        from .store import kernel_trace_cached

        kernel, scenario = self._points[index]

        def compute() -> EvalOutcome:
            trace = kernel_trace_cached(
                kernel.name, n=kernel.n, seed=kernel.seed, store=self._store
            )
            return evaluate_scenario(trace, scenario)

        return self._store.get_result(
            self._result_keys[index], compute, waiter=waiter
        )

    def _generate(self) -> Iterator[EvalRecord]:
        runner_iter = iter(self._runner)
        try:
            for index, outcome in self._cached:
                record = self._record(index, outcome, cache_hit=True)
                self._records.append(record)
                yield record
            for index, outcome, wall in runner_iter:
                if self._use_cache:
                    self._store.put_result(self._result_keys[index], outcome)
                    self._owned_claims.discard(index)
                record = self._record(index, outcome, wall_s=wall)
                self._records.append(record)
                yield record
            for index, event in self._deferred:
                record = self._record(
                    index,
                    self._resolve_deferred(index, event),
                    cache_hit=True,
                )
                self._records.append(record)
                yield record
        finally:
            # Stop the runner (and its worker pool) *before* merging,
            # so an early-abandoned stream cannot leave workers
            # appending access records after their files were swept.
            close = getattr(runner_iter, "close", None)
            if close is not None:
                close()
            # Wake any peer waiting on a point this stream never
            # delivered (abandoned mid-iteration or errored).
            for index in sorted(self._owned_claims):
                self._store.abandon_result_claim(self._result_keys[index])
            self._owned_claims.clear()
            # Merge this campaign's worker access logs: access times
            # feed the GC's LRU order, and the workers' evaluation
            # counts join the process counter.
            merged = self._store.merge_touches(self._touch_tag)
            if merged["evaluations"]:
                record_evaluations(merged["evaluations"])
            # Telemetry follows the same per-process pattern: workers
            # emitted into per-process JSONL files; fold them into the
            # merged log now that the pool is closed.
            if obs.active():
                obs.emit(
                    "campaign.done",
                    campaign=self.spec.digest[:8],
                    points=self.spec.n_points,
                    delivered=self._done,
                    elapsed_s=time.perf_counter() - self._started,
                )
                obs.merge()

    def __iter__(self) -> Iterator[EvalRecord]:
        """Single-pass: every record is yielded exactly once."""
        return self._iterator

    def result(self) -> CampaignResult:
        """Drain any unconsumed records and assemble the final result."""
        for _record in self._iterator:
            pass
        return CampaignResult.from_records(
            self.spec,
            self._records,
            trace_meta=self.trace_meta,
            executor=self.executor,
            elapsed_s=time.perf_counter() - self._started,
            store_stats=self._store.stats(),
        )


def run_campaign(
    spec: CampaignSpec,
    *,
    store: TraceStore | None = None,
    parallel: bool = True,
    workers: int | None = None,
    stream: bool = False,
    use_cache: bool = True,
    service: EvalService | None = None,
) -> CampaignResult | CampaignStream:
    """Execute a campaign: acquire traces once, fan scenarios out.

    Traces come from ``store`` (the default store when ``None``) —
    interpreted at most once per machine, then replayed from ``.npz``.
    Evaluations dispatch through the backend registry, so the same
    call runs untimed and timed campaigns alike.  ``service`` (an
    :class:`~repro.engine.service.EvalService`) runs the remaining
    jobs on that resident pool, shared by every campaign handed the
    same service, instead of forking a pool of its own; ``parallel``
    and ``workers`` apply only without one.  With
    ``use_cache`` (the default) previously-evaluated points replay
    from the store's result cache without simulating, and points a
    concurrent campaign has claimed — a thread of this process, or an
    independent process holding a lock-file lease on the shared store
    root — are awaited and replayed rather than re-built.
    ``stream=True`` returns a :class:`CampaignStream` yielding records
    as they complete; otherwise records arrive assembled in the spec's
    canonical order regardless of how the pool interleaved the work.
    """
    s = CampaignStream(
        spec,
        store=store,
        parallel=parallel,
        workers=workers,
        use_cache=use_cache,
        service=service,
    )
    return s if stream else s.result()
