"""Backend-dispatched campaign execution: parallel, cached, streamable.

The unit of work is one ``evaluate_scenario(trace, scenario)`` call —
pure, deterministic, and independent of every other point, so a
campaign fans out embarrassingly across cores whatever the backend.
Traces are loaded (or pulled from the :mod:`store
<repro.engine.store>`) exactly once in the parent and *shared* with
the workers: under the ``fork`` start method the worker pool inherits
the parent's trace table copy-on-write, paying zero serialisation
cost; under ``spawn``/``forkserver`` the table is shipped once per
worker through the pool initializer.  Serial execution never touches
shared state, so any number of campaigns/streams can be in flight in
one process.

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
  campaigns over one store build every shared entry exactly once;
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
from itertools import count
from typing import Callable, Iterator, Sequence

from .. import obs
from ..backends import EvalOutcome, Scenario, evaluate_scenario, get_backend
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

__all__ = ["CampaignStream", "default_workers", "run_campaign", "run_grid"]

#: Traces published to pool workers, keyed by "<launch>:<label>" so
#: concurrent parallel campaigns never collide.  A launch's entries
#: live exactly as long as its pool (fork children — including
#: replacements for workers that die mid-run — inherit the table
#: copy-on-write at fork time; spawn children receive it through
#: ``_init_worker``) and are removed when the pool closes.
_SHARED_TRACES: dict[str, Trace] = {}

#: Worker-side (touch_dir, tag) for access logging; set by
#: the pool initializer (it runs in every worker, whatever the start
#: method), never in the parent.
_WORKER_TOUCH: tuple[str, str] | None = None

#: Distinguishes concurrent launches in ``_SHARED_TRACES``.
_launch_ids = count()

#: A job is (canonical index, trace label, trace ref, scenario); the
#: ref names the stored trace the job evaluates ("" when
#: the trace is not store-backed, e.g. ``run_grid`` on a bare trace).
_Job = tuple[int, str, str, Scenario]

#: How long a stream waits for a peer campaign's claimed point before
#: giving up and evaluating it locally.
_CLAIM_TIMEOUT_S = 120.0


def default_workers() -> int:
    """Worker count when unspecified: one per available core."""
    return max(1, os.cpu_count() or 1)


def _init_worker(
    traces: dict[str, Trace] | None, touch: tuple[str, str] | None
) -> None:
    global _WORKER_TOUCH
    _WORKER_TOUCH = touch
    if traces is not None:  # spawn/forkserver: table arrives pickled
        _SHARED_TRACES.clear()
        _SHARED_TRACES.update(traces)


def _eval_job(job: _Job) -> tuple[int, EvalOutcome, float]:
    """Pool-worker entry point: evaluate against the inherited table."""
    index, label, ref, scenario = job
    t0 = time.perf_counter()
    with obs.span("engine.evaluate", index=index):
        outcome = evaluate_scenario(_SHARED_TRACES[label], scenario)
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
    fork = ctx.get_start_method() == "fork"
    chunksize = max(1, len(jobs) // (workers * 4))
    # Namespace this launch's table entries and keep them published for
    # the pool's whole lifetime, so replacement workers forked after a
    # worker death still inherit a complete table while concurrent
    # launches cannot collide.
    launch = next(_launch_ids)
    namespaced = {f"{launch}:{label}": t for label, t in traces.items()}
    jobs = [
        (index, f"{launch}:{label}", ref, scenario)
        for index, label, ref, scenario in jobs
    ]
    initargs = (None, touch) if fork else (namespaced, touch)
    _SHARED_TRACES.update(namespaced)
    try:
        pool = ctx.Pool(
            processes=workers, initializer=_init_worker, initargs=initargs
        )
    except BaseException:
        for key in namespaced:
            _SHARED_TRACES.pop(key, None)
        raise

    def results() -> Iterator[tuple[int, EvalOutcome, float]]:
        try:
            with pool:
                yield from pool.imap_unordered(_eval_job, jobs, chunksize)
        finally:
            for key in namespaced:
                _SHARED_TRACES.pop(key, None)

    return results()


class _JobRunner:
    """Lazily executes a job list; the pool is created on first use.

    Nothing happens at construction beyond deciding the plan, so a
    runner that is never iterated starts no processes and leaks
    nothing.  ``description`` reports how the jobs actually ran
    ("serial", "parallel[N]", or "serial-fallback" if the pool could
    not be created) and is final once iteration has begun.
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
    ) -> None:
        self._jobs = jobs
        self._traces = traces
        self._touch = touch
        self._trace_paths = trace_paths or {}
        #: serial jobs report each use of a store-backed trace (by
        #: label) straight to the store
        self._used = used
        # A dispatching backend (the shared evaluation service) takes
        # whole job lists instead of having a pool forked around it:
        # submitting through it is what lets N concurrent campaigns
        # share one resident worker pool.  Dispatch applies only to a
        # *homogeneous* job list — a dispatcher evaluates with one
        # delegate, so handing it a mixed grid would silently swap
        # physics, and sending service jobs into forked pool workers
        # would spawn a nested service per worker.  Campaigns are
        # homogeneous by construction; a mixed parallel run_grid must
        # split (serially, mixed grids dispatch per scenario).
        self._dispatcher = None
        if jobs:
            backends = {scenario.backend for _i, _l, _r, scenario in jobs}
            dispatching = {
                name
                for name in backends
                if hasattr(get_backend(name), "dispatch_jobs")
            }
            if dispatching and len(backends) > 1:
                if parallel:
                    raise ValueError(
                        f"cannot mix dispatching backend(s) "
                        f"{sorted(dispatching)} with other backends "
                        f"{sorted(backends - dispatching)} in one "
                        "parallel grid; run them as separate grids "
                        "(or serially)"
                    )
            elif dispatching:
                self._dispatcher = get_backend(next(iter(backends)))
        #: dispatch the whole list at once (parallel) vs one job at a
        #: time (serial pacing, but still through the resident pool so
        #: traces ship by path instead of being pickled per job)
        self._bulk_dispatch = parallel and self._dispatcher is not None
        self._parallel = (
            parallel and len(jobs) >= 2 and self._dispatcher is None
        )
        self._workers = (
            min(workers or default_workers(), len(jobs))
            if self._parallel
            else 0
        )
        if self._bulk_dispatch:
            # dispatch_label is optional on the dispatching-backend
            # extension; fall back to a generic tag for custom
            # backends that only implement dispatch_jobs.
            label = getattr(self._dispatcher, "dispatch_label", None)
            self.description = (
                label() if label else f"dispatch[{self._dispatcher.name}]"
            )
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

    @staticmethod
    def _with_wall(
        items: Iterator[tuple],
    ) -> Iterator[tuple[int, EvalOutcome, float]]:
        """Normalise dispatcher output: old-style (index, outcome)
        pairs from custom dispatching backends gain ``wall=None``."""
        for item in items:
            if len(item) == 2:
                index, outcome = item
                yield index, outcome, None
            else:
                yield item

    def __iter__(self) -> Iterator[tuple[int, EvalOutcome, float]]:
        if self._dispatcher is not None:
            if self._bulk_dispatch:
                yield from self._with_wall(
                    self._dispatcher.dispatch_jobs(
                        self._jobs,
                        self._traces,
                        self._touch,
                        trace_paths=self._trace_paths,
                    )
                )
            else:
                # Serial pacing, same machinery: one job in flight at
                # a time, but still through the dispatcher, so traces
                # travel by artifact path and resident workers memoise
                # them instead of unpickling the trace per point.
                for job in self._jobs:
                    yield from self._with_wall(
                        self._dispatcher.dispatch_jobs(
                            [job],
                            self._traces,
                            self._touch,
                            trace_paths=self._trace_paths,
                        )
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
    (``untimed-vec``) scenarios.
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
    evaluating; worker processes start on first iteration.  Iterating
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
        #: points a peer campaign claimed first: (index, event)
        self._deferred: list[tuple[int, object]] = []
        pending: list[tuple[int, KernelSpec, Scenario]] = []
        for index, (kernel, scenario) in enumerate(self._points):
            if self._use_cache:
                # ResultKey.make resolves the backend's *cache
                # identity* (the service includes its delegate:
                # "service:untimed"), so cached physics never
                # survives a delegate switch.
                key = ResultKey.make(trace_keys[kernel.label], scenario)
                self._result_keys[index] = key
                outcome = self._store.lookup_result(key)
                if outcome is not None:
                    self._cached.append((index, outcome))
                    continue
                event = self._store.claim_result(key)
                if event is not None:
                    # Another in-flight campaign is computing this
                    # exact point: replay its result instead of
                    # building the cache entry twice.
                    self._deferred.append((index, event))
                    continue
                # Won the claim — but a peer may have delivered this
                # point between our miss and the claim; re-check
                # (uncounted) before planning an evaluation.
                outcome = self._store.lookup_result(key, count=False)
                if outcome is not None:
                    self._store.abandon_result_claim(key)
                    self._cached.append((index, outcome))
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
                # The artifact's on-disk path lets a dispatching
                # backend (the shared service) hand jobs to resident
                # workers without pickling the trace per job.
                path = self._store.path_for(trace_keys[kernel.label])
                if path.is_file():
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

    def _resolve_deferred(self, index: int, event) -> EvalOutcome:
        """Replay a point a peer campaign claimed (compute if it died).

        The peer may be a thread of this process (``event`` is its
        claim's :class:`threading.Event`) or another process entirely
        (``event`` is a lease waiter polling the shared store root).
        If the peer abandons the point — error, dropped stream, or a
        crash that lets its lease lapse — this stream *re-claims* it
        before evaluating locally, so several deferred campaigns
        recovering from one dead peer still build the entry once.  A
        peer that stays alive but wedged is only waited on for
        ``_CLAIM_TIMEOUT_S`` in total: past that, this stream builds
        the point without a claim (a redundant but benign evaluation —
        identical content, atomically replaced) rather than blocking
        the campaign forever.
        """
        from .store import kernel_trace_cached

        key = self._result_keys[index]
        waiter = event
        claimed = False
        deadline = time.monotonic() + _CLAIM_TIMEOUT_S
        while True:
            waiter.wait(timeout=max(0.0, deadline - time.monotonic()))
            outcome = self._store.lookup_result(key)
            if outcome is not None:
                return outcome
            if time.monotonic() >= deadline:
                break  # wedged-but-alive peer: stop deferring
            claim = self._store.claim_result(key)
            if claim is None:
                # Our turn to build — unless the result landed between
                # the miss and the claim.
                outcome = self._store.lookup_result(key, count=False)
                if outcome is not None:
                    self._store.abandon_result_claim(key)
                    return outcome
                claimed = True
                break
            waiter = claim  # another peer took over; defer again
        kernel, scenario = self._points[index]
        try:
            trace = kernel_trace_cached(
                kernel.name, n=kernel.n, seed=kernel.seed, store=self._store
            )
            outcome = evaluate_scenario(trace, scenario)
        except BaseException:
            if claimed:
                self._store.abandon_result_claim(key)
            raise
        self._store.put_result(key, outcome)
        return outcome

    def _current_cache_identity(self) -> str:
        from ..backends.base import cache_identity_of

        return cache_identity_of(self.spec.backend)

    def _generate(self) -> Iterator[EvalRecord]:
        runner_iter = iter(self._runner)
        identity_warned = False
        try:
            for index, outcome in self._cached:
                record = self._record(index, outcome, cache_hit=True)
                self._records.append(record)
                yield record
            for index, outcome, wall in runner_iter:
                if self._use_cache:
                    key = self._result_keys[index]
                    if key.backend == self._current_cache_identity():
                        self._store.put_result(key, outcome)
                    else:
                        # The backend's cache identity drifted between
                        # planning and execution (e.g. the service's
                        # delegate was reconfigured mid-campaign):
                        # caching under the planned key would file
                        # this outcome's physics in the wrong
                        # namespace, so drop the claim uncached.
                        if not identity_warned:
                            identity_warned = True
                            warnings.warn(
                                f"backend {self.spec.backend!r} changed "
                                f"cache identity mid-campaign (planned "
                                f"{key.backend!r}); results will not be "
                                "cached",
                                RuntimeWarning,
                                stacklevel=2,
                            )
                        self._store.abandon_result_claim(key)
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
) -> CampaignResult | CampaignStream:
    """Execute a campaign: acquire traces once, fan scenarios out.

    Traces come from ``store`` (the default store when ``None``) —
    interpreted at most once per machine, then replayed from ``.npz``.
    Evaluations dispatch through the backend registry, so the same
    call runs untimed, timed and service campaigns alike; with
    ``backend="service"`` the parallel path submits the grid to the
    process-wide resident worker pool (shared by every concurrent
    campaign) instead of forking a pool of its own.  With
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
    )
    return s if stream else s.result()
