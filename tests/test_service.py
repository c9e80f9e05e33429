"""The shared evaluation service: one resident pool, many campaigns.

An :class:`~repro.engine.EvalService` is an executor a campaign is
handed (``run_campaign(spec, service=svc)``), never a backend:

* a service run is an ordinary run — records ``identical()`` to a
  serial run, results cached under the spec's own backend (a later
  serial run replays them), nothing written to the default store, and
  a timed spec evaluated on the timed machine;
* N concurrent campaigns share **one** worker pool (``pool_launches_total``
  stays at 1) with exactly-once evaluation, asserted through the
  process evaluation counter and the store's entry counts — the
  store's claims are the only deduplication, so with the cache off
  every campaign evaluates each of its own points;
* the admission queue is bounded — a grid larger than the queue still
  completes, it just trickles in;
* errors raised inside resident workers survive the trip back with
  their type and message intact, and a point that fails mid-stream
  leaves no claim and no result behind.
"""

from __future__ import annotations

import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.backends import (
    Scenario,
    backend_names,
    evaluate_scenario,
    evaluation_count,
    get_backend,
    register_backend,
)
from repro.backends.base import _REGISTRY
from repro.core import MachineConfig
from repro.engine import (
    CampaignSpec,
    EvalService,
    KernelSpec,
    ResultKey,
    TraceStore,
    default_store,
    kernel_trace_key,
    run_campaign,
    set_default_store,
)
from repro.engine.service import DEFAULT_QUEUE_SIZE, _FairQueue


@pytest.fixture()
def make_service():
    """Build evaluation services that are closed when the test ends."""
    services: list[EvalService] = []

    def make(**kwargs) -> EvalService:
        service = EvalService(**kwargs)
        services.append(service)
        return service

    yield make
    for service in services:
        service.close()


def small_spec(
    name: str = "svc", pes=(1, 2), backend: str = "untimed", **axes
) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        backend=backend,
        kernels=(KernelSpec("first_diff", n=96),),
        pes=pes,
        page_sizes=(16,),
        cache_elems=(0, 64),
        **axes,
    )


def result_key(kernel: KernelSpec, scenario: Scenario) -> ResultKey:
    return ResultKey.make(
        kernel_trace_key(kernel.name, n=kernel.n, seed=kernel.seed), scenario
    )


def unique_points(*specs: CampaignSpec) -> set[ResultKey]:
    return {
        result_key(kernel, scenario)
        for spec in specs
        for kernel, scenario in spec.points()
    }


class TestOrdinaryRun:
    """Scheduling is all a service adds: no physics, no cache namespace."""

    @pytest.fixture()
    def default_elsewhere(self, tmp_path):
        """Point the default store away from every campaign's store."""
        previous = default_store()
        store = TraceStore(tmp_path / "default")
        set_default_store(store)
        yield store
        set_default_store(previous)

    def test_service_is_not_a_backend(self):
        assert "service" not in backend_names()

    def test_records_and_cache_entries_match_a_serial_run(
        self, tmp_path, make_service, default_elsewhere
    ):
        spec = small_spec("svc-ordinary")
        store = TraceStore(tmp_path / "store")
        via_service = run_campaign(
            spec, store=store, service=make_service(workers=0)
        )
        assert via_service.executor == "service[serial]"
        serial = run_campaign(
            spec, store=TraceStore(tmp_path / "fresh"), parallel=False
        )
        assert via_service.identical(serial)
        # Cached under the spec's own backend: a plain serial run over
        # the same store replays every point.
        before = evaluation_count()
        again = run_campaign(spec, store=store, parallel=False)
        assert evaluation_count() == before
        assert f"cache[{spec.n_points}/{spec.n_points}]" in again.executor
        assert again.identical(serial)
        assert default_elsewhere.n_results() == 0

    def test_timed_spec_runs_on_the_timed_machine(
        self, tmp_path, make_service
    ):
        """One service, two physics: each spec runs on its own backend."""
        service = make_service(workers=0)
        store = TraceStore(tmp_path / "store")
        untimed = run_campaign(
            small_spec("svc-untimed"), store=store, service=service
        )
        spec = small_spec(
            "svc-timed", backend="timed", topologies=("mesh", "torus")
        )
        result = run_campaign(spec, store=store, service=service)
        assert "page_fetches" in untimed.records[0].metrics
        assert len(result) == spec.n_points
        assert {r.outcome.backend for r in result.records} == {"timed"}
        assert all("finish_time" in r.metrics for r in result.records)


class TestSharedPool:
    def test_two_concurrent_campaigns_share_one_pool_exactly_once(
        self, tmp_path, make_service
    ):
        """The acceptance criterion: two campaigns, one resident pool,
        every unique point evaluated exactly once (store counters)."""
        service = make_service(workers=1)
        store = TraceStore(tmp_path / "store")
        specs = {
            "a": small_spec("svc-a", pes=(1, 2, 4)),
            "b": small_spec("svc-b", pes=(2, 4, 8)),
        }
        expected = unique_points(*specs.values())
        before = evaluation_count()
        results: dict[str, object] = {}
        errors: list[BaseException] = []

        def drive(name: str) -> None:
            try:
                results[name] = run_campaign(
                    specs[name], store=store, service=service
                )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(name,)) for name in specs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors
        assert sorted(results) == ["a", "b"]

        # Exactly-once: the evaluation counter (parent + merged worker
        # counts) covers every unique point once, the store holds one
        # entry per point, and the pool was launched exactly once.
        assert evaluation_count() - before == len(expected)
        assert store.n_results() == len(expected)
        stats = service.stats()
        assert stats["pool_launches_total"] <= 1  # 0 when forced inline
        # Planning claimed every point, so no duplicate reached the queue.
        assert stats["submitted_total"] == len(expected)
        assert stats["completed_total"] == stats["submitted_total"]
        for result in results.values():
            assert result.executor.startswith("service[")

        # Both campaigns match isolated serial baselines bit for bit.
        for name, spec in specs.items():
            baseline = run_campaign(
                spec,
                store=TraceStore(tmp_path / f"base-{name}"),
                parallel=False,
            )
            assert results[name].identical(baseline)

    def test_uncached_overlapping_campaigns_each_evaluate_every_point(
        self, tmp_path, make_service
    ):
        """With ``use_cache=False`` nothing is claimed, so each campaign
        evaluates all of its own points, as its serial run would —
        overlapping points included."""
        service = make_service(workers=2)
        store = TraceStore(tmp_path / "store")
        specs = [
            small_spec("svc-x", pes=(1, 2, 4)),
            small_spec("svc-y", pes=(2, 4, 8)),
            small_spec("svc-z", pes=(1, 4, 8)),
        ]
        results: dict[int, object] = {}
        errors: list[BaseException] = []

        def drive(slot: int) -> None:
            try:
                results[slot] = run_campaign(
                    specs[slot], store=store, service=service,
                    use_cache=False,
                )
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(slot,))
            for slot in range(len(specs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive()
        assert not errors
        stats = service.stats()
        total = sum(spec.n_points for spec in specs)
        assert stats["submitted_total"] == total
        assert stats["completed_total"] == total
        assert store.n_results() == 0
        for slot, spec in enumerate(specs):
            baseline = run_campaign(
                spec, store=store, parallel=False, use_cache=False
            )
            assert results[slot].identical(baseline)

    def test_pool_parameters_are_validated(self):
        with pytest.raises(ValueError, match="workers"):
            EvalService(workers=-1)
        with pytest.raises(ValueError, match="queue_size"):
            EvalService(queue_size=0)

    def test_unsupported_scenario_error_crosses_the_service(
        self, hydro_trace, make_service
    ):
        """A scenario the timed machine refuses (a mode smuggled past
        ``Scenario``'s own check) raises inside a pool worker, and the
        submitter gets that exception back with its type and message."""
        service = make_service(workers=1)
        scenario = Scenario(
            config=MachineConfig(n_pes=2, page_size=32), backend="timed"
        )
        object.__setattr__(scenario, "mode", "warp")
        with pytest.raises(ValueError, match="unknown mode 'warp'"):
            service.submit(hydro_trace, scenario).result(timeout=120)

    def test_bounded_queue_still_completes_large_grids(
        self, tmp_path, make_service
    ):
        service = make_service(workers=0, queue_size=2)
        spec = small_spec("svc-q", pes=(1, 2, 4, 8))
        result = run_campaign(
            spec, store=TraceStore(tmp_path / "store"), service=service
        )
        assert len(result) == spec.n_points
        stats = service.stats()
        assert stats["completed_total"] == spec.n_points
        assert stats["queue_high_water"] <= 2

    def test_second_run_replays_from_cache(self, tmp_path, make_service):
        service = make_service(workers=0)
        spec = small_spec("svc-cache")
        store = TraceStore(tmp_path / "store")
        first = run_campaign(spec, store=store, service=service)
        before = evaluation_count()
        again = run_campaign(spec, store=store, service=service)
        assert evaluation_count() == before
        assert f"cache[{spec.n_points}/{spec.n_points}]" in again.executor
        assert again.identical(first)

    def test_serial_path_round_trips_through_the_service(
        self, tmp_path, make_service
    ):
        """``parallel`` applies only without a service: a campaign
        handed one runs there whatever ``parallel`` says."""
        service = make_service(workers=0)
        spec = small_spec("svc-serial")
        result = run_campaign(
            spec,
            store=TraceStore(tmp_path / "store"),
            parallel=False,
            service=service,
        )
        assert result.executor == "service[serial]"
        assert len(result) == spec.n_points
        assert service.stats()["completed_total"] == spec.n_points

    def test_service_repr_and_stats_shape(self, make_service):
        service = make_service(workers=0, queue_size=7)
        assert "EvalService" in repr(service)
        stats = service.stats()
        for field in (
            "submitted_total", "completed_total", "failed_total",
            "pool_launches_total", "queue_high_water", "workers",
            "queue_size", "queue_campaigns", "mode",
        ):
            assert field in stats
        assert stats["mode"] == "inline"
        assert stats["queue_size"] == 7

    def test_close_with_inflight_backlog_terminates_promptly(
        self, hydro_trace, make_service
    ):
        """Shutdown with queued work must not hang the joins, leak a
        dispatcher thread, relaunch a pool, or leave futures
        unresolved."""
        service = make_service(workers=1, queue_size=256)
        futures = [
            service.submit(
                hydro_trace,
                Scenario(
                    config=MachineConfig(n_pes=pes, page_size=page),
                    backend="untimed",
                ),
            )
            for pes in (1, 2, 4, 8)
            for page in (16, 32, 64, 128)
        ]
        launches_before = service.stats()["pool_launches_total"]
        started = time.monotonic()
        service.close()
        assert time.monotonic() - started < 8.0  # no join-timeout hang
        assert not any(thread.is_alive() for thread in service._threads)
        # The backlog was failed, not evaluated by a resurrected pool.
        stats = service.stats()
        assert stats["pool_launches_total"] == launches_before
        for future in futures:
            assert future.done()
        failed = sum(future.exception() is not None for future in futures)
        assert stats["completed_total"] + failed == len(futures)

    def test_closed_service_rejects_submissions(
        self, hydro_trace, make_service
    ):
        service = make_service(workers=0)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(
                hydro_trace,
                Scenario(
                    config=MachineConfig(n_pes=2, page_size=32),
                    backend="untimed",
                ),
            )

    def test_pool_worker_death_degrades_inline_and_recovers(
        self, hydro_trace, make_service
    ):
        """Kill the resident pool's worker under a queued batch: every
        future still resolves (inline fallback), the queue never
        wedges, and later submissions keep completing."""
        service = make_service(workers=1)

        def scenario(pes: int) -> Scenario:
            return Scenario(
                config=MachineConfig(n_pes=pes, page_size=32),
                backend="untimed",
            )

        # First job launches the pool; its worker pids become visible.
        service.submit(hydro_trace, scenario(1)).result(timeout=120)
        workers = list(service._pool._processes.values())
        assert workers
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            futures = [
                service.submit(hydro_trace, scenario(pes))
                for pes in (2, 4, 8)
            ]
            for proc in workers:
                proc.kill()
            outcomes = [f.result(timeout=120) for f in futures]
            # The queue is not wedged: post-mortem submissions work.
            late = service.submit(hydro_trace, scenario(16)).result(
                timeout=120
            )
        assert all(o.backend == "untimed" for o in outcomes)
        assert late.backend == "untimed"
        assert service.mode == "inline"
        assert any("pool broke" in str(w.message) for w in caught)
        # No silent losses: every submitted job completed.
        stats = service.stats()
        assert stats["completed_total"] == stats["submitted_total"] == 5


class TestFairQueue:
    def test_round_robin_across_campaigns(self):
        """A big backlog cannot starve a later arrival: buckets are
        served alternately, FIFO within each campaign."""
        queue = _FairQueue(16)
        for i in range(4):
            queue.put("big", f"big{i}")
        for i in range(2):
            queue.put("late", f"late{i}")
        order = [queue.get() for _ in range(6)]
        assert order == ["big0", "late0", "big1", "late1", "big2", "big3"]

    def test_global_bound_blocks_and_frees(self):
        queue = _FairQueue(2)
        assert queue.put("a", 1) == 1
        assert queue.put("b", 2) == 2
        blocked = threading.Thread(target=queue.put, args=("a", 3))
        blocked.start()
        blocked.join(timeout=0.05)
        assert blocked.is_alive()  # full: the third put waits
        assert queue.get() == 1
        blocked.join(timeout=5)
        assert not blocked.is_alive()
        assert [queue.get(), queue.get()] == [2, 3]

    def test_close_wakes_a_blocked_put_and_returns_the_backlog(self):
        queue = _FairQueue(2)
        queue.put("a", 1)
        queue.put("b", 2)
        errors: list[BaseException] = []

        def put_third() -> None:
            try:
                queue.put("a", 3)
            except RuntimeError as exc:
                errors.append(exc)

        blocked = threading.Thread(target=put_third)
        blocked.start()
        blocked.join(timeout=0.05)
        assert blocked.is_alive()
        assert sorted(queue.close()) == [1, 2]
        blocked.join(timeout=5)
        assert not blocked.is_alive()
        assert [str(exc) for exc in errors] == ["evaluation service is closed"]
        assert queue.get() is None

    def test_threaded_stress_delivers_every_item_once(self):
        """More producers and consumers than cores on a tiny bound, with
        a short switch interval: every item is delivered exactly once
        (to a consumer or in the closing backlog), and the bound holds."""
        queue = _FairQueue(3)
        depths: list[int] = []
        received: list[tuple[int, int]] = []

        def produce(slot: int) -> None:
            for i in range(150):
                depths.append(queue.put(f"c{slot % 3}", (slot, i)))

        def consume() -> None:
            while (item := queue.get()) is not None:
                received.append(item)

        producers = [
            threading.Thread(target=produce, args=(slot,)) for slot in range(6)
        ]
        consumers = [threading.Thread(target=consume) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in consumers + producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=60)
                assert not thread.is_alive()
            backlog = queue.close()
            for thread in consumers:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        expected = [(slot, i) for slot in range(6) for i in range(150)]
        assert sorted(received + backlog) == expected
        assert max(depths) <= 3


class _FailsOnTwoPEs:
    """Untimed physics, except that every two-PE point raises."""

    name = "fails-on-two-pes"
    scenario_axes: tuple[str, ...] = ()
    result_schema = get_backend("untimed").result_schema
    table_metrics: tuple[str, ...] = ()

    def evaluate(self, trace, scenario):
        if scenario.config.n_pes == 2:
            raise RuntimeError("injected failure at n_pes=2")
        outcome = get_backend("untimed").evaluate(trace, scenario)
        return replace(outcome, backend=self.name)


class _Slow:
    """Untimed physics, a few milliseconds late: the sleep lets the
    submitting thread run while the dispatcher works."""

    name = "slow-untimed"
    scenario_axes: tuple[str, ...] = ()
    result_schema = get_backend("untimed").result_schema
    table_metrics: tuple[str, ...] = ()

    def evaluate(self, trace, scenario):
        time.sleep(0.005)
        outcome = get_backend("untimed").evaluate(trace, scenario)
        return replace(outcome, backend=self.name)


class TestStoreCoordination:
    """Every caller of the store's claim protocol — serial and service
    campaigns, the fleet worker, ``get_result``/``get`` — publishes
    once and leaves no claim behind, whether the point is built, found
    or fails."""

    @pytest.fixture()
    def own_store(self, tmp_path):
        store = TraceStore(tmp_path / "svc-store")
        set_default_store(store)
        yield store
        set_default_store(None)  # conftest's session store resumes

    def test_failed_evaluation_releases_its_claim(
        self, tmp_path, make_service
    ):
        """A point that raises mid-stream, run serially or through a
        service, abandons its claim and publishes nothing — a wedged
        lease would make every retry defer to a corpse."""
        register_backend(_FailsOnTwoPEs())
        try:
            spec = small_spec(
                "svc-fail", pes=(1, 2, 4), backend=_FailsOnTwoPEs.name
            )
            failing = [
                result_key(kernel, scenario)
                for kernel, scenario in spec.points()
                if scenario.config.n_pes == 2
            ]
            assert failing
            runs = {
                "serial": {"parallel": False},
                "service": {"service": make_service(workers=0)},
            }
            for label, how in runs.items():
                store = TraceStore(tmp_path / label)
                with pytest.raises(RuntimeError, match="injected failure"):
                    run_campaign(spec, store=store, **how)
                assert store.active_leases() == 0, label
                assert store.n_results() >= 1, label  # failed mid-stream
                for key in failing:
                    assert store.lookup_result(key, count=False) is None
        finally:
            del _REGISTRY[_FailsOnTwoPEs.name]

    def test_abandoned_stream_cancels_its_queued_jobs(
        self, tmp_path, make_service
    ):
        """A stream closed after one record stops using the service at
        once: the jobs it queued are cancelled, so they never run, even
        while the service goes on to run a later campaign, and its
        claims are abandoned, so that campaign computes every point
        itself instead of deferring to the closed stream."""
        register_backend(_Slow())
        try:
            service = make_service(workers=0)
            spec = CampaignSpec(
                name="svc-abandon",
                backend=_Slow.name,
                kernels=(KernelSpec("first_diff", n=96),),
                pes=(1, 2, 4, 8, 16, 32),
                page_sizes=(16, 32),
                cache_elems=(0, 64),
                cache_policies=("lru", "fifo"),
                reduction_strategies=("host", "subrange"),
            )
            assert spec.n_points == 96 < DEFAULT_QUEUE_SIZE
            store = TraceStore(tmp_path / "store")
            records = iter(
                run_campaign(spec, store=store, service=service, stream=True)
            )
            next(records)
            records.close()
            assert store.active_leases() == 0
            rerun = run_campaign(spec, store=store, service=service)
            assert len(rerun) == spec.n_points
            assert "shared[" not in rerun.executor
            service.close()  # lets a job still running finish
            rerun_jobs = sum(not r.cache_hit for r in rerun.records)
            stats = service.stats()
            assert stats["submitted_total"] == spec.n_points + rerun_jobs
            assert stats["completed_total"] - rerun_jobs < spec.n_points // 2
        finally:
            del _REGISTRY[_Slow.name]

    @pytest.mark.parametrize(
        "caller", ["planning", "deferred", "fleet", "get_result", "get"]
    )
    def test_peer_publish_between_miss_and_claim_is_a_hit(
        self, caller, own_store, monkeypatch
    ):
        """A peer that publishes an entry after a caller's miss but
        before its claim must not cost a second evaluation (or
        interpretation), whichever caller runs the claim protocol: the
        won claim is re-checked, uncounted, and abandoned on a hit."""
        from repro.engine import interpretation_count, kernel_trace_cached
        from repro.fleet.worker import evaluate_point

        peer = TraceStore(own_store.root)  # another process's view
        spec = CampaignSpec(
            name="race",
            backend="untimed",
            kernels=(KernelSpec("first_diff", n=96),),
            pes=(4,),
            page_sizes=(32,),
            cache_elems=(0,),
        )
        _kernel, scenario = next(spec.points())
        trace_key = kernel_trace_key("first_diff", n=96)
        key = ResultKey.make(trace_key, scenario)
        # Built elsewhere, so `own_store` misses the trace too.
        trace = kernel_trace_cached(
            "first_diff", n=96, store=TraceStore(own_store.root.parent / "b")
        )
        published = get_backend("untimed").evaluate(trace, scenario)
        # "deferred": the peer holds the claim when the campaign plans,
        # drops it, then publishes just before the campaign re-claims.
        claims = []
        if caller == "deferred":
            assert peer.claim_result(key) is None
        publish_on = 2 if caller == "deferred" else 1
        original_claim = TraceStore.claim_result
        original_lease = TraceStore.acquire_lease

        def claim(store, claimed_key):
            if store is own_store and claimed_key == key:
                claims.append(claimed_key)
                if len(claims) == publish_on:
                    peer.put_result(key, published)
            gate = original_claim(store, claimed_key)
            if caller == "deferred" and len(claims) == 1:
                peer.abandon_result_claim(key)
            return gate

        def acquire(store, ref, *, kind="result"):
            if caller == "get" and store is own_store and kind == "trace":
                peer.put(trace_key, trace)
            return original_lease(store, ref, kind=kind)

        monkeypatch.setattr(TraceStore, "claim_result", claim)
        monkeypatch.setattr(TraceStore, "acquire_lease", acquire)
        evaluations = evaluation_count()
        interpretations = interpretation_count()
        if caller in ("planning", "deferred"):
            result = run_campaign(spec, store=own_store, parallel=False)
            assert [r.cache_hit for r in result.records] == [True]
            assert np.array_equal(
                result.records[0].outcome.stats.counts,
                published.stats.counts,
            )
        elif caller == "fleet":
            assert not evaluate_point(spec, 0, store=own_store)["computed"]
        elif caller == "get_result":
            own_store.get_result(
                key, lambda: evaluate_scenario(trace, scenario)
            )
        else:
            assert kernel_trace_cached(
                "first_diff", n=96, store=own_store
            ).identical(trace)
        assert len(claims) == (0 if caller == "get" else publish_on)
        assert evaluation_count() == evaluations
        assert interpretation_count() == interpretations
        assert own_store.active_leases() == 0  # the claim was abandoned
