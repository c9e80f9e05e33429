"""The shared evaluation service: one resident pool, many campaigns.

An :class:`~repro.engine.EvalService` is an executor a campaign is
handed (``run_campaign(spec, service=svc)``), never a backend:

* a service run is an ordinary run — records ``identical()`` to a
  serial run, results cached under the spec's own backend (a later
  serial run replays them), nothing written to the default store, and
  a timed spec evaluated on the timed machine;
* N concurrent campaigns share **one** worker pool (``pool_launches_total``
  stays at 1) with exactly-once evaluation, asserted through the
  process evaluation counter and the store's entry counts;
* the admission queue is bounded — a grid larger than the queue still
  completes, it just trickles in;
* errors raised inside resident workers (including
  :class:`UnsupportedScenarioError`) survive the trip back with their
  structured fields intact, and a point that fails mid-stream leaves
  no claim and no result behind.
"""

from __future__ import annotations

import asyncio
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.backends import (
    Scenario,
    UnsupportedScenarioError,
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
from repro.engine.service import _FairQueue


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

    def test_pool_parameters_are_validated(self):
        with pytest.raises(ValueError, match="workers"):
            EvalService(workers=-1)
        with pytest.raises(ValueError, match="queue_size"):
            EvalService(queue_size=0)

    def test_unsupported_scenario_error_crosses_the_service(
        self, hydro_trace, make_service
    ):
        """A strategy no backend has heard of (smuggled past the
        config validator — every valid one is modelled now) hits the
        backend's backstop inside a pool worker and must come back
        with its structured fields intact."""
        service = make_service(workers=1)
        config = MachineConfig(n_pes=2, page_size=32)
        object.__setattr__(config, "reduction_strategy", "tree")
        scenario = Scenario(config=config, backend="timed")
        with pytest.raises(UnsupportedScenarioError) as excinfo:
            service.submit(hydro_trace, scenario).result(timeout=120)
        # The structured fields survived the worker → parent pickle.
        assert excinfo.value.backend == "timed"
        assert excinfo.value.knob == "reduction_strategy"
        assert excinfo.value.value == "tree"
        assert excinfo.value.supported == ("host", "subrange")

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

    def test_in_flight_deduplication_shares_one_future(
        self, hydro_trace, make_service
    ):
        service = make_service(workers=0)
        scenario = Scenario(
            config=MachineConfig(n_pes=4, page_size=32), backend="untimed"
        )
        futures = [
            service.submit(hydro_trace, scenario) for _ in range(4)
        ]
        outcomes = {id(f.result()) for f in futures}
        stats = service.stats()
        # All four submissions resolved; later ones shared the first's
        # future whenever it was still in flight.
        assert stats["completed_total"] + stats["shared_total"] == 4
        assert len(outcomes) <= stats["completed_total"]

    def test_service_repr_and_stats_shape(self, make_service):
        service = make_service(workers=0, queue_size=7)
        assert "EvalService" in repr(service)
        stats = service.stats()
        for field in (
            "submitted_total", "completed_total", "failed_total",
            "shared_total", "pool_launches_total", "queue_high_water",
            "in_flight", "workers", "queue_size", "mode",
        ):
            assert field in stats
        assert stats["mode"] == "inline"
        assert stats["queue_size"] == 7

    def test_close_with_inflight_backlog_terminates_promptly(
        self, hydro_trace, make_service
    ):
        """Shutdown with queued work must not hang the join, leak the
        loop thread, relaunch a pool, or leave futures unresolved."""
        import time

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
        assert not service._thread.is_alive()
        # The backlog was failed, not evaluated by a resurrected pool.
        assert service.stats()["pool_launches_total"] == launches_before
        for future in futures:
            assert future.done()

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
        # No silent losses: everything submitted either completed or
        # was shared; nothing is left in flight.
        stats = service.stats()
        assert stats["in_flight"] == 0
        assert stats["completed_total"] + stats["shared_total"] >= 5


class TestFairQueue:
    def test_round_robin_across_campaigns(self):
        """A big backlog cannot starve a later arrival: buckets are
        served alternately, FIFO within each campaign."""

        async def scenario():
            queue = _FairQueue(16)
            for i in range(4):
                await queue.put("big", f"big{i}")
            for i in range(2):
                await queue.put("late", f"late{i}")
            return [await queue.get() for _ in range(6)]

        order = asyncio.run(scenario())
        assert order == ["big0", "late0", "big1", "late1", "big2", "big3"]

    def test_global_bound_blocks_and_frees(self):
        async def scenario():
            queue = _FairQueue(2)
            await queue.put("a", 1)
            await queue.put("b", 2)
            blocked = asyncio.ensure_future(queue.put("a", 3))
            await asyncio.sleep(0.01)
            assert not blocked.done()  # full: the third put waits
            assert await queue.get() == 1
            await asyncio.wait_for(blocked, timeout=5)
            assert queue.qsize() == 2

        asyncio.run(scenario())


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
