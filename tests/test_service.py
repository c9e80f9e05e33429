"""The shared evaluation service: one resident pool, many campaigns.

The tentpole contracts of ``backend="service"``:

* the service is a *facade* — scenario axes, result schema and
  reduction support are the delegate's, and outcomes are bit-identical
  to evaluating on the delegate directly;
* N concurrent campaigns share **one** worker pool (``pool_launches_total``
  stays at 1) with exactly-once evaluation, asserted through the
  process evaluation counter and the store's entry counts;
* the admission queue is bounded — a grid larger than the queue still
  completes, it just trickles in;
* errors raised inside resident workers (including
  :class:`UnsupportedScenarioError`) survive the trip back with their
  structured fields intact.
"""

from __future__ import annotations

import asyncio
import threading
import warnings

import numpy as np
import pytest

from repro.backends import (
    Scenario,
    UnsupportedScenarioError,
    backend_names,
    configure_service,
    evaluate_scenario,
    evaluation_count,
    get_backend,
    get_service,
    shutdown_service,
)
from repro.backends.service import ServiceSaturatedError, _FairQueue
from repro.core import MachineConfig
from repro.engine import (
    CampaignSpec,
    KernelSpec,
    ResultKey,
    TraceStore,
    kernel_trace_key,
    run_campaign,
)


@pytest.fixture(autouse=True)
def fresh_service():
    """Each test starts (and leaves) the service unconfigured."""
    shutdown_service()
    yield
    shutdown_service()
    configure_service()  # restore the defaults for later test modules


def small_spec(name: str = "svc", pes=(1, 2)) -> CampaignSpec:
    return CampaignSpec(
        name=name,
        backend="service",
        kernels=(KernelSpec("first_diff", n=96),),
        pes=pes,
        page_sizes=(16,),
        cache_elems=(0, 64),
    )


def unique_points(*specs: CampaignSpec) -> set[ResultKey]:
    keys = set()
    for spec in specs:
        for kernel, scenario in spec.points():
            keys.add(
                ResultKey(
                    trace_digest=kernel_trace_key(
                        kernel.name, n=kernel.n, seed=kernel.seed
                    ).digest,
                    scenario_digest=scenario.digest,
                    backend=scenario.backend,
                )
            )
    return keys


class TestFacade:
    def test_registered(self):
        assert "service" in backend_names()
        assert get_backend("service").name == "service"

    def test_axes_and_schema_follow_the_delegate(self):
        service = get_backend("service")
        untimed = get_backend("untimed")
        assert service.scenario_axes == untimed.scenario_axes
        assert service.result_schema == untimed.result_schema
        assert service.supported_reductions is None

        configure_service(delegate="timed")
        timed = get_backend("timed")
        assert service.scenario_axes == timed.scenario_axes
        assert service.result_schema == timed.result_schema
        assert service.supported_reductions == timed.supported_reductions

    def test_spec_validation_uses_the_delegates_axes(self):
        # The untimed delegate consumes no topology axis: sweeping it
        # through the service is rejected exactly as on untimed.
        with pytest.raises(ValueError, match="not used by backend"):
            CampaignSpec(
                name="x", kernels=("iccg",), backend="service",
                topologies=("mesh", "torus"),
            )
        configure_service(delegate="timed", workers=0)
        CampaignSpec(
            name="x", kernels=("iccg",), backend="service",
            topologies=("mesh", "torus"),
        )

    def test_delegate_validation(self):
        with pytest.raises(ValueError, match="delegate to itself"):
            configure_service(delegate="service")
        with pytest.raises(KeyError, match="unknown backend"):
            configure_service(delegate="wormhole")
        with pytest.raises(ValueError, match="workers"):
            configure_service(workers=-1)
        with pytest.raises(ValueError, match="queue_size"):
            configure_service(queue_size=0)

    def test_outcomes_identical_to_the_delegate(self, hydro_trace):
        configure_service(workers=0)  # inline: physics, not scheduling
        config = MachineConfig(n_pes=4, page_size=32, cache_elems=64)
        via_service = evaluate_scenario(
            hydro_trace, Scenario(config=config, backend="service")
        )
        direct = evaluate_scenario(
            hydro_trace, Scenario(config=config, backend="untimed")
        )
        assert via_service.backend == "service"
        assert np.array_equal(via_service.stats.counts, direct.stats.counts)
        assert via_service.metrics == direct.metrics
        for name in direct.per_pe:
            assert np.array_equal(
                via_service.per_pe[name], direct.per_pe[name]
            )

    def test_unsupported_scenario_error_crosses_the_service(
        self, hydro_trace
    ):
        """A strategy no backend has heard of (smuggled past the
        config validator — every valid one is modelled now) hits the
        delegate's backstop inside a pool worker and must come back
        with its structured fields intact."""
        configure_service(delegate="timed", workers=1)
        config = MachineConfig(n_pes=2, page_size=32)
        object.__setattr__(config, "reduction_strategy", "tree")
        scenario = Scenario(config=config, backend="service")
        with pytest.raises(UnsupportedScenarioError) as excinfo:
            get_backend("service").evaluate(hydro_trace, scenario)
        # The structured fields survived the worker → parent pickle.
        assert excinfo.value.backend == "timed"
        assert excinfo.value.knob == "reduction_strategy"
        assert excinfo.value.value == "tree"
        assert excinfo.value.supported == ("host", "subrange")


class TestSharedPool:
    def test_two_concurrent_campaigns_share_one_pool_exactly_once(
        self, tmp_path
    ):
        """The acceptance criterion: two campaigns, one resident pool,
        every unique point evaluated exactly once (store counters)."""
        configure_service(workers=1)
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
                    specs[name], store=store, parallel=True
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
        stats = get_service().stats()
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

    def test_bounded_queue_still_completes_large_grids(self, tmp_path):
        configure_service(workers=0, queue_size=2)
        spec = small_spec("svc-q", pes=(1, 2, 4, 8))
        result = run_campaign(
            spec, store=TraceStore(tmp_path / "store"), parallel=True
        )
        assert len(result) == spec.n_points
        stats = get_service().stats()
        assert stats["completed_total"] == spec.n_points
        assert stats["queue_high_water"] <= 2

    def test_second_run_replays_from_cache(self, tmp_path):
        configure_service(workers=0)
        spec = small_spec("svc-cache")
        store = TraceStore(tmp_path / "store")
        first = run_campaign(spec, store=store, parallel=True)
        before = evaluation_count()
        again = run_campaign(spec, store=store, parallel=True)
        assert evaluation_count() == before
        assert f"cache[{spec.n_points}/{spec.n_points}]" in again.executor
        assert again.identical(first)

    def test_cached_results_do_not_survive_a_delegate_switch(
        self, tmp_path
    ):
        """Service results are cached under ``service:<delegate>``:
        switching delegates must re-evaluate with the new physics,
        never replay the old delegate's outcomes."""
        configure_service(workers=0, delegate="untimed")
        spec = CampaignSpec(
            name="svc-delegate",
            backend="service",
            kernels=(KernelSpec("first_diff", n=96),),
            pes=(1, 2),
            page_sizes=(16,),
            cache_elems=(64,),
        )
        store = TraceStore(tmp_path / "store")
        untimed_run = run_campaign(spec, store=store, parallel=False)
        assert "page_fetches" in untimed_run.records[0].metrics

        configure_service(workers=0, delegate="timed")
        before = evaluation_count()
        timed_run = run_campaign(spec, store=store, parallel=False)
        # Every point re-evaluated (no stale cache hits), and the
        # metrics are the timed machine's, not the untimed ones.
        assert evaluation_count() - before == spec.n_points
        assert "finish_time" in timed_run.records[0].metrics
        assert "page_fetches" not in timed_run.records[0].metrics

        # Switching back replays the original delegate's cache.
        configure_service(workers=0, delegate="untimed")
        before = evaluation_count()
        replay = run_campaign(spec, store=store, parallel=False)
        assert evaluation_count() == before
        assert replay.identical(untimed_run)

    def test_delegate_switch_mid_campaign_skips_caching(self, tmp_path):
        """Reconfiguring the delegate between planning and iteration
        must not file the new delegate's physics under the planned
        cache namespace — the stream warns and caches nothing."""
        configure_service(workers=0, delegate="untimed")
        spec = small_spec("svc-drift")
        store = TraceStore(tmp_path / "store")
        stream = run_campaign(spec, store=store, parallel=True, stream=True)
        configure_service(workers=0, delegate="timed")
        with pytest.warns(RuntimeWarning, match="cache identity"):
            result = stream.result()
        assert len(result) == spec.n_points
        # Honest records (the timed delegate really evaluated them)...
        assert "finish_time" in result.records[0].metrics
        # ...but nothing cached under the stale 'service:untimed' keys.
        assert store.n_results() == 0
        assert store.active_leases() == 0

    def test_serial_path_round_trips_through_the_service(self, tmp_path):
        configure_service(workers=0)
        spec = small_spec("svc-serial")
        result = run_campaign(
            spec, store=TraceStore(tmp_path / "store"), parallel=False
        )
        assert result.executor == "serial"
        assert len(result) == spec.n_points
        assert get_service().stats()["completed_total"] == spec.n_points

    def test_parallel_grid_rejects_mixed_dispatching_backends(
        self, hydro_trace
    ):
        """One parallel grid, one set of physics: mixing the service
        with a direct backend is refused loudly — never evaluated
        under the wrong delegate or inside nested pools."""
        from repro.engine import run_grid

        scenarios = [
            Scenario(config=MachineConfig(n_pes=2, page_size=32),
                     backend="service"),
            Scenario(config=MachineConfig(n_pes=2, page_size=32),
                     backend="untimed"),
        ]
        with pytest.raises(ValueError, match="mix dispatching"):
            run_grid(hydro_trace, scenarios, parallel=True)
        # Serial mixed grids dispatch per scenario and stay correct.
        configure_service(workers=0)
        outcomes = run_grid(hydro_trace, scenarios, parallel=False)
        assert [o.backend for o in outcomes] == ["service", "untimed"]
        assert outcomes[0].metrics == outcomes[1].metrics

    def test_in_flight_deduplication_shares_one_future(self, hydro_trace):
        configure_service(workers=0)
        service = get_service()
        scenario = Scenario(
            config=MachineConfig(n_pes=4, page_size=32), backend="service"
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

    def test_service_repr_and_stats_shape(self):
        configure_service(workers=0, queue_size=7, delegate="untimed")
        service = get_service()
        assert "EvalService" in repr(service)
        stats = service.stats()
        for field in (
            "submitted_total", "completed_total", "failed_total",
            "shared_total", "pool_launches_total", "queue_high_water",
            "in_flight", "workers", "queue_size", "delegate", "mode",
        ):
            assert field in stats
        assert stats["mode"] == "inline"
        assert stats["queue_size"] == 7

    def test_close_with_inflight_backlog_terminates_promptly(
        self, hydro_trace
    ):
        """Shutdown with queued work must not hang the join, leak the
        loop thread, relaunch a pool, or leave futures unresolved."""
        import time

        configure_service(workers=1, queue_size=256)
        service = get_service()
        futures = [
            service.submit(
                hydro_trace,
                Scenario(
                    config=MachineConfig(n_pes=pes, page_size=page),
                    backend="service",
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

    def test_closed_service_rejects_submissions(self, hydro_trace):
        configure_service(workers=0)
        service = get_service()
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(
                hydro_trace,
                Scenario(
                    config=MachineConfig(n_pes=2, page_size=32),
                    backend="service",
                ),
            )

    def test_pool_worker_death_degrades_inline_and_recovers(
        self, hydro_trace
    ):
        """Kill the resident pool's worker under a queued batch: every
        future still resolves (inline fallback), the queue never
        wedges, and later submissions keep completing."""
        configure_service(workers=1)
        service = get_service()

        def scenario(pes: int) -> Scenario:
            return Scenario(
                config=MachineConfig(n_pes=pes, page_size=32),
                backend="service",
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
        assert all(o.backend == "service" for o in outcomes)
        assert late.backend == "service"
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

    def test_max_campaigns_admission_control(self):
        async def scenario():
            queue = _FairQueue(8, max_campaigns=1)
            await queue.put("a", 1)
            with pytest.raises(ServiceSaturatedError, match="admission"):
                await queue.put("b", 2)
            await queue.put("a", 3)  # the admitted campaign still queues
            assert queue.campaigns() == 1
            # Draining a's bucket frees the slot for b.
            assert await queue.get() == 1
            assert await queue.get() == 3
            await queue.put("b", 4)
            assert await queue.get() == 4

        asyncio.run(scenario())

    def test_max_campaigns_config_plumbs_through(self):
        configure_service(workers=0, max_campaigns=3)
        assert get_service().max_campaigns == 3
        with pytest.raises(ValueError, match="max_campaigns"):
            configure_service(max_campaigns=0)


class TestStoreCoordination:
    """Bare ``evaluate_scenario`` calls coordinate through the store.

    ``ServiceBackend.evaluate`` addresses each point by the trace's
    content digest and takes the result-claim lease service-side, so
    one-off evaluations share the campaign machinery: repeats are
    cache hits, failures release their claim.
    """

    @pytest.fixture()
    def own_store(self, tmp_path):
        from repro.engine import set_default_store

        store = TraceStore(tmp_path / "svc-store")
        set_default_store(store)
        yield store
        set_default_store(None)  # conftest's session store resumes

    def test_repeat_evaluation_is_a_store_hit(self, hydro_trace, own_store):
        configure_service(workers=0)
        scenario = Scenario(
            config=MachineConfig(n_pes=4, page_size=32), backend="service"
        )
        first = evaluate_scenario(hydro_trace, scenario)
        assert own_store.n_results() == 1
        assert own_store.active_leases() == 0  # published ⇒ released
        service = get_service()
        completed = service.stats()["completed_total"]
        again = evaluate_scenario(hydro_trace, scenario)
        stats = service.stats()
        assert stats["store_hits_total"] == 1
        assert stats["completed_total"] == completed  # nothing re-ran
        assert again.metrics == first.metrics
        assert np.array_equal(again.stats.counts, first.stats.counts)

    def test_result_is_addressed_by_content_digest(
        self, hydro_trace, own_store
    ):
        configure_service(workers=0)
        scenario = Scenario(
            config=MachineConfig(n_pes=2, page_size=16), backend="service"
        )
        evaluate_scenario(hydro_trace, scenario)
        key = ResultKey(
            trace_digest=hydro_trace.content_digest,
            scenario_digest=scenario.digest,
            backend="service:untimed",
        )
        cached = own_store.lookup_result(key, count=False)
        assert cached is not None
        assert cached.backend == "service"

    def test_failed_evaluation_releases_its_claim(
        self, hydro_trace, own_store
    ):
        """A job that raises must abandon the claim lease — a wedged
        lease would make every retry defer to a corpse."""
        configure_service(workers=0, delegate="timed")
        config = MachineConfig(n_pes=2, page_size=32)
        object.__setattr__(config, "reduction_strategy", "tree")
        with pytest.raises(UnsupportedScenarioError):
            get_backend("service").evaluate(
                hydro_trace, Scenario(config=config, backend="service")
            )
        assert own_store.active_leases() == 0
        assert own_store.n_results() == 0  # nothing published
        # The point is computable again once the knob is fixed.
        ok = get_backend("service").evaluate(
            hydro_trace,
            Scenario(
                config=MachineConfig(n_pes=2, page_size=32),
                backend="service",
            ),
        )
        assert ok.backend == "service"

    def test_peer_publish_between_miss_and_claim_is_a_hit(
        self, hydro_trace, own_store, monkeypatch
    ):
        """A peer that publishes the point after the service's miss but
        before its claim must not cost a second evaluation: the won
        claim is re-checked (uncounted) and abandoned on a hit."""
        configure_service(workers=0)
        config = MachineConfig(n_pes=4, page_size=32)
        scenario = Scenario(config=config, backend="service")
        key = ResultKey(
            trace_digest=hydro_trace.content_digest,
            scenario_digest=scenario.digest,
            backend="service:untimed",
        )
        published = get_backend("untimed").evaluate(
            hydro_trace, Scenario(config=config, backend="untimed")
        )
        peer = TraceStore(own_store.root)  # another process's view
        original = TraceStore.claim_result

        def claim_after_peer_publishes(store, claimed_key):
            if store is own_store and claimed_key == key:
                peer.put_result(claimed_key, published)
            return original(store, claimed_key)

        monkeypatch.setattr(
            TraceStore, "claim_result", claim_after_peer_publishes
        )
        service = get_service()
        before = evaluation_count()
        outcome = service.submit(
            hydro_trace,
            scenario,
            count_eval=True,
            result_key=key,
            store=own_store,
        ).result()
        assert evaluation_count() == before
        stats = service.stats()
        assert stats["store_hits_total"] == 1
        assert stats["completed_total"] == 0
        assert np.array_equal(outcome.stats.counts, published.stats.counts)
        assert own_store.active_leases() == 0  # the claim was abandoned
