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
* a campaign keeps only a window of jobs in the shared pool, so a
  campaign that starts behind a large one is not starved;
* errors raised inside resident workers survive the trip back with
  their type and message intact, and a point that fails mid-stream
  leaves no claim and no result behind.
"""

from __future__ import annotations

import concurrent.futures
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


#: 8 PE counts x 2 caches x 2 policies x 2 reductions: 64 points.
GRID_64 = dict(
    pes=(1, 2, 4, 8, 16, 32, 64, 96),
    cache_policies=("lru", "fifo"),
    reduction_strategies=("host", "subrange"),
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

    def test_unsupported_scenario_error_crosses_the_service(
        self, hydro_trace, make_service
    ):
        """A scenario the timed machine refuses (a mode smuggled past
        ``Scenario``'s own check) raises inside a pool worker, and the
        campaign gets that exception back with its type and message."""
        service = make_service(workers=1)
        scenario = Scenario(
            config=MachineConfig(n_pes=2, page_size=32), backend="timed"
        )
        object.__setattr__(scenario, "mode", "warp")
        jobs = [(0, "hydro", "", scenario)]
        with pytest.raises(ValueError, match="unknown mode 'warp'"):
            list(service.run_jobs(jobs, {"hydro": hydro_trace}))

    def test_unavailable_trace_path_falls_back_to_the_trace(
        self, hydro_trace, make_service, tmp_path
    ):
        """A job whose shipped trace path cannot be loaded (evicted
        after planning) is submitted once more with the trace itself."""
        service = make_service(workers=0)
        scenario = Scenario(
            config=MachineConfig(n_pes=4, page_size=32), backend="untimed"
        )
        outcomes = list(
            service.run_jobs(
                [(0, "hydro", "", scenario)],
                {"hydro": hydro_trace},
                {"hydro": str(tmp_path / "evicted.npz")},
            )
        )
        assert [index for index, _outcome, _wall in outcomes] == [0]
        expected = evaluate_scenario(hydro_trace, scenario)
        assert np.array_equal(
            outcomes[0][1].stats.counts, expected.stats.counts
        )
        stats = service.stats()
        assert (stats["submitted_total"], stats["failed_total"]) == (2, 1)

    def test_a_later_campaign_is_not_starved(self, tmp_path, make_service):
        """The pool starts jobs in arrival order and a campaign keeps
        only a window of them there, so a campaign started behind a
        64-point one waits for that window, not for the whole grid."""
        service = make_service(workers=1)
        store = TraceStore(tmp_path / "store")
        big = small_spec("svc-big", **GRID_64)
        late = small_spec("svc-late", pes=(3,))
        assert big.n_points == 64 and late.n_points == 2
        assert not unique_points(big) & unique_points(late)
        arrived: list = []
        two_done = threading.Event()
        errors: list[BaseException] = []

        def stream_big() -> None:
            try:
                for record in run_campaign(
                    big, store=store, service=service, stream=True
                ):
                    arrived.append(record)
                    if len(arrived) == 2:
                        two_done.set()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                two_done.set()

        thread = threading.Thread(target=stream_big, daemon=True)
        thread.start()
        try:
            assert two_done.wait(timeout=120)
            result = run_campaign(late, store=store, service=service)
            arrived_when_late_finished = len(arrived)
        finally:
            thread.join(timeout=300)
        assert not thread.is_alive()
        assert not errors
        assert len(result) == late.n_points
        assert len(arrived) == big.n_points
        assert arrived_when_late_finished < big.n_points // 2

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
        service = make_service(workers=0)
        assert repr(service) == "EvalService(workers=0, mode='inline')"
        stats = service.stats()
        assert sorted(stats) == [
            "completed_total", "failed_total", "mode",
            "pool_launches_total", "submitted_total", "workers",
        ]
        assert stats["mode"] == "inline"

    def test_close_with_inflight_backlog_terminates_promptly(
        self, tmp_path, make_service
    ):
        """Closing the service under a streaming campaign fails the
        stream at once: no hang, no pool relaunched, no claim left."""
        service = make_service(workers=1)
        store = TraceStore(tmp_path / "store")
        spec = small_spec("svc-close", **GRID_64)
        first = threading.Event()
        errors: list[BaseException] = []

        def stream() -> None:
            try:
                for _record in run_campaign(
                    spec, store=store, service=service, stream=True
                ):
                    first.set()
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)
            finally:
                first.set()

        thread = threading.Thread(target=stream, daemon=True)
        thread.start()
        assert first.wait(timeout=120)
        launches = service.stats()["pool_launches_total"]
        started = time.monotonic()
        service.close()
        thread.join(timeout=8.0)
        assert not thread.is_alive()
        assert time.monotonic() - started < 8.0
        assert [str(exc) for exc in errors] == ["evaluation service closed"]
        assert service.stats()["pool_launches_total"] == launches
        assert store.active_leases() == 0

    def test_close_wakes_a_campaign_waiting_on_a_queued_job(
        self, hydro_trace, make_service, monkeypatch
    ):
        """``close()`` cancels the jobs still queued in the pool, and a
        campaign waiting on one raises instead of waiting forever.  A
        thread pool stands in for the process pool, so a gated backend
        can hold its one worker while the campaign waits."""
        monkeypatch.setattr(
            concurrent.futures,
            "ProcessPoolExecutor",
            lambda max_workers, mp_context: (
                concurrent.futures.ThreadPoolExecutor(max_workers)
            ),
        )
        gate, entered = threading.Event(), threading.Event()
        register_backend(_Gated(gate, entered))
        try:
            service = make_service(workers=1)
            scenario = Scenario(
                config=MachineConfig(n_pes=2, page_size=32),
                backend=_Gated.name,
            )
            jobs = [(index, "hydro", "", scenario) for index in range(2)]
            errors: list[BaseException] = []

            def run() -> None:
                try:
                    list(service.run_jobs(jobs, {"hydro": hydro_trace}))
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            assert entered.wait(timeout=60)  # job 0 holds the worker
            closer = threading.Thread(target=service.close, daemon=True)
            closer.start()
            thread.join(timeout=8.0)  # close() still waits for job 0
            assert not thread.is_alive()
            assert [str(exc) for exc in errors] == [
                "evaluation service closed"
            ]
            gate.set()
            closer.join(timeout=60)
            assert not closer.is_alive()
        finally:
            gate.set()
            del _REGISTRY[_Gated.name]

    def test_closed_service_rejects_submissions(
        self, tmp_path, make_service
    ):
        service = make_service(workers=0)
        service.close()
        store = TraceStore(tmp_path / "store")
        with pytest.raises(RuntimeError, match="closed"):
            run_campaign(small_spec("svc-closed"), store=store, service=service)
        assert store.active_leases() == 0

    def test_pool_worker_death_degrades_inline_and_recovers(
        self, hydro_trace, make_service
    ):
        """Kill the resident pool's worker: the next jobs all complete
        inline, with one warning, and the service keeps serving."""
        service = make_service(workers=1)
        traces = {"hydro": hydro_trace}

        def jobs(*pes: int) -> list:
            return [
                (
                    index,
                    "hydro",
                    "",
                    Scenario(
                        config=MachineConfig(n_pes=n_pes, page_size=32),
                        backend="untimed",
                    ),
                )
                for index, n_pes in enumerate(pes)
            ]

        # The first job launches the pool; its worker pids become visible.
        assert len(list(service.run_jobs(jobs(1), traces))) == 1
        workers = list(service._pool._processes.values())
        assert workers
        for proc in workers:
            proc.kill()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes = {
                index: outcome
                for index, outcome, _wall in service.run_jobs(
                    jobs(2, 4, 8), traces
                )
            }
        assert sorted(outcomes) == [0, 1, 2]
        for index, job in enumerate(jobs(2, 4, 8)):
            expected = evaluate_scenario(hydro_trace, job[3])
            assert np.array_equal(
                outcomes[index].stats.counts, expected.stats.counts
            )
        assert service.mode == "inline"
        assert sum("pool broke" in str(w.message) for w in caught) == 1
        # No silent losses: each job that a broken pool failed ran
        # again inline, and every job completed.
        stats = service.stats()
        assert stats["completed_total"] == 4
        assert stats["submitted_total"] == 4 + stats["failed_total"]


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


class _Gated:
    """Untimed physics that waits for ``gate`` once it has set
    ``entered``: a job that holds its worker until the test lets go."""

    name = "gated-untimed"
    scenario_axes: tuple[str, ...] = ()
    result_schema = get_backend("untimed").result_schema
    table_metrics: tuple[str, ...] = ()

    def __init__(self, gate: threading.Event, entered: threading.Event):
        self._gate, self._entered = gate, entered

    def evaluate(self, trace, scenario):
        self._entered.set()
        self._gate.wait(timeout=60)
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
        once: it submitted only a window of its jobs, and the rest never
        run, even while the service goes on to run a later campaign,
        and its claims are abandoned, so that campaign computes every
        point itself instead of deferring to the closed stream."""
        service = make_service(workers=0)
        spec = CampaignSpec(
            name="svc-abandon",
            backend="untimed",
            kernels=(KernelSpec("first_diff", n=96),),
            pes=(1, 2, 4, 8, 16, 32),
            page_sizes=(16, 32),
            cache_elems=(0, 64),
            cache_policies=("lru", "fifo"),
            reduction_strategies=("host", "subrange"),
        )
        assert spec.n_points == 96
        store = TraceStore(tmp_path / "store")
        records = iter(
            run_campaign(spec, store=store, service=service, stream=True)
        )
        next(records)
        records.close()
        assert store.active_leases() == 0
        abandoned = service.stats()["submitted_total"]
        assert abandoned < spec.n_points // 2
        rerun = run_campaign(spec, store=store, service=service)
        assert len(rerun) == spec.n_points
        assert "shared[" not in rerun.executor
        service.close()
        rerun_jobs = sum(not r.cache_hit for r in rerun.records)
        stats = service.stats()
        assert stats["submitted_total"] == abandoned + rerun_jobs
        assert stats["completed_total"] == stats["submitted_total"]

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
