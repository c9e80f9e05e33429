"""Engine benchmarks — serial vs parallel fan-out, cold vs warm store.

Times the axes the ``repro.engine`` subsystem adds on top of the
simulator core: (1) evaluating one campaign's configuration grid
serially vs through the multiprocessing executor, (2) acquiring
campaign traces with a cold store (interpret + persist) vs a warm one
(replay ``.npz``, zero interpreter executions — asserted), (3) a
garbage-collection pass over a populated sharded store (eviction
ordering asserted: results before traces), and (4) N *concurrent*
campaigns over one shared evaluation service vs N independently
forked worker pools.
"""

from __future__ import annotations

import shutil
import threading
import time
from dataclasses import replace

from repro.engine import (
    CampaignSpec,
    EvalService,
    KernelSpec,
    TraceStore,
    interpretation_count,
    run_campaign,
)

from _util import fast, once, save, trace_store

#: 3 kernels × (7 PEs × 2 page sizes × 2 cache settings) = 84 configs.
CAMPAIGN = CampaignSpec(
    name="bench-engine",
    kernels=(
        KernelSpec("hydro_fragment", n=1000),
        KernelSpec("iccg", n=1024),
        KernelSpec("hydro_2d", n=100),
    ),
    pes=(1, 2, 4, 8, 16, 32, 64),
    page_sizes=(32, 64),
    cache_elems=(256, 0),
)

#: CI's benchmark-smoke job (REPRO_BENCH_FAST=1) trades precision for
#: wall time: smaller kernels and a thinner grid derived from the
#: full-precision spec, so the remaining axes can never drift apart.
if fast():
    CAMPAIGN = replace(
        CAMPAIGN,
        name="bench-engine-fast",
        kernels=(
            KernelSpec("hydro_fragment", n=200),
            KernelSpec("iccg", n=256),
            KernelSpec("hydro_2d", n=40),
        ),
        pes=(1, 4, 16),
        page_sizes=(32,),
    )


def _warm_store() -> TraceStore:
    """The shared harness store, pre-warmed for CAMPAIGN's kernels."""
    store = trace_store()
    run_campaign(CAMPAIGN, store=store, parallel=False)  # seed entries
    return store


def test_engine_campaign_serial(benchmark):
    store = _warm_store()
    # use_cache=False: time the evaluations, not result-cache lookups.
    result = once(
        benchmark,
        lambda: run_campaign(
            CAMPAIGN, store=store, parallel=False, use_cache=False
        ),
    )
    assert result.executor == "serial"
    assert len(result) == CAMPAIGN.n_points
    benchmark.extra_info["points"] = len(result)


def test_engine_campaign_parallel(benchmark):
    store = _warm_store()
    baseline = run_campaign(
        CAMPAIGN, store=store, parallel=False, use_cache=False
    )
    result = once(
        benchmark,
        lambda: run_campaign(
            CAMPAIGN, store=store, parallel=True, use_cache=False
        ),
    )
    assert result.executor.startswith(("parallel[", "serial"))
    benchmark.extra_info["executor"] = result.executor
    # Whatever the interleaving, the output is bit-identical.
    assert baseline.identical(result)
    save(
        "engine_campaign",
        f"engine campaign: {CAMPAIGN.n_points} points, "
        f"executor {result.executor}, "
        f"{result.elapsed_s:.3f}s wall",
    )


def test_result_cache_warm(benchmark, tmp_path):
    """A repeated identical campaign replays entirely from the result
    cache — zero backend evaluations, pure store lookups."""
    from repro.backends import evaluation_count

    root = tmp_path / "result-cache"
    run_campaign(CAMPAIGN, store=TraceStore(root), parallel=False)

    def cached_run():
        store = TraceStore(root)  # cold memory, warm disk
        before = evaluation_count()
        result = run_campaign(CAMPAIGN, store=store, parallel=False)
        return evaluation_count() - before, result

    evaluated, result = once(benchmark, cached_run)
    assert evaluated == 0
    assert len(result) == CAMPAIGN.n_points
    benchmark.extra_info["executor"] = result.executor


def test_trace_store_cold(benchmark, tmp_path):
    """Cold acquisition: interpret every kernel and persist the traces."""
    def cold_run():
        root = tmp_path / "cold"
        shutil.rmtree(root, ignore_errors=True)
        store = TraceStore(root)
        before = interpretation_count()
        run_campaign(CAMPAIGN, store=store, parallel=False)
        return interpretation_count() - before

    interpreted = once(benchmark, cold_run)
    assert interpreted == len(CAMPAIGN.kernels)


def test_trace_store_warm(benchmark, tmp_path):
    """Warm acquisition: replay ``.npz`` files, zero interpretations.

    Caching is disabled so every point genuinely evaluates and the
    traces really are loaded from their shards (a cached re-run would
    not touch the trace store at all).
    """
    root = tmp_path / "warm"
    run_campaign(CAMPAIGN, store=TraceStore(root), parallel=False)

    def warm_run():
        store = TraceStore(root)  # cold memory, warm disk
        before = interpretation_count()
        run_campaign(CAMPAIGN, store=store, parallel=False, use_cache=False)
        return interpretation_count() - before, store.counters.disk_hits

    interpreted, disk_hits = once(benchmark, warm_run)
    assert interpreted == 0
    assert disk_hits == len(CAMPAIGN.kernels)


#: The concurrent-campaign case: three campaigns over one kernel's
#: trace, 28 points each, run with the result cache off.  Their
#: cache-0 points overlap; both sides evaluate every point of every
#: campaign, so the comparison is pool against pool, not a dedup.
def _concurrent_specs() -> list[CampaignSpec]:
    return [
        CampaignSpec(
            name=f"bench-concurrent-{slot}",
            backend="untimed",
            kernels=(
                KernelSpec("hydro_fragment", n=200 if fast() else 1000),
            ),
            pes=(1, 4, 16) if fast() else (1, 2, 4, 8, 16, 32, 64),
            page_sizes=(32, 64),
            cache_elems=(256 + slot, 0),  # distinct grids per campaign
        )
        for slot in range(3)
    ]


def _drive_concurrently(specs, store, **kwargs) -> float:
    """Run every campaign on its own thread; wall time of the batch."""
    errors: list[BaseException] = []

    def drive(spec: CampaignSpec) -> None:
        try:
            result = run_campaign(spec, store=store, use_cache=False, **kwargs)
            assert len(result) == spec.n_points
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(spec,)) for spec in specs
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    return time.perf_counter() - started


def test_engine_concurrent_campaigns_service_vs_pools(benchmark, tmp_path):
    """N concurrent campaigns through ONE resident service pool vs N
    independently forked pools.

    The benchmark times the service path once its pool is running:
    the pool is resident, so its launch is paid once per service, not
    per campaign.  One warm-up campaign launches it before the timed
    region, and that campaign's wall time rides along in
    ``extra_info`` as ``service_launch_wall_s``, next to the
    forked-pool wall time for the identical workload.  A forked pool
    starts cheaply, inheriting its traces copy-on-write, so the
    service does not win on pool start-up: its forkserver or spawn
    launch costs more than N forks.
    """
    store = TraceStore(tmp_path / "store")
    run_campaign(  # warm the trace so neither side pays interpretation
        _concurrent_specs()[0], store=store, parallel=False
    )

    forked_wall = _drive_concurrently(
        _concurrent_specs(), store, parallel=True
    )

    service = EvalService()  # default: one worker per core, one pool
    try:
        launch_wall = _drive_concurrently(
            _concurrent_specs()[:1], store, service=service
        )
        service_wall = once(
            benchmark,
            lambda: _drive_concurrently(
                _concurrent_specs(), store, service=service
            ),
        )
        stats = service.stats()
        assert stats["pool_launches_total"] <= 1
        assert stats["failed_total"] == 0
    finally:
        service.close()
    benchmark.extra_info["forked_pools_wall_s"] = round(forked_wall, 3)
    benchmark.extra_info["service_launch_wall_s"] = round(launch_wall, 3)
    benchmark.extra_info["service_wall_s"] = round(service_wall, 3)
    benchmark.extra_info["speedup_vs_forked"] = round(
        forked_wall / service_wall, 2
    )
    points_each = _concurrent_specs()[0].n_points
    save(
        "engine_concurrent_service",
        f"3 concurrent campaigns ({points_each} points each), one store:\n"
        f"  N forked pools: {forked_wall:.3f}s wall\n"
        f"  service pool launch (one warm-up campaign): {launch_wall:.3f}s\n"
        f"  one shared service pool: {service_wall:.3f}s wall\n"
        f"  speedup: {forked_wall / service_wall:.2f}x",
    )


def test_store_gc_half_budget(benchmark, tmp_path):
    """One GC pass over a campaign-populated sharded store: evict down
    to half the store's bytes (results go first — asserted)."""
    root = tmp_path / "gc"
    store = TraceStore(root)
    run_campaign(CAMPAIGN, store=store, parallel=False)
    budget = store.total_bytes() // 2

    report = once(benchmark, lambda: store.gc(max_bytes=budget))
    assert store.total_bytes() <= budget
    assert report.evicted_results >= 1
    # Traces only fall once every result is gone.
    if report.evicted_traces:
        assert store.n_results() == 0
    benchmark.extra_info["evicted"] = len(report.evicted)
    benchmark.extra_info["freed_bytes"] = report.freed_bytes
