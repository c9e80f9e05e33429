"""Concurrency stress: many campaigns, one sharded store.

Two in-flight *streamed* campaigns — driven from separate threads,
each fanning its jobs out through the multiprocessing executor — hit
one store at once.  The store's contracts under that load:

* every artifact lands at its canonical shard path (atomic rename;
  pool workers only evaluate and write nothing under the root);
* no cache entry is ever double-built — overlapping points are claimed
  by whichever campaign gets there first and *replayed* by the other;
* the 8-way-parallel → ``gc()`` → identical-re-run acceptance cycle:
  entries surviving a budgeted GC still serve cache hits.

CI runs this module (plus the sharding property suite) as a dedicated
job step with ``-p no:cacheprovider`` on a tmpfs-backed store root —
set ``REPRO_STRESS_STORE`` to relocate the stores these tests create
(each test still gets a private subdirectory).
"""

from __future__ import annotations

import os
import shutil
import threading
import uuid
from pathlib import Path

import pytest

from repro.backends import evaluation_count
from repro.engine import (
    CampaignSpec,
    KernelSpec,
    ResultKey,
    TraceStore,
    kernel_trace_key,
    run_campaign,
)


@pytest.fixture
def stress_dir(tmp_path):
    """Work directory for stress runs: a private subdirectory of
    ``$REPRO_STRESS_STORE`` (the CI tmpfs mount) when set, the test
    tmpdir otherwise.  Tests put their store(s) underneath it."""
    base = os.environ.get("REPRO_STRESS_STORE")
    if not base:
        yield tmp_path
        return
    root = Path(base) / uuid.uuid4().hex
    root.mkdir(parents=True, exist_ok=True)
    yield root
    shutil.rmtree(root, ignore_errors=True)


@pytest.fixture
def stress_root(stress_dir):
    """The shared store root inside :func:`stress_dir`."""
    return stress_dir / "store"


def spec_a() -> CampaignSpec:
    return CampaignSpec(
        name="stress-a",
        kernels=(KernelSpec("first_diff", n=96),),
        pes=(1, 2, 4),
        page_sizes=(16, 32),
        cache_elems=(0, 64),
    )


def spec_b() -> CampaignSpec:
    # Deliberately overlaps spec_a on the (16, 32) page sizes at
    # cache 0/64 and adds its own axis points.
    return CampaignSpec(
        name="stress-b",
        kernels=(KernelSpec("first_diff", n=96),),
        pes=(1, 2, 4),
        page_sizes=(16, 32, 64),
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


class TestConcurrentCampaigns:
    def test_two_streamed_parallel_campaigns_share_one_store(
        self, stress_root, stress_dir
    ):
        """The satellite contract: threads + the multiprocessing
        executor against one store — every artifact lands at its
        canonical path and no cache entry is double-built."""
        store = TraceStore(stress_root)
        specs = {"a": spec_a(), "b": spec_b()}
        expected = unique_points(*specs.values())
        before = evaluation_count()
        results: dict[str, object] = {}
        errors: list[BaseException] = []

        def drive(name: str) -> None:
            try:
                stream = run_campaign(
                    specs[name],
                    store=store,
                    parallel=True,
                    workers=2,
                    stream=True,
                )
                for _record in stream:  # consume as records complete
                    pass
                results[name] = stream.result()
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

        # No double builds: evaluations (parent + merged worker counts)
        # cover every unique point exactly once, and the store holds
        # exactly one entry per unique point.
        assert evaluation_count() - before == len(expected)
        assert store.n_results() == len(expected)

        # The shard tree survived two concurrent campaigns: every
        # unique point's artifact sits at its canonical path, and the
        # stats count exactly those (one trace, no stray files).
        for key in expected:
            assert store.result_path_for(key).is_file()
        stats = store.stats()
        assert stats["result_entries"] == len(expected)
        assert stats["trace_entries"] == 1

        # Both campaigns match their isolated serial baselines.
        for name, spec in specs.items():
            baseline = run_campaign(
                spec,
                store=TraceStore(stress_dir / f"base-{name}"),
                parallel=False,
            )
            assert results[name].identical(baseline)

    def test_concurrent_identical_campaigns_build_each_point_once(
        self, stress_root
    ):
        """The worst case: the *same* spec twice, concurrently."""
        store = TraceStore(stress_root)
        spec = spec_a()
        before = evaluation_count()
        results: dict[int, object] = {}

        def drive(slot: int) -> None:
            results[slot] = run_campaign(
                spec, store=store, parallel=False
            )

        threads = [
            threading.Thread(target=drive, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert sorted(results) == [0, 1]
        assert evaluation_count() - before == spec.n_points
        assert results[0].identical(results[1])
        # One of the two deferred to the other for every shared point.
        executors = sorted(r.executor for r in results.values())
        assert any("shared[" in e or "cache[" in e for e in executors)


class TestParallelGCAcceptance:
    def test_eight_way_campaign_survives_gc_and_still_hits(
        self, stress_root
    ):
        """Acceptance: populate through an 8-way parallel campaign, GC
        under a byte budget, then re-run — every surviving entry is a
        cache hit, every evicted one is rebuilt, bit-identically."""
        store = TraceStore(stress_root)
        spec = spec_b()
        first = run_campaign(spec, store=store, parallel=True, workers=8)
        assert first.executor.startswith("parallel[")
        assert store.n_results() == spec.n_points

        stats = store.stats()
        budget = stats["trace_bytes"] + stats["result_bytes"] // 2
        report = store.gc(max_bytes=budget)
        assert report.evicted_results >= 1
        assert report.evicted_traces == 0  # results always go first
        assert store.total_bytes() <= budget
        survivors = store.n_results()
        assert 0 < survivors < spec.n_points

        fresh = TraceStore(stress_root)
        again = run_campaign(spec, store=fresh, parallel=True, workers=8)
        assert again.identical(first)
        assert fresh.result_counters.disk_hits == survivors
        assert fresh.result_counters.misses == spec.n_points - survivors

        # Third pass: everything is a hit again, zero evaluations.
        final = TraceStore(stress_root)
        before = evaluation_count()
        third = run_campaign(spec, store=final, parallel=True, workers=8)
        assert evaluation_count() == before
        assert third.identical(first)
        assert f"cache[{spec.n_points}/{spec.n_points}]" in third.executor
