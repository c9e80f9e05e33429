"""Store-level result caching, eviction/GC and campaign streaming."""

from __future__ import annotations

import gc
import os
import weakref

import pytest

from repro.backends import Scenario, evaluate_scenario, evaluation_count
from repro.core import MachineConfig
from repro.engine import (
    CampaignResult,
    CampaignSpec,
    EvalService,
    KernelSpec,
    ResultKey,
    TraceStore,
    kernel_trace_cached,
    kernel_trace_key,
    run_campaign,
    run_grid,
)


def small_spec(backend: str = "untimed") -> CampaignSpec:
    return CampaignSpec(
        name="cache-spec",
        backend=backend,
        kernels=(KernelSpec("hydro_fragment", n=120),),
        pes=(1, 2, 4),
        page_sizes=(16, 32),
        cache_elems=(0, 64),
    )


class TestResultStore:
    def test_outcome_disk_round_trip_is_bit_exact(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = kernel_trace_cached("hydro_fragment", n=120, store=store)
        scenario = Scenario(
            config=MachineConfig(n_pes=4, page_size=32), backend="timed"
        )
        outcome = evaluate_scenario(trace, scenario)
        key = ResultKey.make(kernel_trace_key("hydro_fragment", n=120), scenario)
        store.put_result(key, outcome)
        # A fresh store on the same root must replay from disk, exactly.
        fresh = TraceStore(tmp_path)
        loaded = fresh.lookup_result(key)
        assert loaded is not None
        assert loaded.identical(outcome)
        assert fresh.result_counters.disk_hits == 1

    def test_lookup_counts_misses(self, tmp_path):
        store = TraceStore(tmp_path)
        scenario = Scenario(config=MachineConfig(n_pes=2, page_size=32))
        key = ResultKey.make(kernel_trace_key("iccg", n=64), scenario)
        assert store.lookup_result(key) is None
        assert store.result_counters.misses == 1

    def test_get_result_computes_once(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = kernel_trace_cached("hydro_fragment", n=120, store=store)
        scenario = Scenario(config=MachineConfig(n_pes=2, page_size=32))
        key = ResultKey.make(
            kernel_trace_key("hydro_fragment", n=120), scenario
        )
        calls = 0

        def compute():
            nonlocal calls
            calls += 1
            return evaluate_scenario(trace, scenario)

        first = store.get_result(key, compute)
        second = store.get_result(key, compute)
        assert calls == 1
        assert first.identical(second)

    def test_clear_drops_results(self, tmp_path):
        store = TraceStore(tmp_path)
        run_campaign(small_spec(), store=store, parallel=False)
        assert store.n_results() > 0
        store.clear()
        assert store.n_results() == 0

    def test_results_live_in_shards_and_index(self, tmp_path):
        """Every result sits at its canonical shard path, and the shard
        tree (no index file) is what ``stats()`` counts."""
        spec = small_spec()
        store = TraceStore(tmp_path)
        run_campaign(spec, store=store, parallel=False)
        trace_key = kernel_trace_key("hydro_fragment", n=120)
        keys = [
            ResultKey.make(trace_key, scenario)
            for _kernel, scenario in spec.points()
        ]
        paths = [store.result_path_for(key) for key in keys]
        for key, path in zip(keys, paths):
            assert path.is_file()
            assert path.parent == tmp_path / "results" / key.ref[:2]
            assert path.name.endswith(f"-{key.ref}.npz")
        stats = store.stats()
        assert stats["result_entries"] == spec.n_points
        assert stats["result_bytes"] == sum(p.stat().st_size for p in paths)
        assert not (tmp_path / "index.json").exists()


class TestEvictionOrdering:
    def test_results_are_evicted_before_traces(self, tmp_path):
        """The GC contract: result entries (recomputable from a stored
        trace in milliseconds) always go before traces (an interpreter
        run each)."""
        store = TraceStore(tmp_path)
        run_campaign(small_spec(), store=store, parallel=False)
        n_traces, n_results = len(store), store.n_results()
        assert n_traces == 1 and n_results == small_spec().n_points
        trace_bytes = store.stats()["trace_bytes"]
        # Budget just below current total: evicts results one by one
        # (LRU first) and never touches the trace.
        report = store.gc(max_bytes=store.total_bytes() - 1)
        assert report.evicted_traces == 0
        assert report.evicted_results >= 1
        assert len(store) == n_traces
        # Budget below the trace alone: every result goes, then traces.
        report = store.gc(max_bytes=trace_bytes - 1)
        kinds = [kind for kind, _ref, _b in report.evicted]
        assert kinds == sorted(kinds, key=("result", "trace").index)
        assert store.n_results() == 0
        assert store.result_counters.evictions == n_results
        assert store.counters.evictions == n_traces

    def test_lru_results_are_evicted_first(self, tmp_path):
        store = TraceStore(tmp_path)
        run_campaign(small_spec(), store=store, parallel=False)
        # Touch the first point's entry so it is the most recent.
        spec = small_spec()
        kernel, scenario = next(iter(spec.points()))
        key = ResultKey(
            trace_digest=kernel_trace_key(kernel.name, n=kernel.n).digest,
            scenario_digest=scenario.digest,
            backend=scenario.backend,
        )
        assert store.lookup_result(key) is not None
        report = store.gc(max_bytes=store.total_bytes() - 1)
        evicted_refs = {ref for _k, ref, _b in report.evicted}
        assert key.ref not in evicted_refs

    def test_surviving_entries_still_hit_after_gc(self, tmp_path):
        """Acceptance: after GC under a budget, a second identical
        campaign reports a cache hit for every surviving entry and
        rebuilds exactly the evicted ones."""
        spec = small_spec()
        store = TraceStore(tmp_path)
        first = run_campaign(spec, store=store, parallel=False)
        # Keep roughly half the result bytes (plus the trace).
        budget = store.stats()["trace_bytes"] + (
            store.stats()["result_bytes"] // 2
        )
        report = store.gc(max_bytes=budget)
        survivors = store.n_results()
        assert 0 < survivors < spec.n_points
        fresh = TraceStore(tmp_path)
        again = run_campaign(spec, store=fresh, parallel=False)
        assert again.identical(first)
        assert fresh.result_counters.disk_hits == survivors
        assert fresh.result_counters.misses == report.evicted_results



class TestCampaignPaysForItsOwnWork:
    """A campaign's cost depends on its own points, not on the store's
    history: the store keeps no outcome alive, and neither a finished
    campaign nor ``repr`` walks the shard tree."""

    def test_store_keeps_no_outcome_alive(self, tmp_path):
        store = TraceStore(tmp_path)
        for expected_hit in (False, True):  # put, then read back
            result = run_campaign(small_spec(), store=store, parallel=False)
            assert result.records[0].cache_hit is expected_hit
            outcome = weakref.ref(result.records[0].outcome)
            del result
            gc.collect()
            assert outcome() is None
        assert store.n_results() == small_spec().n_points

    def test_finished_campaign_takes_no_store_snapshot(
        self, tmp_path, monkeypatch
    ):
        def walk(self, *args, **kwargs):
            raise AssertionError("a campaign walked the store")

        monkeypatch.setattr(TraceStore, "stats", walk)
        monkeypatch.setattr(TraceStore, "_scan", walk)
        spec = small_spec()
        result = run_campaign(spec, store=TraceStore(tmp_path), parallel=False)
        assert len(result) == spec.n_points
        assert "store" not in result.to_dict()

    def test_repr_does_not_walk_the_store(self, tmp_path, monkeypatch):
        store = TraceStore(tmp_path, max_bytes=4096)

        def walk(self, *args, **kwargs):
            raise AssertionError("repr walked the store")

        monkeypatch.setattr(TraceStore, "_scan", walk)
        assert repr(store) == f"TraceStore({str(tmp_path)!r}, max_bytes=4096)"


class TestCampaignResultCache:
    @pytest.mark.parametrize("backend", ["untimed", "timed"])
    def test_rerun_skips_simulation_entirely(self, tmp_path, backend):
        """The satellite contract: an identical campaign re-run is
        served from the result cache — zero backend evaluations."""
        spec = small_spec(backend)
        store = TraceStore(tmp_path)
        first = run_campaign(spec, store=store, parallel=False)
        assert store.result_counters.misses == spec.n_points
        before = evaluation_count()
        again = run_campaign(spec, store=store, parallel=False)
        assert evaluation_count() == before
        assert again.identical(first)
        assert f"cache[{spec.n_points}/{spec.n_points}]" in again.executor

    def test_cache_survives_process_boundary_via_disk(self, tmp_path):
        """A fresh store object on the same root (what a new process
        sees) replays every record from disk."""
        spec = small_spec()
        first = run_campaign(spec, store=TraceStore(tmp_path), parallel=False)
        fresh = TraceStore(tmp_path)
        before = evaluation_count()
        again = run_campaign(spec, store=fresh, parallel=False)
        assert evaluation_count() == before
        assert fresh.result_counters.disk_hits == spec.n_points
        assert again.identical(first)

    def test_cache_distinguishes_backends(self, tmp_path):
        """Untimed results must never satisfy a timed campaign."""
        store = TraceStore(tmp_path)
        run_campaign(small_spec("untimed"), store=store, parallel=False)
        before = evaluation_count()
        timed = run_campaign(small_spec("timed"), store=store, parallel=False)
        assert evaluation_count() == before + timed.spec.n_points
        assert all(r.backend == "timed" for r in timed)

    def test_alias_spellings_share_one_result(self, tmp_path):
        """``untimed-vec`` is a spelling of ``untimed``: a campaign
        declared either way fills and hits the same result keys."""
        first = run_campaign(
            small_spec("untimed-vec"), store=TraceStore(tmp_path), parallel=False
        )
        before = evaluation_count()
        again = run_campaign(
            small_spec("untimed"), store=TraceStore(tmp_path), parallel=False
        )
        assert evaluation_count() == before
        n = again.spec.n_points
        assert f"cache[{n}/{n}]" in again.executor
        assert again.identical(first)

    def test_failed_construction_releases_claims(self, tmp_path):
        """A stream whose construction dies after claiming points must
        release them, or peers would block on events nobody sets."""
        from repro.engine.executor import CampaignStream

        spec = small_spec()
        store = TraceStore(tmp_path)

        def explode(*_a, **_k):
            raise RuntimeError("trace acquisition failed")

        import repro.engine.store as store_mod

        original = store_mod.kernel_trace_cached
        store_mod.kernel_trace_cached = explode
        try:
            with pytest.raises(RuntimeError, match="acquisition failed"):
                CampaignStream(spec, store=store, parallel=False)
        finally:
            store_mod.kernel_trace_cached = original
        # Every claim was abandoned: a fresh campaign claims them all
        # itself and runs normally (no deferred waits, no stalls).
        result = run_campaign(spec, store=store, parallel=False)
        assert len(result) == spec.n_points
        assert "shared[" not in result.executor

    @pytest.mark.parametrize(
        "executor", ["serial", "fork-pool", "service-pool", "service-inline"]
    )
    def test_executor_counts_in_parent(
        self, executor, tmp_path, monkeypatch
    ):
        """One accounting contract for every executor: workers only
        evaluate, and the campaign's own process counts each job as a
        trace use and as an evaluation, hands the uses to the store in
        one batch that stamps the trace's atime (never its mtime), and
        nothing but traces, results and leases lands under the root."""
        spec = small_spec()
        key = kernel_trace_key("hydro_fragment", n=120)
        kernel_trace_cached("hydro_fragment", n=120, store=TraceStore(tmp_path))
        store = TraceStore(tmp_path)  # the trace is on disk, not in memory
        path = store.path_for(key)
        batches: list[dict] = []
        merge = TraceStore.merge_touches

        def recording(self, uses):
            batches.append(dict(uses))
            return merge(self, uses)

        monkeypatch.setattr(TraceStore, "merge_touches", recording)
        service = None
        if executor == "serial":
            options = {"parallel": False}
        elif executor == "fork-pool":
            options = {"parallel": True, "workers": 2}
        else:
            service = EvalService(workers=2 if executor == "service-pool" else 0)
            options = {"service": service}
        before_hits = store.counters.memory_hits
        before_evals = evaluation_count()
        try:
            stream = run_campaign(spec, store=store, stream=True, **options)
            # Planning acquired the trace; from here only the batch
            # stamps it.
            os.utime(path, ns=(1, 1))
            result = stream.result()
        finally:
            if service is not None:
                service.close()
        assert len(result) == spec.n_points
        assert store.counters.memory_hits - before_hits == spec.n_points
        assert evaluation_count() - before_evals == spec.n_points
        assert batches == [{key: spec.n_points}]
        assert path.stat().st_atime_ns > 1
        assert path.stat().st_mtime_ns == 1  # recency never moves mtime
        assert {p.name for p in tmp_path.iterdir()} <= {
            "traces",
            "results",
            "leases",
        }
        assert not list(tmp_path.rglob("*.tmp"))

    def test_parallel_run_grid_counts_pool_evaluations(self, tmp_path):
        """Evaluations that ``run_grid``'s fork pool runs are counted in
        the caller's process, as each outcome arrives."""
        trace = kernel_trace_cached(
            "hydro_fragment", n=120, store=TraceStore(tmp_path)
        )
        configs = [MachineConfig(n_pes=p, page_size=32) for p in (1, 2, 4, 8)]
        before = evaluation_count()
        outcomes = run_grid(trace, configs, parallel=True, workers=2)
        assert len(outcomes) == len(configs)
        assert evaluation_count() - before == len(configs)

    def test_cold_run_matches_cache_off_rerun(self, tmp_path):
        """A freshly built trace and its disk copy take the same replay
        path: hydro_2d's super-op view does not pay, so neither copy
        keeps one, and a cold run equals a cache-off re-run record for
        record (``vec_fallback_pes`` included)."""
        spec = CampaignSpec(
            name="hydro_2d-slice",
            kernels=(KernelSpec("hydro_2d"),),
            pes=(1, 8, 64),
            page_sizes=(32, 64),
            cache_elems=(256, 0),
            cache_policies=("lru", "fifo"),
            reduction_strategies=("host", "subrange"),
        )
        cold = run_campaign(spec, store=TraceStore(tmp_path), parallel=False)
        again = run_campaign(
            spec, store=TraceStore(tmp_path), parallel=False, use_cache=False
        )
        assert cold.identical(again)

    def test_use_cache_false_bypasses(self, tmp_path):
        spec = small_spec()
        store = TraceStore(tmp_path)
        run_campaign(spec, store=store, parallel=False)
        before = evaluation_count()
        result = run_campaign(
            spec, store=store, parallel=False, use_cache=False
        )
        assert evaluation_count() == before + spec.n_points
        assert result.executor == "serial"


class TestCampaignStreaming:
    def test_stream_yields_every_record_once(self, tmp_path):
        spec = small_spec()
        stream = run_campaign(
            spec, store=TraceStore(tmp_path), parallel=False, stream=True
        )
        records = list(stream)
        assert sorted(r.index for r in records) == list(range(spec.n_points))
        assert list(stream) == []  # single-pass

    def test_stream_result_matches_plain_run(self, tmp_path):
        spec = small_spec()
        store = TraceStore(tmp_path)
        plain = run_campaign(spec, store=store, parallel=False, use_cache=False)
        stream = run_campaign(
            spec, store=store, parallel=True, workers=2,
            stream=True, use_cache=False,
        )
        consumed = 0
        for record in stream:
            consumed += 1
            assert record.backend == "untimed"
        assert consumed == spec.n_points
        assert stream.result().identical(plain)

    def test_result_drains_unconsumed_stream(self, tmp_path):
        spec = small_spec()
        stream = run_campaign(
            spec, store=TraceStore(tmp_path), parallel=False, stream=True
        )
        iterator = iter(stream)
        next(iterator)  # consume one record only
        result = stream.result()
        assert isinstance(result, CampaignResult)
        assert len(result) == spec.n_points
        assert [r.index for r in result.records] == list(range(spec.n_points))

    def test_streamed_cache_hits_come_first(self, tmp_path):
        spec = small_spec()
        store = TraceStore(tmp_path)
        run_campaign(spec, store=store, parallel=False)
        stream = run_campaign(spec, store=store, parallel=False, stream=True)
        indices = [r.index for r in stream]
        assert indices == list(range(spec.n_points))  # all hits, in order
        assert f"cache[{spec.n_points}/{spec.n_points}]" in stream.executor

    def test_concurrent_streams_do_not_interfere(self, tmp_path):
        """Two in-flight streams must not share trace state: records
        from interleaved consumption equal isolated serial runs."""
        spec_a = small_spec()
        spec_b = CampaignSpec(
            name="other",
            kernels=(KernelSpec("first_diff", n=96),),
            pes=(1, 2),
            page_sizes=(16, 32),
            cache_elems=(0, 64),
        )
        store = TraceStore(tmp_path)
        baseline_a = run_campaign(spec_a, store=store, parallel=False, use_cache=False)
        baseline_b = run_campaign(spec_b, store=store, parallel=False, use_cache=False)
        stream_a = run_campaign(
            spec_a, store=store, parallel=False, stream=True, use_cache=False
        )
        stream_b = run_campaign(
            spec_b, store=store, parallel=False, stream=True, use_cache=False
        )
        iter_a, iter_b = iter(stream_a), iter(stream_b)
        # Interleave consumption of the two live streams.
        next(iter_a)
        next(iter_b)
        next(iter_a)
        assert stream_a.result().identical(baseline_a)
        assert stream_b.result().identical(baseline_b)

    def test_unconsumed_stream_starts_no_work(self, tmp_path):
        """Constructing a stream without iterating runs no evaluations
        (and therefore starts no pool)."""
        from repro.backends import evaluation_count

        spec = small_spec()
        before = evaluation_count()
        stream = run_campaign(
            spec, store=TraceStore(tmp_path), parallel=False,
            stream=True, use_cache=False,
        )
        assert evaluation_count() == before
        assert len(list(stream)) == spec.n_points

    def test_fully_cached_campaign_loads_no_traces(self, tmp_path):
        """A 100% cache-hit campaign needs only digests: a fresh store
        on the same root serves it without reading a single trace."""
        spec = small_spec()
        run_campaign(spec, store=TraceStore(tmp_path), parallel=False)
        fresh = TraceStore(tmp_path)
        result = run_campaign(spec, store=fresh, parallel=False)
        assert fresh.counters.total == 0  # no trace-store lookups at all
        assert result.trace_meta == {}
        assert len(result) == spec.n_points

    def test_timed_stream_parallel_identical_to_serial(self, tmp_path):
        spec = CampaignSpec(
            name="timed-stream",
            backend="timed",
            kernels=(KernelSpec("hydro_fragment", n=120),),
            pes=(2, 4),
            page_sizes=(32,),
            cache_elems=(64,),
            modes=("blocking", "multithreaded"),
        )
        store = TraceStore(tmp_path)
        serial = run_campaign(spec, store=store, parallel=False, use_cache=False)
        stream = run_campaign(
            spec, store=store, parallel=True, workers=2,
            stream=True, use_cache=False,
        )
        assert stream.result().identical(serial)
