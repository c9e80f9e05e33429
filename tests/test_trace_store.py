"""Trace serialization and the persistent (sharded) trace store."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings

from repro.engine import (
    TraceKey,
    TraceStore,
    build_trace,
    default_store,
    interpretation_count,
    kernel_trace_cached,
    kernel_trace_key,
    set_default_store,
    shard_of,
)
from repro.ir import TraceBuilder
from repro.ir.trace import TRACE_FORMAT_VERSION, Trace
from strategies import traces

_STORE_EXAMPLES = max(200, settings.default.max_examples)


def multi_array_trace() -> Trace:
    """Three arrays, an empty-reads instance, and a reduction."""
    tb = TraceBuilder(["X", "Y", "Z"], [10, 20, 7])
    tb.record_read(1, 5)
    tb.record_read(2, 6)
    tb.commit_instance(0, 0, 3, False)
    tb.commit_instance(0, 0, 4, False)  # no reads
    tb.record_read(0, 3)
    tb.commit_instance(1, 1, 19, True)
    return tb.freeze()


class TestRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        trace = multi_array_trace()
        path = trace.save(tmp_path / "t.npz")
        loaded = Trace.load(path)
        assert loaded.array_names == trace.array_names
        assert loaded.array_sizes == trace.array_sizes
        for column in (
            "stmt_ids",
            "w_arr",
            "w_flat",
            "r_ptr",
            "r_arr",
            "r_flat",
            "reduction_mask",
        ):
            mine = getattr(trace, column)
            theirs = getattr(loaded, column)
            assert mine.dtype == theirs.dtype, column
            assert np.array_equal(mine, theirs), column
        assert trace.identical(loaded)
        assert loaded.identical(trace)

    def test_kernel_trace_round_trip(self, hydro_trace, tmp_path):
        path = hydro_trace.save(tmp_path / "hydro.npz")
        assert hydro_trace.identical(Trace.load(path))

    def test_empty_trace_round_trip(self, tmp_path):
        trace = TraceBuilder([], []).freeze()
        loaded = Trace.load(trace.save(tmp_path / "empty.npz"))
        assert loaded.n_instances == 0
        assert loaded.n_reads == 0
        assert trace.identical(loaded)

    def test_save_creates_parent_dirs(self, tmp_path):
        path = multi_array_trace().save(tmp_path / "a" / "b" / "t.npz")
        assert path.is_file()

    def test_identical_detects_differences(self, tmp_path):
        trace = multi_array_trace()
        other = Trace.load(trace.save(tmp_path / "t.npz"))
        tampered = type(other)(
            array_names=other.array_names,
            array_sizes=other.array_sizes,
            stmt_ids=other.stmt_ids,
            w_arr=other.w_arr,
            w_flat=other.w_flat + 1,
            r_ptr=other.r_ptr,
            r_arr=other.r_arr,
            r_flat=other.r_flat,
            reduction_mask=other.reduction_mask,
        )
        assert not trace.identical(tampered)

    def test_version_mismatch_rejected(self, tmp_path, monkeypatch):
        trace = multi_array_trace()
        path = trace.save(tmp_path / "t.npz")
        monkeypatch.setattr(
            "repro.ir.trace.TRACE_FORMAT_VERSION", TRACE_FORMAT_VERSION + 1
        )
        with pytest.raises(ValueError, match="format version"):
            Trace.load(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"not a zip archive")
        with pytest.raises(Exception):
            Trace.load(path)


class TestTraceKey:
    def test_params_change_the_digest(self):
        a = TraceKey.make("hydro_fragment", n=100)
        b = TraceKey.make("hydro_fragment", n=200)
        assert a.digest != b.digest
        assert a.filename != b.filename

    def test_param_order_is_canonical(self):
        a = TraceKey.make("k", n=5, seed=1)
        b = TraceKey.make("k", seed=1, n=5)
        assert a == b
        assert a.digest == b.digest

    def test_filename_is_safe(self):
        key = TraceKey.make("weird/kernel name!", n=1)
        assert "/" not in key.filename
        assert key.filename.endswith(".npz")


class TestStore:
    def test_miss_builds_then_hits(self, tmp_path):
        store = TraceStore(tmp_path)
        key = TraceKey.make("synthetic", n=3)
        calls = []

        def builder():
            calls.append(1)
            return multi_array_trace()

        first = store.get(key, builder)
        second = store.get(key, builder)
        assert len(calls) == 1
        assert first is second  # memory layer
        assert store.counters.misses == 1
        assert store.counters.memory_hits == 1
        assert key in store
        assert len(store) == 1

    def test_disk_hit_across_instances(self, tmp_path):
        key = TraceKey.make("synthetic", n=3)
        TraceStore(tmp_path).get(key, multi_array_trace)
        fresh = TraceStore(tmp_path)

        def explode():
            raise AssertionError("warm store must not rebuild")

        loaded = fresh.get(key, explode)
        assert fresh.counters.disk_hits == 1
        assert loaded.identical(multi_array_trace())

    def test_corrupt_entry_is_rebuilt(self, tmp_path):
        store = TraceStore(tmp_path)
        key = TraceKey.make("synthetic", n=3)
        store.path_for(key).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(key).write_bytes(b"garbage")
        trace = store.get(key, multi_array_trace)
        assert store.counters.misses == 1
        assert trace.identical(Trace.load(store.path_for(key)))

    def test_clear(self, tmp_path):
        store = TraceStore(tmp_path)
        store.get(TraceKey.make("a"), multi_array_trace)
        store.clear()
        assert len(store) == 0
        assert TraceKey.make("a") not in store


class TestAcquisitionPath:
    def test_kernel_trace_cached_interprets_once(self, tmp_path):
        store = TraceStore(tmp_path)
        before = interpretation_count()
        first = kernel_trace_cached("first_diff", n=64, store=store)
        assert interpretation_count() == before + 1
        again = kernel_trace_cached("first_diff", n=64, store=store)
        assert interpretation_count() == before + 1
        assert first is again
        # A cold process over the same root replays the file: zero
        # interpreter executions on a warm store.
        warm = TraceStore(tmp_path)
        replayed = kernel_trace_cached("first_diff", n=64, store=warm)
        assert interpretation_count() == before + 1
        assert replayed.identical(first)

    def test_default_n_and_explicit_default_share_an_entry(self, tmp_path):
        from repro.kernels import get_kernel

        store = TraceStore(tmp_path)
        kernel_trace_cached("first_diff", store=store)
        kernel_trace_cached(
            "first_diff", n=get_kernel("first_diff").default_n, store=store
        )
        assert store.counters.misses == 1
        assert store.counters.memory_hits == 1

    def test_build_trace_counts_interpretations(self, matched_program):
        program, inputs = matched_program
        before = interpretation_count()
        build_trace(program, inputs)
        assert interpretation_count() == before + 1

    def test_default_store_override(self, tmp_path):
        store = TraceStore(tmp_path)
        previous = default_store()
        set_default_store(store)
        try:
            assert default_store() is store
        finally:
            set_default_store(previous)

    def test_default_store_env(self, tmp_path, monkeypatch):
        previous = default_store()  # session isolation store
        set_default_store(None)
        try:
            monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "env"))
            assert default_store().root == tmp_path / "env"
        finally:
            set_default_store(previous)

    def test_default_store_budget_env(self, tmp_path, monkeypatch):
        previous = default_store()  # session isolation store
        set_default_store(None)
        try:
            monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "env"))
            monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "12345")
            assert default_store().max_bytes == 12345
            # Budget changes reach the memoised instance too.
            monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "54321")
            assert default_store().max_bytes == 54321
            # Garbage budgets are ignored with a warning, never fatal.
            monkeypatch.setenv("REPRO_STORE_MAX_BYTES", "lots")
            with pytest.warns(RuntimeWarning, match="ignoring invalid"):
                assert default_store().max_bytes is None
        finally:
            set_default_store(previous)

    def test_store_files_live_under_sharded_root(self, tmp_path):
        root = tmp_path / "root"
        store = TraceStore(root)
        kernel_trace_cached("first_diff", n=32, store=store)
        key = kernel_trace_key("first_diff", n=32)
        # Sharded layout: the artifact sits in its two-hex-char prefix
        # directory under traces/ (next to the build lease directory)
        # — no index file, no flat-layout artifacts.
        path = store.path_for(key)
        assert path.is_file()
        assert path.parent.name == shard_of(key.digest)
        assert path.parent.parent == root / "traces"
        assert {p.name for p in root.iterdir()} <= {"traces", "leases"}


class TestShardedIndex:
    """The shard tree is the index: path and ``stat`` are the record."""

    def test_entry_metadata_lives_in_the_filesystem(self, tmp_path):
        store = TraceStore(tmp_path)
        kernel_trace_cached("first_diff", n=32, store=store)
        key = kernel_trace_key("first_diff", n=32)
        path = store.path_for(key)
        st = path.stat()
        # A put stamps creation and first use from one clock.
        assert st.st_atime_ns == st.st_mtime_ns > 0
        stats = store.stats()
        assert stats["trace_entries"] == 1
        assert stats["trace_bytes"] == stats["total_bytes"] == st.st_size
        assert stats["shards"] == 1
        assert not (tmp_path / "index.json").exists()

    def test_corrupted_index_is_rebuilt_from_shards(self, tmp_path):
        """A leftover (here: torn) ``index.json`` from an older layout
        is never read: the entries come from the shards."""
        store = TraceStore(tmp_path)
        trace = kernel_trace_cached("first_diff", n=32, store=store)
        (tmp_path / "index.json").write_text("{ not json at all")
        fresh = TraceStore(tmp_path)
        assert len(fresh) == 1

        def explode():
            raise AssertionError("recovered store must not rebuild")

        key = kernel_trace_key("first_diff", n=32)
        assert fresh.get(key, explode).identical(trace)
        assert fresh.total_bytes() == store.path_for(key).stat().st_size

    def test_unindexed_file_at_canonical_path_is_adopted(self, tmp_path):
        """A file that reached its canonical path by any route (a
        crash right after the rename, a hand copy) is addressable and
        counted at once — there is no bookkeeping step to miss."""
        trace = kernel_trace_cached(
            "first_diff", n=32, store=TraceStore(tmp_path / "a")
        )
        key = kernel_trace_key("first_diff", n=32)
        store = TraceStore(tmp_path / "b")
        trace.save(store.path_for(key))
        assert len(store) == 1
        assert store.load(key).identical(trace)

    def test_stale_entry_for_vanished_file_is_dropped(self, tmp_path):
        """A file deleted behind the store's back is a miss, not an
        error — on a fresh store and on the one that wrote it."""
        store = TraceStore(tmp_path)
        kernel_trace_cached("first_diff", n=32, store=store)
        key = kernel_trace_key("first_diff", n=32)
        store.path_for(key).unlink()
        fresh = TraceStore(tmp_path)
        assert len(fresh) == 0
        assert fresh.load(key) is None
        assert store.load(key) is None
        assert store.gc(max_bytes=0).evicted == []


def _save_as_v1(trace: Trace, path) -> None:
    """Write a faithful legacy (format-v1, flat-layout) shard."""
    import repro.ir.trace as trace_mod

    saved = trace_mod.TRACE_FORMAT_VERSION
    trace_mod.TRACE_FORMAT_VERSION = 1
    try:
        trace.save(path, compact=False)
    finally:
        trace_mod.TRACE_FORMAT_VERSION = saved


def _stencil_trace(n: int = 100) -> Trace:
    tb = TraceBuilder(["a", "b"], [n + 2, n + 2])
    for i in range(n):
        tb.record_read(0, i)
        tb.record_read(0, i + 2)
        tb.commit_instance(0, 1, i + 1, False)
    return tb.freeze()


def _shard_meta(path) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return json.loads(str(data["meta"]))


class TestStoreFormatV2:
    """Format-v2 (super-op layout) interop with legacy v1 shards."""

    @settings(max_examples=_STORE_EXAMPLES, deadline=None)
    @given(trace=traces())
    def test_v1_shards_load_bit_identically(self, trace):
        """Every v1 trace reads back bit-identically (columns, dtypes
        and digest) under the v2 reader — no migration step."""
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.npz"
            _save_as_v1(trace, path)
            assert _shard_meta(path)["format_version"] == 1
            loaded = Trace.load(path)
        assert trace.identical(loaded)
        assert trace.content_digest == loaded.content_digest

    def test_index_rebuild_adopts_mixed_shards(self, tmp_path):
        """A fresh store over a shard tree holding both legacy v1 and
        compacted v2 files counts and loads every one of them."""
        store = TraceStore(tmp_path)
        legacy_key = TraceKey.make("legacy", n=3)
        legacy = multi_array_trace()
        store.put(legacy_key, legacy)
        _save_as_v1(legacy, store.path_for(legacy_key))

        v2_key = TraceKey.make("stencil", n=100)
        stencil = _stencil_trace()
        store.put(v2_key, stencil)
        store.compact_traces(refs=[v2_key.ref])

        assert _shard_meta(store.path_for(legacy_key))["format_version"] == 1
        v2_meta = _shard_meta(store.path_for(v2_key))
        assert v2_meta["format_version"] == TRACE_FORMAT_VERSION
        assert v2_meta["layout"] == "superops"

        fresh = TraceStore(tmp_path)
        assert len(fresh) == 2

        def explode():
            raise AssertionError("rebuilt store must not re-interpret")

        assert fresh.get(legacy_key, explode).identical(legacy)
        recovered = fresh.get(v2_key, explode)
        assert recovered.identical(stencil)
        assert recovered.attached_superops() is not None

    def test_compact_traces_reports_and_shrinks(self, tmp_path):
        store = TraceStore(tmp_path)
        key = TraceKey.make("stencil", n=1000)
        trace = _stencil_trace(n=1000)
        store.put(key, trace)
        _save_as_v1(trace, store.path_for(key))  # pin the flat layout
        os.utime(store.path_for(key), ns=(2_000_000_000, 1_000_000_000))
        bytes_flat = store.path_for(key).stat().st_size

        (report,) = store.compact_traces()
        assert report["ref"] == key.ref
        assert report["bytes_before"] == bytes_flat
        assert report["bytes_after"] < bytes_flat
        assert report["n_ops"] == 1
        assert report["coverage"] == 1.0
        # Stats see the rewritten byte size, and the rewrite kept the
        # shard's recency and creation times (GC order is unchanged).
        assert store.stats()["trace_bytes"] == report["bytes_after"]
        st = store.path_for(key).stat()
        assert (st.st_atime_ns, st.st_mtime_ns) == (2_000_000_000, 1_000_000_000)


class TestLegacyLayout:
    def test_flat_layout_files_are_ignored(self, tmp_path):
        """A pre-sharding root is only a cache: its flat files are
        neither counted nor moved, and a lookup rebuilds the entry at
        its canonical shard path."""
        trace = multi_array_trace()
        key = TraceKey.make("legacy_kernel", n=3)
        trace.save(tmp_path / key.filename)  # pre-sharding layout
        store = TraceStore(tmp_path)
        assert len(store) == 0
        assert store.get(key, multi_array_trace).identical(trace)
        assert store.counters.misses == 1
        assert store.path_for(key).is_file()
        assert (tmp_path / key.filename).is_file()  # left alone


class TestEvictionGC:
    def test_gc_without_budget_is_a_noop_report(self, tmp_path):
        store = TraceStore(tmp_path)
        kernel_trace_cached("first_diff", n=32, store=store)
        report = store.gc()
        assert report.evicted == []
        assert report.total_bytes == store.total_bytes() > 0

    def test_auto_gc_enforces_construction_budget(self, tmp_path):
        store = TraceStore(tmp_path, max_bytes=1)
        kernel_trace_cached("first_diff", n=32, store=store)
        kernel_trace_cached("first_diff", n=64, store=store)
        # Each put ran GC: at most one entry (the newest, which alone
        # exceeds 1 byte but was written after the pass freed the rest)
        # can remain on disk.
        assert len(store) <= 1
        assert store.counters.evictions >= 1

    def test_gc_stops_at_the_budget_never_below(self, tmp_path):
        store = TraceStore(tmp_path)
        for n in (32, 48, 64, 96):
            kernel_trace_cached("first_diff", n=n, store=store)
        total = store.total_bytes()
        budget = total - 1  # forces exactly one eviction
        report = store.gc(max_bytes=budget)
        assert len(report.evicted) == 1
        assert report.total_bytes <= budget
        # Un-evicting the victim would break the budget: GC did not
        # over-evict below max_bytes.
        _kind, _ref, nbytes = report.evicted[0]
        assert report.total_bytes + nbytes > budget

    def test_fifo_order_ignores_later_use(self, tmp_path):
        """FIFO evicts the oldest-created entry even when it was used
        last (recency moves atime, never mtime)."""
        store = TraceStore(tmp_path, policy="fifo")
        old = kernel_trace_key("first_diff", n=32)
        kernel_trace_cached("first_diff", n=32, store=store)
        kernel_trace_cached("first_diff", n=64, store=store)
        store.get(old, lambda: (_ for _ in ()).throw(AssertionError()))
        report = store.gc(max_bytes=store.total_bytes() - 1)
        assert [ref for _k, ref, _b in report.evicted] == [old.ref]

    def test_lru_order_and_policy_validation(self, tmp_path):
        with pytest.raises(ValueError, match="eviction policy"):
            TraceStore(tmp_path, policy="belady")
        store = TraceStore(tmp_path)
        old = kernel_trace_key("first_diff", n=32)
        new = kernel_trace_key("first_diff", n=64)
        kernel_trace_cached("first_diff", n=32, store=store)
        kernel_trace_cached("first_diff", n=64, store=store)
        # Touch the older entry so the *other* one becomes LRU.
        store.get(old, lambda: (_ for _ in ()).throw(AssertionError()))
        report = store.gc(max_bytes=store.total_bytes() - 1)
        assert [ref for _k, ref, _b in report.evicted] == [new.ref]
        assert old in store


class TestStoreStatsCLI:
    def test_store_stats_reports_shards_and_counters(self, tmp_path, capsys):
        from repro.cli import main

        store = TraceStore(tmp_path)
        kernel_trace_cached("first_diff", n=32, store=store)
        assert main(["store", "stats", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trace store stats" in out
        assert "1 entries" in out
        assert "memory_hits" in out
        assert "evictions" in out

    def test_store_stats_json(self, tmp_path, capsys):
        from repro.cli import main

        store = TraceStore(tmp_path)
        kernel_trace_cached("first_diff", n=32, store=store)
        assert main(["store", "stats", "--root", str(tmp_path), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["trace_entries"] == 1
        assert data["result_entries"] == 0
        assert "index_format" not in data
        assert data["total_bytes"] > 0
        # Legacy nested keys are gone from the JSON document entirely.
        assert "traces" not in data

    def test_store_gc_cli_enforces_budget(self, tmp_path, capsys):
        from repro.cli import main

        store = TraceStore(tmp_path)
        kernel_trace_cached("first_diff", n=32, store=store)
        kernel_trace_cached("first_diff", n=64, store=store)
        assert main(
            ["store", "gc", "--root", str(tmp_path), "--max-bytes", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "evicted" in out
        assert TraceStore(tmp_path).total_bytes() == 0

    def test_store_gc_cli_without_budget_explains(self, tmp_path, capsys):
        from repro.cli import main

        TraceStore(tmp_path)
        assert main(["store", "gc", "--root", str(tmp_path)]) == 0
        assert "no disk budget" in capsys.readouterr().out
