"""Property tests for the sharded store: shard mapping, layout, GC.

Randomized (seeded, Hypothesis-style) rather than example-based: each
property is asserted over a generated population of keys/artifacts so
the invariants hold for the *scheme*, not for one lucky digest.  The
three contracts under test are load-bearing for fleet-scale campaign
traffic:

* the digest → shard mapping is pure and stable (changing it would
  orphan every artifact ever stored);
* the shard tree is the whole index: puts never walk it without a
  budget (and scan once with one), and ``stat``-based recency
  survives a process boundary;
* ``gc()`` enforces the byte budget without over-evicting and never
  evicts an entry while a reader holds it pinned.
"""

from __future__ import annotations

import random
import string

import pytest

from repro.backends import Scenario, evaluate_scenario
from repro.core import MachineConfig
from repro.engine import (
    ResultKey,
    TraceKey,
    TraceStore,
    kernel_trace_cached,
    kernel_trace_key,
    shard_of,
)
from repro.ir import TraceBuilder
from repro.ir.trace import Trace


def random_key(rng: random.Random) -> TraceKey:
    name = "".join(
        rng.choice(string.ascii_lowercase + "_/ !") for _ in range(rng.randint(1, 12))
    )
    params = {}
    for _ in range(rng.randint(0, 3)):
        pname = rng.choice(["n", "seed", "depth", "width"])
        params[pname] = rng.choice([None, rng.randint(0, 10**6), "x" * rng.randint(1, 5)])
    return TraceKey.make(name, **params)


def random_trace(rng: random.Random) -> Trace:
    n_arrays = rng.randint(1, 3)
    sizes = [rng.randint(4, 32) for _ in range(n_arrays)]
    tb = TraceBuilder([f"A{i}" for i in range(n_arrays)], sizes)
    for _ in range(rng.randint(1, 16)):
        for _ in range(rng.randint(0, 4)):
            arr = rng.randrange(n_arrays)
            tb.record_read(arr, rng.randrange(sizes[arr]))
        arr = rng.randrange(n_arrays)
        tb.commit_instance(
            rng.randrange(4),
            arr,
            rng.randrange(sizes[arr]),
            rng.random() < 0.2,
        )
    return tb.freeze()


class TestShardMappingProperties:
    def test_shard_scheme_is_frozen(self):
        """Regression pin: the mapping is digest[:2], forever —
        changing it would orphan every existing store entry."""
        assert shard_of("abcdef0123456789") == "ab"
        assert shard_of("00ff" * 16) == "00"

    @pytest.mark.parametrize("seed", [7, 19, 23])
    def test_mapping_is_stable_and_two_hex_chars(self, seed, tmp_path):
        rng = random.Random(seed)
        store = TraceStore(tmp_path)
        for _ in range(50):
            key = random_key(rng)
            path_a, path_b = store.path_for(key), store.path_for(key)
            assert path_a == path_b  # pure in the key
            shard = path_a.parent.name
            assert shard == shard_of(key.digest) == key.digest[:2]
            assert len(shard) == 2
            assert all(c in "0123456789abcdef" for c in shard)
            assert path_a.parent.parent.name == "traces"
            # The ref embedded in the filename agrees with the shard.
            assert key.ref.startswith(shard)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_result_keys_shard_the_same_way(self, seed, tmp_path):
        rng = random.Random(seed)
        store = TraceStore(tmp_path)
        for _ in range(30):
            key = ResultKey(
                trace_digest=f"{rng.getrandbits(256):064x}",
                scenario_digest=f"{rng.getrandbits(256):064x}",
                backend=rng.choice(["untimed", "timed", "svc"]),
            )
            path = store.result_path_for(key)
            assert path.parent.name == shard_of(key.digest)
            assert path.parent.parent.name == "results"

    def test_distinct_keys_spread_across_shards(self, tmp_path):
        """Sanity that the fan-out actually fans out: 200 random keys
        land in well more than a handful of the 256 prefixes."""
        rng = random.Random(42)
        store = TraceStore(tmp_path)
        shards = {store.path_for(random_key(rng)).parent.name for _ in range(200)}
        assert len(shards) > 64


def _outcomes(n: int):
    """``n`` distinct (ResultKey, outcome) pairs over one small trace."""
    trace = random_trace(random.Random(n))
    tkey = TraceKey.make("fill", n=n)
    pairs = []
    for pes in range(1, n + 1):
        scenario = Scenario(config=MachineConfig(n_pes=pes, page_size=16))
        pairs.append(
            (ResultKey.make(tkey, scenario), evaluate_scenario(trace, scenario))
        )
    return pairs


class TestIndexFreeContract:
    """The filesystem is the index: puts are O(1) and recency is
    ``stat``, so it needs no flush and survives process boundaries."""

    @pytest.fixture()
    def scans(self, monkeypatch):
        calls = []
        original = TraceStore._scan

        def spy(store):
            calls.append(store.root)
            return original(store)

        monkeypatch.setattr(TraceStore, "_scan", spy)
        return calls

    def test_unbudgeted_puts_never_scan(self, tmp_path, scans):
        store = TraceStore(tmp_path)
        pairs = _outcomes(12)
        for key, outcome in pairs:
            store.put_result(key, outcome)
        assert scans == []
        assert store.n_results() == len(pairs)  # the walk itself works

    def test_budgeted_puts_scan_once(self, tmp_path, scans):
        store = TraceStore(tmp_path, max_bytes=10**9)
        pairs = _outcomes(12)
        for key, outcome in pairs:
            store.put_result(key, outcome)
        # One scan seeds the running byte total; every later put adds
        # to it without walking the shard tree.
        assert len(scans) == 1
        assert store._bytes == store.total_bytes()

    def test_auto_gc_holds_the_budget_across_puts(self, tmp_path):
        pairs = _outcomes(12)
        probe = TraceStore(tmp_path / "probe")
        probe.put_result(*pairs[0])
        one = probe.total_bytes()
        store = TraceStore(tmp_path / "store", max_bytes=3 * one)
        for key, outcome in pairs:
            store.put_result(key, outcome)
            assert store.total_bytes() <= store.max_bytes
        assert store.result_counters.evictions >= len(pairs) - 4
        # The newest puts survive: LRU evicted the oldest first.
        assert store.result_path_for(pairs[-1][0]).is_file()
        assert not store.result_path_for(pairs[0][0]).is_file()

    def test_lru_recency_survives_a_process_boundary(self, tmp_path):
        """Touch a result through store A; GC from a fresh store on the
        same root (what another process sees) evicts an untouched
        result first."""
        a = TraceStore(tmp_path)
        (first, first_out), (second, second_out) = _outcomes(2)
        a.put_result(first, first_out)
        a.put_result(second, second_out)
        a.clear_memory()
        assert a.lookup_result(first) is not None  # disk hit re-stamps
        fresh = TraceStore(tmp_path)
        report = fresh.gc(max_bytes=fresh.total_bytes() - 1)
        assert [ref for _k, ref, _b in report.evicted] == [second.ref]
        assert fresh.lookup_result(first, count=False) is not None

    def test_vanished_result_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        ((key, outcome),) = _outcomes(1)
        store.put_result(key, outcome)
        store.clear_memory()
        store.result_path_for(key).unlink()
        assert store.lookup_result(key) is None
        assert store.result_counters.misses == 1


class TestLegacyFlatLayout:
    def test_flat_layout_is_ignored_and_rebuilt(self, tmp_path):
        """A legacy flat-layout root is only a cache: its files are not
        counted, GC never sees them, and every entry is rebuilt at its
        canonical shard path on first use."""
        rng = random.Random(5)
        traces = {random_key(rng): random_trace(rng) for _ in range(4)}
        for key, trace in traces.items():
            trace.save(tmp_path / key.filename)  # legacy flat layout
        store = TraceStore(tmp_path)
        assert len(store) == 0 and store.total_bytes() == 0
        for key, trace in traces.items():
            assert store.get(key, lambda t=trace: t).identical(trace)
            assert store.path_for(key).is_file()
        assert store.counters.misses == len(traces)
        assert len(store) == len(traces)


class TestGCPinProperties:
    def _populated(self, tmp_path) -> tuple[TraceStore, list[TraceKey]]:
        store = TraceStore(tmp_path)
        keys = []
        for n in (32, 48, 64):
            kernel_trace_cached("first_diff", n=n, store=store)
            keys.append(kernel_trace_key("first_diff", n=n))
        return store, keys

    def test_gc_never_evicts_a_pinned_entry(self, tmp_path):
        """A reader's pin outranks the budget: gc leaves the entry on
        disk even when that keeps the store over max_bytes."""
        store, keys = self._populated(tmp_path)
        pinned = keys[0]
        with store.reading(pinned.ref):
            report = store.gc(max_bytes=0)
            assert report.pinned_skipped == 1
            assert store.path_for(pinned).is_file()
            assert report.total_bytes > 0  # still over budget: allowed
            for other in keys[1:]:
                assert not store.path_for(other).is_file()
        # Pin released: the entry is now fair game.
        report = store.gc(max_bytes=0)
        assert [ref for _k, ref, _b in report.evicted] == [pinned.ref]
        assert report.total_bytes == 0

    def test_reads_in_flight_survive_concurrent_gc(self, tmp_path):
        """Interleaved load/gc: a load that began before gc fired must
        return intact data, never a half-unlinked file."""
        import threading

        store, keys = self._populated(tmp_path)
        results: list[Trace | None] = []
        barrier = threading.Barrier(2)

        class SlowReading:
            """Hold the pin briefly so gc provably overlaps the read."""

            def __init__(self, key):
                self.key = key

            def run(self):
                with store.reading(self.key.ref):
                    barrier.wait()
                    trace = store.load(self.key)
                    results.append(trace)

        reader = threading.Thread(target=SlowReading(keys[0]).run)
        reader.start()
        barrier.wait()
        store.gc(max_bytes=0)
        reader.join()
        assert results[0] is not None  # the read completed intact
        # After the reader finished, gc can finally reclaim it.
        store.gc(max_bytes=0)
        assert store.total_bytes() == 0

    @pytest.mark.parametrize("seed", [2, 29])
    def test_gc_budget_is_tight_not_overshot(self, seed, tmp_path):
        """For random budgets: post-gc size ≤ budget, and restoring the
        last victim would break the budget (no over-eviction)."""
        rng = random.Random(seed)
        store, _keys = self._populated(tmp_path)
        total = store.total_bytes()
        for _ in range(5):
            budget = rng.randrange(0, total + 1)
            report = store.gc(max_bytes=budget)
            assert store.total_bytes() <= budget
            if report.evicted:
                _kind, _ref, last_bytes = report.evicted[-1]
                assert report.total_bytes + last_bytes > budget
            # Refill for the next round.
            store.clear()
            store, _keys = self._populated(tmp_path)
            total = store.total_bytes()
