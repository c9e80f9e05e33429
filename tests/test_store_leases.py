"""Cross-process claim leases: lock files, stealing, crash recovery.

The PR-3 claim machinery made concurrent *streams* (threads) build
every store entry exactly once; these tests pin down its cross-process
extension: leases under ``<root>/leases/``, each a hard link to its
store's holder file (pid + host, expiry in its mtime), heartbeat
renewal, stealing on expiry (or immediately from a provably-dead
same-host holder), and the flagship two-
``multiprocessing.Process`` races — build-once for results *and*
traces, plus crash-mid-lease recovery.

CI runs this module in the tmpfs-backed stress step alongside the
sharding/stress suites.
"""

from __future__ import annotations

import errno
import gc
import json
import multiprocessing as mp
import os
import subprocess
import sys
import textwrap
import time
import weakref
from pathlib import Path
from queue import Empty

import pytest

import repro.engine.store as store_module
from repro import obs
from repro.engine import (
    CampaignSpec,
    KernelSpec,
    ResultKey,
    TraceStore,
    kernel_trace_key,
    run_campaign,
)


#: The host name a lease document records.
HOST = store_module.HOST


def ctx() -> mp.context.BaseContext:
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else None)


def write_lease(
    store: TraceStore,
    ref: str,
    *,
    kind: str = "result",
    pid: int | None = None,
    host: str | None = None,
    expires_in: float = 60.0,
) -> Path:
    """Plant a lease file by hand (simulating a foreign holder): its
    document names the holder, its mtime is the holder's expiry."""
    store.lease_dir.mkdir(parents=True, exist_ok=True)
    path = store.lease_dir / f"{kind[0]}-{ref}.json"
    path.write_text(
        json.dumps(
            {
                "pid": os.getpid() if pid is None else pid,
                "host": "elsewhere" if host is None else host,
            }
        )
    )
    expires = time.time() + expires_in
    os.utime(path, (expires, expires))
    return path


def result_key(spec: CampaignSpec) -> ResultKey:
    kernel, scenario = next(spec.points())
    return ResultKey(
        trace_digest=kernel_trace_key(
            kernel.name, n=kernel.n, seed=kernel.seed
        ).digest,
        scenario_digest=scenario.digest,
        backend=scenario.backend,
    )


def spec_a() -> CampaignSpec:
    return CampaignSpec(
        name="lease-a",
        kernels=(KernelSpec("first_diff", n=96),),
        pes=(1, 2, 4),
        page_sizes=(16, 32),
        cache_elems=(0, 64),
    )


def spec_b() -> CampaignSpec:
    # Overlaps spec_a on its full grid and adds the 8-PE column.
    return CampaignSpec(
        name="lease-b",
        kernels=(KernelSpec("first_diff", n=96),),
        pes=(1, 2, 4, 8),
        page_sizes=(16, 32),
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


class TestLeaseFiles:
    def test_acquire_release_roundtrip(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.acquire_lease("ab" * 10)
        info = store.lease_holder("ab" * 10)
        assert info is not None
        assert info["pid"] == os.getpid()
        assert info["expires"] > time.time()
        assert store.active_leases() == 1
        store.release_lease("ab" * 10)
        assert store.lease_holder("ab" * 10) is None
        assert store.active_leases() == 0

    def test_live_foreign_lease_blocks_acquisition(self, tmp_path):
        store = TraceStore(tmp_path)
        # A live pid on a *different host*: the dead-pid shortcut must
        # not apply, so only expiry frees the lease.
        write_lease(store, "cd" * 10, host="elsewhere", expires_in=60.0)
        assert not store.acquire_lease("cd" * 10)

    def test_expired_lease_is_stolen(self, tmp_path):
        store = TraceStore(tmp_path)
        write_lease(store, "ef" * 10, host="elsewhere", expires_in=0.15)
        assert not store.acquire_lease("ef" * 10)
        time.sleep(0.2)
        assert store.acquire_lease("ef" * 10)
        assert store.lease_holder("ef" * 10)["pid"] == os.getpid()
        store.release_lease("ef" * 10)

    def test_dead_same_host_holder_is_stolen_immediately(self, tmp_path):
        store = TraceStore(tmp_path)
        child = ctx().Process(target=lambda: None)
        child.start()
        child.join(timeout=30)
        dead_pid = child.pid
        write_lease(
            store, "0a" * 10, pid=dead_pid,
            host=HOST,
            expires_in=600.0,
        )
        # Unexpired, but the holder is provably dead on this host.
        assert store.acquire_lease("0a" * 10)
        store.release_lease("0a" * 10)

    def test_corrupt_lease_is_treated_as_stale(self, tmp_path):
        store = TraceStore(tmp_path)
        store.lease_dir.mkdir(parents=True, exist_ok=True)
        (store.lease_dir / "r-junk.json").write_text("{not json")
        assert store.lease_holder("junk") is None
        assert store.acquire_lease("junk")
        store.release_lease("junk")

    def test_release_never_drops_a_foreign_lease(self, tmp_path):
        store = TraceStore(tmp_path)
        path = write_lease(store, "1b" * 10, host="elsewhere")
        store.release_lease("1b" * 10)
        assert path.is_file()  # not ours: left in place

    def test_heartbeat_renews_held_leases(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "LEASE_TTL_S", 0.3)
        store = TraceStore(tmp_path)
        assert store.acquire_lease("2c" * 10)
        first = store.lease_holder("2c" * 10)["expires"]
        time.sleep(0.6)  # two renewal intervals past the original TTL
        info = store.lease_holder("2c" * 10)
        assert info is not None, "lease expired despite the heartbeat"
        assert info["expires"] > first
        store.release_lease("2c" * 10)

    def test_heartbeat_exits_promptly_after_the_last_release(self, tmp_path):
        """At the default TTL the heartbeat ticks every 10 s; the last
        release must wake it instead of leaving it asleep that long."""
        store = TraceStore(tmp_path)
        assert store.acquire_lease("2f" * 10)
        assert store.acquire_lease("2f" * 10, kind="trace")
        heartbeat = store._lease_thread
        assert heartbeat is not None and heartbeat.is_alive()
        store.release_lease("2f" * 10)
        heartbeat.join(timeout=0.5)
        assert heartbeat.is_alive()  # a trace lease is still held
        store.release_lease("2f" * 10, kind="trace")
        heartbeat.join(timeout=1.0)
        assert not heartbeat.is_alive()

    def test_finished_campaign_store_is_collected_promptly(self, tmp_path):
        """Nothing — the lease heartbeat included — keeps a finished
        campaign's store (and its in-memory traces) alive."""
        store = TraceStore(tmp_path)
        run_campaign(spec_a(), store=store, parallel=False)
        collected = weakref.ref(store)
        del store
        deadline = time.monotonic() + 1.0
        while collected() is not None and time.monotonic() < deadline:
            gc.collect()
            time.sleep(0.02)
        assert collected() is None

    def test_trace_and_result_leases_do_not_collide(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.acquire_lease("3d" * 8, kind="trace")
        assert store.acquire_lease("3d" * 8, kind="result")
        store.release_lease("3d" * 8, kind="trace")
        assert store.lease_holder("3d" * 8, kind="trace") is None
        assert store.lease_holder("3d" * 8, kind="result") is not None
        store.release_lease("3d" * 8)

    def test_rival_stealers_yield_exactly_one_holder(self, tmp_path):
        """Two stores racing to steal one stale lease: the rename-aside
        protocol lets exactly one win; the loser observes the winner's
        fresh lease and backs off."""
        import threading

        stores = [TraceStore(tmp_path), TraceStore(tmp_path)]
        write_lease(stores[0], "6a" * 10, host="elsewhere", expires_in=-1.0)
        barrier = threading.Barrier(2)
        outcomes: list[bool] = [False, False]

        def steal(slot: int) -> None:
            barrier.wait()
            outcomes[slot] = stores[slot].acquire_lease("6a" * 10)

        threads = [
            threading.Thread(target=steal, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert sum(outcomes) == 1
        assert stores[0].lease_holder("6a" * 10)["pid"] == os.getpid()
        # No stale-rename droppings left behind.
        assert not list(stores[0].lease_dir.glob("*.stale-*"))
        for store in stores:
            store.release_lease("6a" * 10)

    def test_release_requires_membership_not_just_pid(self, tmp_path):
        """A store (or thread) that never acquired a lease must not be
        able to unlink a same-process peer's live lease."""
        holder = TraceStore(tmp_path)
        bystander = TraceStore(tmp_path)
        assert holder.acquire_lease("7b" * 10)
        bystander.release_lease("7b" * 10)  # same pid, not the acquirer
        assert holder.lease_holder("7b" * 10) is not None
        holder.release_lease("7b" * 10)
        assert holder.lease_holder("7b" * 10) is None

    @pytest.mark.parametrize(
        "caller", ["get", "get_result", "evaluate_point", "run_campaign"]
    )
    def test_every_caller_gives_up_on_a_wedged_foreign_holder(
        self, caller, tmp_path, monkeypatch
    ):
        """A live-but-stuck foreign holder delays every caller of the
        claim protocol by at most its one deadline; then the entry is
        computed once, unclaimed, and one ``claim.expired`` says so."""
        from repro.backends import evaluate_scenario, evaluation_count
        from repro.engine import interpretation_count, kernel_trace_cached
        from repro.fleet.worker import evaluate_point

        monkeypatch.setattr(store_module, "_INFLIGHT_TIMEOUT_S", 1.0)
        store = TraceStore(tmp_path)
        spec = CampaignSpec(
            name="wedged",
            kernels=(KernelSpec("first_diff", n=96),),
            pes=(2,),
            page_sizes=(16,),
            cache_elems=(0,),
        )
        _kernel, scenario = next(spec.points())
        trace_key = kernel_trace_key("first_diff", n=96)
        key = ResultKey.make(trace_key, scenario)
        if caller == "get":
            kind, ref, counter = "trace", trace_key.ref, interpretation_count
        else:
            kind, ref, counter = "result", key.ref, evaluation_count
            trace = kernel_trace_cached("first_diff", n=96, store=store)
        lease = write_lease(
            store, ref, kind=kind, host="elsewhere",
            expires_in=600.0,  # holder stays "alive" for the whole test
        )
        events: list[dict] = []
        obs.subscribe(events.append)
        before = counter()
        started = time.time()
        try:
            if caller == "get":
                kernel_trace_cached("first_diff", n=96, store=store)
            elif caller == "get_result":
                store.get_result(
                    key, lambda: evaluate_scenario(trace, scenario)
                )
            elif caller == "evaluate_point":
                assert evaluate_point(spec, 0, store=store)["computed"]
            else:
                run_campaign(spec, store=store, parallel=False)
        finally:
            obs.unsubscribe(events.append)
        assert time.time() - started < 30  # gave up, computed locally
        assert counter() == before + 1
        expired = [e for e in events if e["event"] == "claim.expired"]
        assert [(e["kind"], e["ref"]) for e in expired] == [(kind, ref)]
        assert expired[0]["waited_s"] >= 1.0
        # Unclaimed: the foreign lease was never taken over.
        assert json.loads(lease.read_text())["host"] == "elsewhere"

    def test_gc_sweeps_stale_lease_files(self, tmp_path):
        """A crashed campaign's expired lease files are retired by the
        next GC pass; live leases are never touched."""
        store = TraceStore(tmp_path)
        write_lease(store, "8c" * 10, host="elsewhere", expires_in=-1.0)
        assert store.acquire_lease("9d" * 10)  # live: ours, renewed
        assert store.sweep_stale_leases() == 1
        assert not (store.lease_dir / f"r-{'8c' * 10}.json").exists()
        assert store.lease_holder("9d" * 10) is not None
        store.release_lease("9d" * 10)
        # gc() runs the sweep as part of every pass.
        write_lease(store, "8c" * 10, host="elsewhere", expires_in=-1.0)
        store.gc()
        assert not (store.lease_dir / f"r-{'8c' * 10}.json").exists()

    def test_stats_count_active_leases(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.stats()["active_leases"] == 0
        store.acquire_lease("4e" * 10)
        write_lease(store, "5f" * 10, host="elsewhere", expires_in=-1.0)
        assert store.stats()["active_leases"] == 1  # expired one ignored
        store.release_lease("4e" * 10)


class TestHolderFile:
    """A lease is a hard link to its store's holder file, whose mtime
    is the expiry of every lease linked to it."""

    def test_a_lease_is_a_link_to_the_holder(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.acquire_lease("a1" * 10)
        assert store.acquire_lease("a2" * 10, kind="trace")
        (holder,) = (store.lease_dir / "hb").glob("*.json")
        assert json.loads(holder.read_text()) == {
            "pid": os.getpid(),
            "host": HOST,
        }
        for path in store.lease_dir.glob("*-*.json"):
            assert os.path.samefile(path, holder)
        assert holder.stat().st_nlink == 3
        assert holder.stat().st_mode & 0o777 == 0o600
        store.release_lease("a1" * 10)
        store.release_lease("a2" * 10, kind="trace")
        assert not list(store.lease_dir.glob("*-*.json"))
        assert holder.stat().st_nlink == 1  # kept for the next lease

    def test_a_reused_pid_cannot_keep_a_dead_holders_lease_alive(
        self, tmp_path
    ):
        """A lease naming this very process (as a dead holder's pid,
        reused) stays stale once its expiry has passed, however fresh
        this process's own holder is."""
        store = TraceStore(tmp_path)
        assert store.acquire_lease("b1" * 10)  # this process holds one
        write_lease(
            store, "b2" * 10, pid=os.getpid(), host=HOST,
            expires_in=-3600.0,
        )
        assert store.lease_holder("b2" * 10) is None
        started = time.monotonic()
        assert store.acquire_lease("b2" * 10)
        assert time.monotonic() - started < 5.0
        store.release_lease("b1" * 10)
        store.release_lease("b2" * 10)

    def test_expired_holder_is_replaced_and_never_renewed(
        self, tmp_path, monkeypatch
    ):
        """A heartbeat that finds its holder's expiry passed (it
        stalled) forgets the holder's leases, never renews that inode,
        and links the next lease to a new holder file."""
        monkeypatch.setattr(store_module, "LEASE_TTL_S", 0.3)
        store = TraceStore(tmp_path)
        events: list[dict] = []
        obs.subscribe(events.append)
        try:
            assert store.acquire_lease("c1" * 10)
            lease = store.lease_dir / f"r-{'c1' * 10}.json"
            (old,) = (store.lease_dir / "hb").glob("*.json")
            old_inode = old.stat().st_ino
            stalled = time.time() - 10.0  # what a stall leaves on disk
            os.utime(old, (stalled, stalled))
            time.sleep(0.5)  # several heartbeat ticks
            assert lease.stat().st_mtime == stalled  # never renewed
            assert lease.stat().st_ino == old_inode
            assert not old.exists()
            assert store.lease_holder("c1" * 10) is None
            assert store.acquire_lease("c2" * 10)
            (new,) = (store.lease_dir / "hb").glob("*.json")
            assert new.stat().st_ino != old_inode
            rival = TraceStore(tmp_path)
            assert rival.acquire_lease("c1" * 10)  # stale: stolen
            rival.release_lease("c1" * 10)
            store.release_lease("c1" * 10)  # forgotten: a no-op
            store.release_lease("c2" * 10)
        finally:
            obs.unsubscribe(events.append)
        expired = [e["ref"] for e in events if e["event"] == "lease.expire"]
        assert expired == ["c1" * 10]

    def test_a_finalised_store_removes_its_holder(self, tmp_path):
        """The holder outlives its leases while the store lives (the
        next lease reuses it) and goes when the store is collected."""
        store = TraceStore(tmp_path)
        assert store.acquire_lease("e1" * 10)
        store.release_lease("e1" * 10)
        (holder,) = (store.lease_dir / "hb").glob("*.json")
        heartbeat = store._lease_thread
        if heartbeat is not None:
            heartbeat.join(timeout=5.0)
        assert holder.exists()
        collected = weakref.ref(store)
        del store
        gc.collect()
        assert collected() is None
        assert not holder.exists()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_process_that_exits_normally_removes_its_holder(
        self, tmp_path
    ):
        """A process that runs a campaign and exits 0 leaves no holder
        file behind.  A forked child that exits normally runs the exit
        hooks it inherited, but leaves its parent's holder alone.  A
        lease still held at exit keeps the holder's inode, and a rival
        steals it as it would after a crash."""
        script = textwrap.dedent(
            """
            import os, sys
            from pathlib import Path
            from repro.engine import (
                CampaignSpec, KernelSpec, TraceStore, run_campaign,
            )
            root = Path(sys.argv[1])
            store = TraceStore(root)
            spec = CampaignSpec(
                name="one-point",
                kernels=(KernelSpec("first_diff", n=64),),
                pes=(2,), page_sizes=(16,), cache_elems=(0,),
            )
            run_campaign(spec, store=store, parallel=False)
            heartbeat = store._lease_thread
            if heartbeat is not None:
                heartbeat.join()
            child = os.fork()
            if child == 0:
                sys.exit(0)
            os.waitpid(child, 0)
            print(len(list((root / "leases" / "hb").glob("*.json"))))
            assert store.acquire_lease("f1" * 10)
            """
        )
        env = dict(os.environ)
        src = str(Path(store_module.__file__).parents[2])
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1"]  # the child's exit spared it
        assert not list((tmp_path / "leases" / "hb").iterdir())
        (lease,) = (tmp_path / "leases").glob("*-*.json")
        assert lease.name == f"r-{'f1' * 10}.json"
        rival = TraceStore(tmp_path)
        assert rival.lease_holder("f1" * 10) is None  # its pid is dead
        assert rival.acquire_lease("f1" * 10)
        rival.release_lease("f1" * 10)

    def test_without_hard_links_a_lease_is_its_own_renewed_file(
        self, tmp_path, monkeypatch
    ):
        def no_links(src, dst, **kwargs):
            raise OSError(errno.EPERM, "hard links not supported")

        monkeypatch.setattr(store_module, "LEASE_TTL_S", 0.3)
        monkeypatch.setattr(os, "link", no_links)
        store = TraceStore(tmp_path)
        assert store.acquire_lease("d1" * 10)
        lease = store.lease_dir / f"r-{'d1' * 10}.json"
        assert lease.stat().st_nlink == 1
        assert not TraceStore(tmp_path).acquire_lease("d1" * 10)
        first = store.lease_holder("d1" * 10)["expires"]
        time.sleep(0.25)  # two heartbeat intervals, most of a TTL
        time.sleep(0.25)
        info = store.lease_holder("d1" * 10)
        assert info is not None, "the fallback lease was not renewed"
        assert info["expires"] > first
        store.release_lease("d1" * 10)
        assert not lease.exists()


def merged_events(stem: Path) -> list[dict]:
    merged = obs.merge(stem)
    assert merged is not None
    return list(obs.read_events(merged))


def count_events(events: list[dict], name: str, **match: object) -> int:
    return sum(
        1
        for event in events
        if event.get("event") == name
        and all(event.get(key) == value for key, value in match.items())
    )


class TestLeaseEventLog:
    """Every lease transition shows up in the merged event log exactly
    once — the telemetry is trustworthy enough to audit the exactly-
    once build protocol from the outside."""

    @pytest.fixture
    def obs_stem(self, tmp_path, monkeypatch):
        stem = tmp_path / "telemetry" / "events"
        monkeypatch.setenv("REPRO_OBS", f"jsonl:{stem}")
        yield stem
        # Drop the sink handle and re-arm env auto-detection so later
        # tests see the (restored) environment, not this test's stem.
        obs.configure(None)

    def test_acquire_and_release_logged_exactly_once(
        self, tmp_path, obs_stem
    ):
        store = TraceStore(tmp_path / "store")
        ref = "ab" * 10
        assert store.acquire_lease(ref)
        store.release_lease(ref)
        events = merged_events(obs_stem)
        assert count_events(events, "lease.acquire", ref=ref) == 1
        assert count_events(events, "lease.release", ref=ref) == 1
        assert count_events(events, "lease.steal") == 0
        assert count_events(events, "lease.expire") == 0

    @pytest.mark.parametrize("publish_delay_ms", [0, 50])
    def test_heartbeat_renewal_logged_exactly_once(
        self, tmp_path, obs_stem, monkeypatch, publish_delay_ms
    ):
        # ttl=3.0 → heartbeat ticks every 1.0s, so holding for ~1.5s
        # spans exactly one renewal window.  The renewal is the
        # store's holder file — ONE event (and one utime) regardless of
        # how many leases link to it.  A slow first publish must not
        # push the first tick out of its window: the heartbeat starts
        # only once the holder is out.
        new_holder = TraceStore._new_holder

        def slow_first_publish(store):
            time.sleep(publish_delay_ms / 1000.0)
            new_holder(store)

        monkeypatch.setattr(TraceStore, "_new_holder", slow_first_publish)
        monkeypatch.setattr(store_module, "LEASE_TTL_S", 3.0)
        store = TraceStore(tmp_path / "store")
        refs = ["2c" * 10, "2d" * 10, "2e" * 10]
        for ref in refs:
            assert store.acquire_lease(ref)
        time.sleep(1.5)
        for ref in refs:
            store.release_lease(ref)
        events = merged_events(obs_stem)
        assert count_events(events, "lease.renew") == 1
        renewal = next(e for e in events if e["event"] == "lease.renew")
        assert renewal["held"] == len(refs)
        assert count_events(events, "lease.expire") == 0

    def test_expired_steal_logged_exactly_once(self, tmp_path, obs_stem):
        store = TraceStore(tmp_path / "store")
        ref = "ef" * 10
        write_lease(store, ref, host="elsewhere", expires_in=-1.0)
        assert store.acquire_lease(ref)
        events = merged_events(obs_stem)
        assert (
            count_events(events, "lease.steal", ref=ref, reason="expired")
            == 1
        )
        assert count_events(events, "lease.acquire", ref=ref) == 1
        store.release_lease(ref)

    def test_crash_recovery_steal_logged_exactly_once(
        self, tmp_path, obs_stem, monkeypatch
    ):
        """Two processes: the child acquires and dies mid-build; the
        parent's steal is logged as a single dead-holder event, and
        the merged log stitches both processes' files together."""
        root = str(tmp_path / "store")
        key = result_key(spec_a())
        context = ctx()
        acquired = context.Event()
        child = context.Process(
            target=_crash_holding_lease,
            args=(
                root,
                {
                    "trace_digest": key.trace_digest,
                    "scenario_digest": key.scenario_digest,
                    "backend": key.backend,
                },
                acquired,
            ),
        )
        child.start()
        assert acquired.wait(timeout=60)
        child.kill()
        child.join(timeout=60)

        monkeypatch.setattr(store_module, "LEASE_TTL_S", 60.0)
        store = TraceStore(root)
        deadline = time.time() + 30
        claim = store.claim_result(key)
        while claim is not None and time.time() < deadline:
            claim.wait(timeout=1.0)
            claim = store.claim_result(key)
        assert claim is None
        store.abandon_result_claim(key)

        events = merged_events(obs_stem)
        # The child's acquire (its own per-pid file) plus the parent's
        # post-steal acquire; one dead-holder steal; one release.
        assert count_events(events, "lease.acquire", ref=key.ref) == 2
        assert (
            count_events(
                events, "lease.steal", ref=key.ref, reason="dead-holder"
            )
            == 1
        )
        assert count_events(events, "lease.steal", reason="expired") == 0
        assert count_events(events, "lease.release", ref=key.ref) == 1
        pids = {event["pid"] for event in events}
        assert len(pids) == 2  # both processes contributed


class TestClaimIntegration:
    def test_claim_defers_to_a_foreign_lease(self, tmp_path):
        store = TraceStore(tmp_path)
        key = result_key(spec_a())
        write_lease(store, key.ref, host="elsewhere", expires_in=60.0)
        waiter = store.claim_result(key)
        assert waiter is not None
        assert not waiter.wait(timeout=0.2)  # holder alive, no result
        (store.lease_dir / f"r-{key.ref}.json").unlink()
        assert waiter.wait(timeout=5.0)  # lease gone: caller re-checks
        # Now the claim is winnable.
        assert store.claim_result(key) is None
        store.abandon_result_claim(key)

    def test_owned_claim_creates_and_releases_a_lease(self, tmp_path):
        store = TraceStore(tmp_path)
        key = result_key(spec_a())
        assert store.claim_result(key) is None
        assert store.lease_holder(key.ref) is not None
        store.abandon_result_claim(key)
        assert store.lease_holder(key.ref) is None

    def test_get_result_keeps_a_claim_taken_after_its_put(
        self, tmp_path, monkeypatch
    ):
        """``get_result`` abandons its claim only on failure: a claim a
        sibling thread of the same store takes right after the put
        published must keep its lease."""
        from repro.backends import evaluate_scenario
        from repro.engine import kernel_trace_cached

        store = TraceStore(tmp_path)
        spec = spec_a()
        key = result_key(spec)
        _kernel, scenario = next(spec.points())
        trace = kernel_trace_cached("first_diff", n=96, store=store)
        original = TraceStore.put_result
        sibling_claims = []

        def put_then_sibling_claims(self, put_key, outcome):
            path = original(self, put_key, outcome)
            sibling_claims.append(self.claim_result(put_key))
            return path

        monkeypatch.setattr(TraceStore, "put_result", put_then_sibling_claims)
        store.get_result(key, lambda: evaluate_scenario(trace, scenario))
        assert sibling_claims == [None]  # the sibling owns the claim
        assert store.lease_holder(key.ref) is not None
        store.abandon_result_claim(key)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_does_not_wait_on_an_inherited_flight(
        self, tmp_path, monkeypatch
    ):
        """A child forked while its parent holds a claim inherits the
        claim's event, which no thread of the child will ever set.  It
        must defer to the parent's lease instead, and take the parent's
        put as a hit as soon as it lands, not at the claim deadline."""
        from repro.backends import evaluate_scenario
        from repro.engine import kernel_trace_cached

        monkeypatch.setattr(store_module, "_INFLIGHT_TIMEOUT_S", 30.0)
        store = TraceStore(tmp_path)
        spec = spec_a()
        key = result_key(spec)
        _kernel, scenario = next(spec.points())
        trace = kernel_trace_cached("first_diff", n=96, store=store)
        assert store.claim_result(key) is None  # the parent owns it
        fork = mp.get_context("fork")
        queue = fork.Queue()
        child = fork.Process(
            target=_get_a_claimed_result, args=(store, key, queue)
        )
        child.start()
        try:
            time.sleep(0.3)
            store.put_result(key, evaluate_scenario(trace, scenario))
            try:
                report = queue.get(timeout=10)
            except Empty:
                pytest.fail("the child is still waiting on the flight")
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
        assert report["hit"] and not report["computed"]
        assert report["waited_s"] < 5.0
        assert child.exitcode == 0


def _drive_campaign(root, barrier, queue, which):
    """Child-process body: run one campaign against the shared root."""
    from repro.backends import evaluation_count
    from repro.engine import TraceStore as Store
    from repro.engine import interpretation_count
    from repro.engine import run_campaign as run

    store_module.LEASE_TTL_S = 10.0
    spec = spec_a() if which == "a" else spec_b()
    store = Store(root)
    barrier.wait(timeout=60)
    ev0, in0 = evaluation_count(), interpretation_count()
    result = run(spec, store=store, parallel=False)
    queue.put(
        {
            "which": which,
            "evaluations": evaluation_count() - ev0,
            "interpretations": interpretation_count() - in0,
            "executor": result.executor,
            "points": len(result),
        }
    )


def _get_a_claimed_result(store, key, queue):
    """Forked-child body: ask for a result the parent has claimed."""
    computed = []

    def compute():
        computed.append(True)
        raise RuntimeError("the child computed a claimed point")

    started = time.monotonic()
    try:
        hit = store.get_result(key, compute) is not None
    except RuntimeError:
        hit = False
    queue.put(
        {
            "hit": hit,
            "computed": bool(computed),
            "waited_s": time.monotonic() - started,
        }
    )


def _crash_holding_lease(root, key_dict, acquired_event):
    """Child-process body: claim a point, signal, die mid-build."""
    from repro.engine import TraceStore as Store

    store_module.LEASE_TTL_S = 60.0
    store = Store(root)
    key = ResultKey(**key_dict)
    assert store.claim_result(key) is None
    acquired_event.set()
    time.sleep(60)  # parent kills us first; belt against hangs
    os._exit(0)


class TestTwoProcessRaces:
    def test_two_processes_build_every_entry_exactly_once(
        self, tmp_path, monkeypatch
    ):
        """The flagship: two independent processes, one store root —
        every unique result built once, the trace interpreted once.
        The merged event log tells the same story from the outside."""
        stem = tmp_path / "telemetry" / "events"
        monkeypatch.setenv("REPRO_OBS", f"jsonl:{stem}")
        root = str(tmp_path / "store")
        context = ctx()
        barrier = context.Barrier(2)
        queue = context.Queue()
        processes = [
            context.Process(
                target=_drive_campaign, args=(root, barrier, queue, which)
            )
            for which in ("a", "b")
        ]
        for process in processes:
            process.start()
        reports = [queue.get(timeout=240) for _ in processes]
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0

        expected = unique_points(spec_a(), spec_b())
        total_evals = sum(r["evaluations"] for r in reports)
        total_interps = sum(r["interpretations"] for r in reports)
        assert total_evals == len(expected)
        assert total_interps == 1  # one kernel, interpreted once, ever

        store = TraceStore(root)
        assert store.n_results() == len(expected)
        assert len(store) == 1
        # The loser deferred its overlapping points to the winner.
        assert any(
            "shared[" in r["executor"] or "cache[" in r["executor"]
            for r in reports
        )
        # No leases survive two clean completions.
        assert store.active_leases() == 0
        # Every unique point's artifact sits at its canonical path.
        for key in expected:
            assert store.result_path_for(key).is_file()
        assert store.stats()["result_entries"] == len(expected)

        # Telemetry audit: the merged log shows one trace build ever,
        # both campaigns completing, and no lease left unexplained.
        events = merged_events(stem)
        obs.configure(None)
        assert count_events(events, "trace.build.start") == 1
        assert count_events(events, "trace.build.done") == 1
        assert count_events(events, "campaign.done") == 2
        acquires = count_events(events, "lease.acquire")
        releases = count_events(events, "lease.release")
        expires = count_events(events, "lease.expire")
        assert acquires == releases + expires
        assert {event["pid"] for event in events if
                event["event"] == "campaign.done"} == {
            process.pid for process in processes
        }

    def test_crash_mid_lease_is_recovered(self, tmp_path, monkeypatch):
        """A holder that dies mid-build delays rivals, never blocks
        them: its pid is seen dead and the lease is stolen."""
        root = str(tmp_path / "store")
        spec = spec_a()
        key = result_key(spec)
        context = ctx()
        acquired = context.Event()
        child = context.Process(
            target=_crash_holding_lease,
            args=(
                root,
                {
                    "trace_digest": key.trace_digest,
                    "scenario_digest": key.scenario_digest,
                    "backend": key.backend,
                },
                acquired,
            ),
        )
        child.start()
        assert acquired.wait(timeout=60)
        child.kill()  # crash mid-build, lease file left behind
        child.join(timeout=60)

        monkeypatch.setattr(store_module, "LEASE_TTL_S", 60.0)
        store = TraceStore(root)
        assert (store.lease_dir / f"r-{key.ref}.json").is_file()
        # The TTL has 60s to run — but the holder is dead on this
        # host, so the claim is stolen immediately.
        deadline = time.time() + 30
        claim = store.claim_result(key)
        while claim is not None and time.time() < deadline:
            claim.wait(timeout=1.0)
            claim = store.claim_result(key)
        assert claim is None, "dead holder's lease was never stolen"
        store.abandon_result_claim(key)

        # And a full campaign over the same root completes normally.
        result = run_campaign(spec, store=store, parallel=False)
        assert len(result) == spec.n_points
        assert store.active_leases() == 0


def _die_before_rename(root, kind):
    """Child-process body: build one entry, die between writing its
    temp file and renaming it into place."""
    from repro.backends import evaluate_scenario
    from repro.engine import kernel_trace_cached

    store = TraceStore(root)
    if kind == "result":
        trace = kernel_trace_cached("first_diff", n=96, store=store)
    replace = os.replace

    def die_before_artifact_rename(src, dst):
        if str(dst).endswith(".npz"):
            os._exit(17)
        replace(src, dst)

    os.replace = die_before_artifact_rename
    if kind == "trace":
        kernel_trace_cached("first_diff", n=96, store=store)
    else:
        _kernel, scenario = next(spec_a().points())
        store.get_result(
            result_key(spec_a()), lambda: evaluate_scenario(trace, scenario)
        )
    os._exit(0)


def temp_files(root: Path) -> list[Path]:
    return sorted(root.rglob("*.tmp"))


class TestKilledWriters:
    """A writer killed before its rename leaves only a temp file named
    for it, which reads as a miss and which the next GC pass reaps."""

    @pytest.mark.parametrize("kind", ["trace", "result"])
    def test_death_mid_put(self, tmp_path, kind):
        from repro.backends import evaluate_scenario, evaluation_count
        from repro.engine import interpretation_count, kernel_trace_cached

        root = tmp_path / "store"
        child = ctx().Process(target=_die_before_rename, args=(root, kind))
        child.start()
        child.join(timeout=120)
        assert child.exitcode == 17
        (orphan,) = temp_files(root / f"{kind}s")
        assert f".{store_module.HOST}-{child.pid}-" in orphan.name

        store = TraceStore(root)
        trace_key = kernel_trace_key("first_diff", n=96)
        key = result_key(spec_a())
        if kind == "trace":
            assert store.load(trace_key) is None
        else:
            assert store.lookup_result(key) is None
        store.gc()
        assert temp_files(root) == []
        assert store.active_leases() == 0  # the dead child's, swept

        before = (interpretation_count(), evaluation_count())
        trace = kernel_trace_cached("first_diff", n=96, store=store)
        _kernel, scenario = next(spec_a().points())
        store.get_result(key, lambda: evaluate_scenario(trace, scenario))
        store.get_result(key, lambda: evaluate_scenario(trace, scenario))
        built = (interpretation_count() - before[0],
                 evaluation_count() - before[1])
        assert built == ((1, 1) if kind == "trace" else (0, 1))
        assert store.path_for(trace_key).stat().st_mode & 0o777 == 0o600
        assert store.result_path_for(key).stat().st_mode & 0o777 == 0o600

    def test_only_orphaned_temps_are_reaped(self, tmp_path, monkeypatch):
        """GC and ``clear`` take a dead same-host writer's temp at once
        and any temp untouched for a TTL; a live writer's temp stays."""
        monkeypatch.setattr(store_module, "LEASE_TTL_S", 60.0)
        store = TraceStore(tmp_path, max_bytes=10_000)
        child = ctx().Process(target=lambda: None)
        child.start()
        child.join(timeout=30)
        shard = tmp_path / "results" / "ab"
        shard.mkdir(parents=True)
        host = store_module.HOST
        dead = shard / f"x-ab.npz.{host}-{child.pid}-0.tmp"
        dead.write_bytes(b"\0" * 1_000_000)
        live = shard / f"x-ab.npz.{host}-{os.getpid()}-0.tmp"
        live.write_bytes(b"live")
        elsewhere = shard / "x-ab.npz.elsewhere-1-0.tmp"
        elsewhere.write_bytes(b"fresh")
        stale = shard / "x-ab.npz.elsewhere-2-0.tmp"
        stale.write_bytes(b"old")
        long_ago = time.time() - 120.0
        os.utime(stale, (long_ago, long_ago))

        store.gc()
        assert temp_files(tmp_path) == sorted([live, elsewhere])
        store.clear()
        assert temp_files(tmp_path) == sorted([live, elsewhere])
        monkeypatch.setattr(store_module, "LEASE_TTL_S", 0.0)
        store.clear()
        assert temp_files(tmp_path) == []
