"""The observability layer: events, spans, metrics, phases, progress.

Unit coverage for :mod:`repro.obs` plus the integration the subsystem
exists for — a campaign run with ``REPRO_OBS`` set produces a merged
JSONL whose span tree covers build -> cache -> evaluate -> reduce for
every grid point, with ~zero instrumentation cost when the sink is
off.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.obs import events as events_mod
from repro.obs.spans import _NULL_SPAN


@pytest.fixture(autouse=True)
def _reset_obs(monkeypatch):
    """Every test starts and ends with a disabled, unpinned sink —
    even when the surrounding run (e.g. CI's stress step) exported
    ``REPRO_OBS`` globally."""
    monkeypatch.delenv("REPRO_OBS", raising=False)
    obs.configure(None)
    yield
    obs.configure(None)


@pytest.fixture
def stem(tmp_path):
    stem = tmp_path / "events"
    obs.configure(f"jsonl:{stem}")
    return stem


class TestEventSink:
    def test_inactive_by_default(self):
        assert not obs.active()
        assert obs.event_path() is None
        obs.emit("noop")  # must not raise or create files

    def test_bad_spec_is_rejected(self):
        with pytest.raises(ValueError, match="jsonl"):
            obs.configure("statsd:localhost")
        with pytest.raises(ValueError, match="jsonl"):
            obs.configure("jsonl:")

    def test_configure_pins_over_environment(self, tmp_path, monkeypatch):
        pinned = tmp_path / "pinned"
        obs.configure(f"jsonl:{pinned}")
        monkeypatch.setenv("REPRO_OBS", f"jsonl:{tmp_path / 'env'}")
        assert obs.event_path() == pinned.parent / (
            f"pinned-{obs.HOSTNAME}-{os.getpid()}.jsonl"
        )
        obs.configure(None)  # unpin: the env takes over again
        assert obs.event_path() is not None
        assert "env" in obs.event_path().name

    def test_env_changes_are_adopted_lazily(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", f"jsonl:{tmp_path / 'one'}")
        assert obs.active()
        monkeypatch.setenv("REPRO_OBS", f"jsonl:{tmp_path / 'two'}")
        assert "two" in obs.event_path().name
        monkeypatch.delenv("REPRO_OBS")
        assert not obs.active()

    def test_trailing_jsonl_suffix_is_shed(self, tmp_path):
        obs.configure(f"jsonl:{tmp_path / 'log.jsonl'}")
        assert obs.event_path().name == (
            f"log-{obs.HOSTNAME}-{os.getpid()}.jsonl"
        )

    def test_emit_writes_one_json_line_per_event(self, stem):
        obs.emit("alpha", n=1)
        obs.emit("beta", label="x")
        records = list(obs.read_events(obs.event_path()))
        assert [r["event"] for r in records] == ["alpha", "beta"]
        assert records[0]["n"] == 1
        assert records[0]["pid"] == os.getpid()
        assert records[0]["host"] == obs.HOSTNAME
        assert records[0]["ts"] > 0

    def test_subscriber_without_sink_activates_emission(self):
        seen: list[dict] = []
        obs.subscribe(seen.append)
        try:
            assert obs.active()
            obs.emit("ping", k=2)
        finally:
            obs.unsubscribe(seen.append)
        assert not obs.active()
        assert seen[0]["event"] == "ping" and seen[0]["k"] == 2

    def test_subscriber_exceptions_are_swallowed(self, stem):
        def boom(event):
            raise RuntimeError("subscriber bug")

        obs.subscribe(boom)
        try:
            obs.emit("survives")
        finally:
            obs.unsubscribe(boom)
        assert [r["event"] for r in obs.read_events(obs.event_path())] == [
            "survives"
        ]

    def test_read_events_skips_torn_lines(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text(
            '{"event": "good", "ts": 1}\n'
            '{"event": "torn", "ts":\n'
            "\n"
            "[1, 2, 3]\n"
            '{"event": "also-good", "ts": 2}\n'
        )
        assert [r["event"] for r in obs.read_events(path)] == [
            "good",
            "also-good",
        ]

    def test_read_events_missing_file(self, tmp_path):
        assert list(obs.read_events(tmp_path / "absent.jsonl")) == []

    def test_merge_orders_across_processes_without_deleting(
        self, tmp_path
    ):
        # Simulate three processes' files with interleaved timestamps.
        for pid, ts in ((101, 3.0), (202, 1.0), (303, 2.0)):
            (tmp_path / f"ev-{pid}.jsonl").write_text(
                json.dumps({"ts": ts, "pid": pid, "event": "e"}) + "\n"
            )
        merged = obs.merge(tmp_path / "ev")
        assert merged == tmp_path / "ev.jsonl"
        assert [r["pid"] for r in obs.read_events(merged)] == [202, 303, 101]
        # Non-destructive and idempotent.
        assert len(list(tmp_path.glob("ev-*.jsonl"))) == 3
        assert obs.merge(tmp_path / "ev.jsonl") == merged
        assert len(list(obs.read_events(merged))) == 3

    def test_merge_is_idempotent_over_an_already_merged_stem(
        self, tmp_path
    ):
        # A merged file produced for a *narrower* stem (events-hostA)
        # matches the broader stem's part glob (events-*): its records
        # must not be counted twice — once from the raw per-process
        # files and once from the earlier merge product.
        for host, pid, ts in (("hostA", 7, 1.0), ("hostB", 7, 2.0)):
            (tmp_path / f"ev-{host}-{pid}.jsonl").write_text(
                json.dumps(
                    {"ts": ts, "host": host, "pid": pid, "event": "e"}
                )
                + "\n"
            )
        merged = obs.merge(tmp_path / "ev")
        assert len(list(obs.read_events(merged))) == 2
        # Simulate the earlier narrow merge landing in the glob.
        narrow = tmp_path / "ev-hostA.jsonl"
        narrow.write_text((tmp_path / "ev-hostA-7.jsonl").read_text())
        assert obs.merge(tmp_path / "ev") == merged
        assert len(list(obs.read_events(merged))) == 2
        # Re-running over the unchanged layout changes nothing either.
        assert obs.merge(tmp_path / "ev") == merged
        assert len(list(obs.read_events(merged))) == 2

    def test_merge_without_configuration_returns_none(self):
        assert obs.merge() is None

    def test_merge_uses_the_active_sink_by_default(self, stem):
        obs.emit("only")
        merged = obs.merge()
        assert merged == stem.parent / "events.jsonl"
        assert [r["event"] for r in obs.read_events(merged)] == ["only"]


class TestSpans:
    def test_null_span_when_inactive(self):
        assert obs.span("anything") is _NULL_SPAN
        with obs.span("anything") as nothing:
            assert obs.current_span_id() is None
            assert nothing is _NULL_SPAN

    def test_span_event_carries_ids_and_duration(self, stem):
        with obs.span("outer", ref="r1"):
            outer_id = obs.current_span_id()
            with obs.span("inner"):
                assert obs.current_span_id() != outer_id
        assert obs.current_span_id() is None
        spans = {r["name"]: r for r in obs.read_events(obs.event_path())}
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["outer"]["parent_id"] is None
        assert spans["outer"]["ref"] == "r1"
        assert spans["outer"]["dur_s"] >= spans["inner"]["dur_s"] >= 0
        assert spans["outer"]["ok"] and spans["inner"]["ok"]

    def test_span_ids_embed_the_host_and_pid(self, stem):
        with obs.span("tagged"):
            span_id = obs.current_span_id()
        assert span_id.startswith(f"{obs.HOSTNAME}-{os.getpid():x}-")

    def test_exception_marks_span_not_ok_and_unwinds(self, stem):
        with pytest.raises(RuntimeError):
            with obs.span("failing"):
                raise RuntimeError("inside")
        (record,) = obs.read_events(obs.event_path())
        assert record["ok"] is False
        assert obs.current_span_id() is None


class TestMetrics:
    def test_counter_is_monotonic(self):
        counter = obs.Counter("jobs")
        counter.inc()
        counter.inc(4)
        assert counter.snapshot() == {"jobs_total": 5}
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = obs.Gauge("depth")
        gauge.set(7)
        gauge.inc(2)
        gauge.dec()
        assert gauge.snapshot() == {"depth": 8}

    def test_registry_get_or_create_and_kind_clash(self):
        registry = obs.MetricsRegistry()
        assert registry.counter("hits") is registry.counter("hits")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("hits")

    def test_snapshot_and_prometheus_export(self):
        registry = obs.MetricsRegistry()
        registry.label("policy", "lru")
        registry.counter("hits", "cache hits").inc(3)
        registry.gauge("entries").set(11)
        snap = registry.snapshot()
        assert snap["policy"] == "lru"
        assert snap["hits_total"] == 3
        assert snap["entries"] == 11
        text = registry.to_prometheus()
        assert "# policy: lru" in text
        assert "# HELP hits cache hits" in text
        assert "# TYPE hits counter" in text
        assert "hits_total 3" in text
        assert "entries 11" in text


class TestProfile:
    """The replay engines mark their phases with ``phase.<name>``
    spans, which cost one shared no-op when nothing listens."""

    def test_phase_is_null_when_nothing_listens(self):
        assert obs.span("phase.classify") is _NULL_SPAN

    def test_phase_emits_a_span_when_tracing(self, stem):
        from repro.core import MachineConfig, simulate
        from repro.engine import kernel_trace_cached

        trace = kernel_trace_cached("first_diff", n=64)
        simulate(trace, MachineConfig(n_pes=2, page_size=16, cache_elems=32))
        names = {
            record["name"]
            for record in obs.read_events(obs.event_path())
            if record["event"] == "span"
        }
        assert {"phase.classify", "phase.cache_sim", "phase.reduction"} <= names


class TestProgressLine:
    @staticmethod
    def point(done, total, cached=False):
        return {
            "event": "campaign.point",
            "done": done,
            "total": total,
            "kernel": "k[n=8]",
            "scenario": "untimed pes=2",
            "cache_hit": cached,
        }

    def test_renders_points_and_guarantees_final_newline(self):
        stream = io.StringIO()
        with obs.ProgressLine(stream) as line:
            line(self.point(1, 2))
            line({"event": "lease.acquire"})  # ignored
            line(self.point(2, 2, cached=True))
        text = stream.getvalue()
        assert "[1/2] k[n=8] untimed pes=2" in text
        assert "(cached)" in text
        assert text.endswith("\n")

    def test_subscribes_to_the_event_stream(self):
        stream = io.StringIO()
        with obs.ProgressLine(stream):
            obs.emit(
                "campaign.point",
                done=1,
                total=4,
                kernel="hydro",
                scenario="pes=1",
            )
        assert "[1/4] hydro pes=1" in stream.getvalue()
        assert not obs.active()  # unsubscribed on close

    def test_clear_blanks_the_line(self):
        stream = io.StringIO()
        line = obs.ProgressLine(stream)
        line.update("  [1/9] something")
        line.clear()
        assert stream.getvalue().endswith(" \r")
        line.clear()  # second clear is a no-op
        line.close()
        # Cleared before close: no trailing newline was owed.
        assert not stream.getvalue().endswith("\n")

    def test_no_newline_when_nothing_was_drawn(self):
        stream = io.StringIO()
        with obs.ProgressLine(stream):
            pass
        assert stream.getvalue() == ""

    def test_closed_line_ignores_updates(self):
        stream = io.StringIO()
        line = obs.ProgressLine(stream)
        line.close()
        line.close()  # idempotent
        line.update("late")
        assert "late" not in stream.getvalue()

    def test_broken_stream_does_not_raise(self):
        stream = io.StringIO()
        line = obs.ProgressLine(stream)
        line.update("  [1/2] x")
        stream.close()
        line.update("  [2/2] y")
        line.clear()
        line.close()


class TestObsCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def seed_events(self, tmp_path):
        stem = tmp_path / "cli-events"
        obs.configure(f"jsonl:{stem}")
        obs.emit("cache.miss", ref="aa")
        with obs.span("engine.evaluate"):
            pass
        with obs.span("engine.evaluate"):
            pass
        obs.configure(None)
        return stem

    def test_obs_without_configuration_fails_cleanly(self, capsys):
        assert self.run_cli("obs", "summary") == 2
        assert "REPRO_OBS" in capsys.readouterr().err

    def test_obs_merge_tail_summary(self, tmp_path, capsys):
        stem = self.seed_events(tmp_path)
        assert self.run_cli("obs", "merge", "--stem", str(stem)) == 0
        assert "merged 3 events" in capsys.readouterr().out

        assert (
            self.run_cli("obs", "tail", "--stem", str(stem), "-n", "2") == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["event"] == "span" for line in lines)

        assert self.run_cli("obs", "summary", "--stem", str(stem)) == 0
        out = capsys.readouterr().out
        assert "cache.miss" in out and "span" in out
        assert "engine.evaluate" in out  # span rollup table

    def test_obs_reads_stem_from_environment(
        self, tmp_path, monkeypatch, capsys
    ):
        stem = self.seed_events(tmp_path)
        monkeypatch.setenv("REPRO_OBS", f"jsonl:{stem}")
        assert self.run_cli("obs", "summary") == 0
        assert "3 events" in capsys.readouterr().out


class TestCampaignIntegration:
    def small_spec(self, name):
        from repro.engine import CampaignSpec, KernelSpec

        return CampaignSpec(
            name=name,
            kernels=(KernelSpec("first_diff", n=64),),
            pes=(1, 2),
            page_sizes=(16,),
            cache_elems=(64,),
        )

    def test_records_carry_wall_time_and_cache_hit(self, tmp_path):
        from repro.engine import TraceStore, run_campaign

        store = TraceStore(tmp_path / "store")
        spec = self.small_spec("obs-wall")
        first = run_campaign(spec, store=store, parallel=False)
        assert all(r.cache_hit is False for r in first.records)
        assert all(
            r.eval_wall_s is not None and r.eval_wall_s >= 0
            for r in first.records
        )
        again = run_campaign(spec, store=store, parallel=False)
        assert all(r.cache_hit is True for r in again.records)
        # Replayed outcomes are still bit-identical: wall/hit columns
        # are provenance, not physics.
        assert again.identical(first)
        document = json.loads(first.to_json())
        row = document["results"][0]
        assert "eval_wall_s" in row and "cache_hit" in row
        headers, rows = first.rows(first.kernels()[0])
        assert "eval_s" in headers and "hit" in headers

    def test_a_finished_campaign_leaves_the_log_unmerged(self, tmp_path):
        """Merging reads every part file, so a campaign does not pay
        for it; ``repro obs`` and :func:`obs.merge` merge on demand."""
        from repro.engine import TraceStore, run_campaign

        stem = tmp_path / "events"
        obs.configure(f"jsonl:{stem}")
        spec = self.small_spec("obs-unmerged")
        run_campaign(spec, store=TraceStore(tmp_path / "store"), parallel=False)
        assert list(tmp_path.glob("events-*.jsonl"))
        assert not (tmp_path / "events.jsonl").exists()
        done = [
            event
            for event in obs.read_events(obs.merge())
            if event["event"] == "campaign.done"
        ]
        assert [event["campaign"] for event in done] == [spec.digest[:8]]

    def test_span_tree_covers_every_grid_point(self, tmp_path):
        """Acceptance: one campaign run through an evaluation service
        with the sink on yields a merged JSONL whose span tree covers
        build -> cache -> evaluate for every grid point."""
        from repro.engine import EvalService, TraceStore, run_campaign

        service = EvalService(workers=0)
        try:
            stem = tmp_path / "svc-events"
            obs.configure(f"jsonl:{stem}")
            spec = self.small_spec("obs-svc")
            store = TraceStore(tmp_path / "store")
            result = run_campaign(spec, store=store, service=service)
            merged = obs.merge()
            obs.configure(None)

            events = list(obs.read_events(merged))
            kinds = [e["event"] for e in events]
            assert kinds.count("trace.build.start") == 1
            assert kinds.count("trace.build.done") == 1
            assert kinds.count("cache.miss") == spec.n_points
            assert kinds.count("campaign.point") == spec.n_points
            assert kinds.count("campaign.start") == 1
            assert kinds.count("campaign.done") == 1
            spans = [e for e in events if e["event"] == "span"]
            names = [s["name"] for s in spans]
            assert names.count("store.build_trace") == 1
            assert names.count("engine.evaluate") == spec.n_points
            # Each evaluation span wraps the columnar engine's phases.
            evaluate_ids = {
                s["span_id"] for s in spans if s["name"] == "engine.evaluate"
            }
            classify_parents = {
                s["parent_id"]
                for s in spans
                if s["name"] == "phase.classify_vec"
            }
            assert classify_parents <= evaluate_ids
            assert len(classify_parents) == spec.n_points
            assert len(result) == spec.n_points
            service_stats = service.stats()
            assert service_stats["completed_total"] == spec.n_points
        finally:
            obs.configure(None)
            service.close()


class TestEmitResilience:
    def test_write_failures_never_raise(self, tmp_path, monkeypatch):
        obs.configure(f"jsonl:{tmp_path / 'ev'}")
        obs.emit("first")  # opens the handle
        events_mod._fh.close()  # swap in a broken handle below

        class Exploding:
            def write(self, *_):
                raise OSError("disk full")

            def flush(self):
                raise OSError("disk full")

            def close(self):
                raise OSError("already broken")

        monkeypatch.setattr(events_mod, "_fh", Exploding())
        obs.emit("second")  # swallowed
        obs.configure(None)  # close of the broken handle is swallowed too

    def test_sink_is_closed_at_exit(self, tmp_path):
        """A traced process closes its sink before the interpreter
        does: under ``-X dev`` an open file at exit is reported as a
        ``ResourceWarning``, which exits 0 and so needs looking for."""
        env = dict(os.environ)
        src = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["REPRO_OBS"] = f"jsonl:{tmp_path / 'ev'}"
        done = subprocess.run(
            [
                sys.executable,
                "-X",
                "dev",
                "-c",
                "from repro import obs; obs.emit('probe')",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "ResourceWarning" not in done.stderr
        (part,) = tmp_path.glob("ev-*.jsonl")
        assert [e["event"] for e in obs.read_events(part)] == ["probe"]
