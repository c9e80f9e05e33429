"""The evaluation fleet: one store root, many machines.

Three layers, matching the package:

* protocol/schema units — framing survives round trips and refuses
  garbage before allocation; the campaign schema accepts the documented
  format and names each violation;
* coordinator units — round-robin fairness, worker-loss requeue,
  attempt caps, idempotent admission;
* end-to-end — a real ``repro serve --listen`` process and a real
  ``repro worker`` process over one shared store root, with the
  exactly-once guarantee audited from the merged obs event log, and a
  worker SIGKILLed mid-claim whose campaign still completes through
  the lease-steal recovery path.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.backends import MODES
from repro.cache import POLICIES
from repro.core.simulator import REDUCTION_STRATEGIES
from repro.engine import CampaignSpec, TraceStore, run_campaign
from repro.engine.schema import (
    CAMPAIGN_SCHEMA,
    CAMPAIGN_SCHEMA_VERSION,
    validate_campaign,
)
from repro.fleet import (
    FleetClient,
    FleetCoordinator,
    FleetError,
    FleetProtocolError,
    PROTOCOL_VERSION,
    parse_address,
    read_frame,
    write_frame,
)
from repro.fleet.coordinator import SaturatedError
from repro.fleet.server import FleetServer
from repro.fleet.worker import evaluate_point, run_spool_worker, spool_dir

SMALL_SPEC = {
    "name": "fleet-small",
    "backend": "untimed",
    "kernels": [{"name": "first_diff", "n": 64}],
    "pes": [1, 2],
    "page_sizes": [16],
    "cache_elems": [0],
}


def small_spec(**overrides) -> CampaignSpec:
    return CampaignSpec.from_dict({**SMALL_SPEC, **overrides})


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_frame_round_trip(self):
        buffer = io.BytesIO()
        message = {"op": "hello", "proto": PROTOCOL_VERSION, "text": "π\n{}"}
        write_frame(buffer, message)
        buffer.seek(0)
        assert read_frame(buffer) == message
        assert read_frame(buffer) is None  # clean EOF

    def test_frame_is_length_delimited_not_content_sniffed(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"op": "x", "body": "12\nfake\nframe"})
        write_frame(buffer, {"op": "y"})
        buffer.seek(0)
        assert read_frame(buffer)["body"] == "12\nfake\nframe"
        assert read_frame(buffer) == {"op": "y"}

    @pytest.mark.parametrize(
        "wire",
        [
            b"nope\n{}",  # non-numeric header
            b"-3\nxxx\n",  # negative length
            b"99999999999\n",  # over the frame bound
            b"10\nshort\n",  # truncated body
            b"2\n{}",  # missing trailing newline
            b'6\n"text"\n',  # JSON but not an object
            b'2\n{}\n',  # object without an op
        ],
    )
    def test_garbage_is_refused(self, wire):
        with pytest.raises(FleetProtocolError):
            read_frame(io.BytesIO(wire))

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7341") == ("127.0.0.1", 7341)
        assert parse_address("[::1]:80") == ("::1", 80)
        for bad in ("nohost", "host:", ":123", "host:abc"):
            with pytest.raises(ValueError):
                parse_address(bad)


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


class TestSchema:
    def test_schema_is_versioned(self):
        assert CAMPAIGN_SCHEMA["$id"].endswith(
            f"v{CAMPAIGN_SCHEMA_VERSION}"
        )
        assert CAMPAIGN_SCHEMA_VERSION == 1

    def test_minimal_and_full_documents_conform(self):
        assert validate_campaign({"kernels": ["iccg"]}) == []
        assert validate_campaign(SMALL_SPEC) == []
        # Everything CampaignSpec serialises must round-trip the gate.
        assert validate_campaign(small_spec().to_dict()) == []

    @pytest.mark.parametrize(
        "document, needle",
        [
            ({}, "missing required key 'kernels'"),
            ({"kernels": []}, "at least 1"),
            ({"kernels": ["iccg"], "bogus": 1}, "unknown key 'bogus'"),
            ({"kernels": [{"n": 5}]}, "none of"),
            ({"kernels": ["iccg"], "pes": [0]}, "below the minimum"),
            ({"kernels": ["iccg"], "pes": [True]}, "expected integer"),
            ({"kernels": ["iccg"], "modes": ["warp"]}, "not one of"),
            ({"kernels": ["iccg"], "name": ""}, "must not be empty"),
            ({"kernels": "iccg"}, "expected array"),
        ],
    )
    def test_violations_are_named(self, document, needle):
        violations = validate_campaign(document)
        assert violations, f"expected a violation for {document!r}"
        assert any(needle in v for v in violations), violations

    def test_structural_gate_precedes_semantic_errors(self):
        # Unknown kernel *name* is semantic (registry) — the schema
        # accepts it; CampaignSpec.from_dict rejects it.
        document = {"kernels": ["no_such_kernel"]}
        assert validate_campaign(document) == []
        with pytest.raises(KeyError, match="unknown kernel"):
            CampaignSpec.from_dict(document)

    def test_enums_read_the_constructors_lists(self):
        properties = CAMPAIGN_SCHEMA["properties"]
        enums = {
            axis: properties[axis]["items"]["enum"]
            for axis in ("cache_policies", "reduction_strategies", "modes")
        }
        assert enums == {
            "cache_policies": sorted(POLICIES),
            "reduction_strategies": list(REDUCTION_STRATEGIES),
            "modes": list(MODES),
        }


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------


class TestCoordinator:
    def test_round_robin_across_campaigns(self):
        fleet = FleetCoordinator()
        first = small_spec(name="first", pes=[1, 2, 4, 8])
        second = small_spec(name="second")
        fleet.submit(first)
        fleet.submit(second)
        handed = [fleet.next_job("w") for _ in range(6)]
        campaigns = [job["campaign"][:8] for job in handed]
        # Alternating service while both have pending work, then the
        # bigger campaign drains alone.
        a, b = first.digest[:8], second.digest[:8]
        assert campaigns == [a, b, a, b, a, a]
        assert fleet.next_job("w") is None  # everything handed out

    def test_submission_is_idempotent_by_digest(self):
        fleet = FleetCoordinator()
        spec = small_spec()
        fresh = fleet.submit(spec)
        again = fleet.submit(CampaignSpec.from_dict(spec.to_dict()))
        assert not fresh["known"] and again["known"]
        assert fresh["campaign"] == again["campaign"]
        assert fleet.stats()["campaigns"] == 1

    def test_admission_control_saturates(self):
        fleet = FleetCoordinator(max_campaigns=1)
        one = fleet.submit(small_spec(name="one"))["campaign"]
        with pytest.raises(SaturatedError, match="max_campaigns"):
            fleet.submit(small_spec(name="two"))
        # A finished campaign frees its slot and stays known.
        while (job := fleet.next_job("w")) is not None:
            fleet.complete(job["job_id"], ok=True)
        assert not fleet.submit(small_spec(name="two"))["known"]
        assert fleet.status(one)["state"] == "done"

    def test_completion_drives_campaign_state(self):
        fleet = FleetCoordinator()
        digest = fleet.submit(small_spec())["campaign"]
        jobs = [fleet.next_job("w"), fleet.next_job("w")]
        assert fleet.status(digest)["state"] == "running"
        for job in jobs:
            fleet.complete(job["job_id"], ok=True)
        status = fleet.status(digest)
        assert status["state"] == "done"
        assert status["done"] == status["total"] == 2
        assert fleet.idle

    def test_worker_loss_requeues_without_burning_attempts(self):
        fleet = FleetCoordinator(max_attempts=1)
        fleet.submit(small_spec())
        lost_job = fleet.next_job("doomed")
        assert fleet.worker_lost("doomed") == 1
        # The point is pending again, at the front, and the attempt
        # that died in transit was not charged (max_attempts=1 would
        # otherwise fail it on the next error).
        retry = fleet.next_job("healthy")
        assert retry["index"] == lost_job["index"]
        assert retry["attempt"] == 1
        # A completion racing the loss is acked as unknown, not fatal.
        assert fleet.complete(lost_job["job_id"], ok=True) is None

    def test_attempt_cap_turns_into_structured_failure(self):
        fleet = FleetCoordinator(max_attempts=2)
        digest = fleet.submit(small_spec())["campaign"]
        # A failed point requeues at the *front* and comes back first.
        job = fleet.next_job("w")
        assert (job["index"], job["attempt"]) == (0, 1)
        fleet.complete(job["job_id"], ok=False, error="boom")
        job = fleet.next_job("w")
        assert (job["index"], job["attempt"]) == (0, 2)
        fleet.complete(job["job_id"], ok=False, error="boom")
        # Attempt cap spent: index 0 stops retrying; index 1 still runs.
        job = fleet.next_job("w")
        assert job["index"] == 1
        fleet.complete(job["job_id"], ok=True)
        assert fleet.next_job("w") is None
        status = fleet.status(digest)
        assert status["state"] == "failed"
        assert status["failures"] == {"0": "boom"}
        # A finished campaign stays known: a re-submit is re-acked,
        # and its failed point is not retried.
        assert fleet.submit(small_spec())["known"]
        assert fleet.next_job("w") is None


# ---------------------------------------------------------------------------
# server + client, in process
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def serving(server: FleetServer):
    """Run ``server`` on a background thread for the ``with`` body."""
    server.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture()
def live_server():
    """A FleetServer on an ephemeral port, serving on a thread."""
    with serving(FleetServer(FleetCoordinator(max_campaigns=4))) as server:
        yield server


def _after_hello(address: tuple[str, int], wire: bytes) -> dict | None:
    """Shake hands, send raw ``wire`` bytes, and read the one reply."""
    with socket.create_connection(address, timeout=10) as sock:
        stream = sock.makefile("rwb")
        write_frame(
            stream,
            {"op": "hello", "proto": PROTOCOL_VERSION, "role": "client"},
        )
        assert read_frame(stream)["op"] == "welcome"
        sock.sendall(wire)
        return read_frame(stream)


class TestServer:
    def address(self, server: FleetServer) -> tuple[str, int]:
        return ("127.0.0.1", server.port)

    def test_handshake_rejects_protocol_mismatch(self, live_server):
        with socket.create_connection(
            self.address(live_server), timeout=10
        ) as sock:
            stream = sock.makefile("rwb")
            write_frame(
                stream, {"op": "hello", "proto": 999, "role": "client"}
            )
            reply = read_frame(stream)
        assert reply["op"] == "error"
        assert "unsupported protocol" in reply["error"]
        assert str(PROTOCOL_VERSION) in reply["error"]

    def test_ping_submit_status_round_trip(self, live_server):
        with FleetClient(self.address(live_server)) as client:
            assert client.request({"op": "ping"}) == {"op": "pong"}
            accepted = client.request(
                {"op": "submit", "spec": SMALL_SPEC}
            )
            assert accepted["op"] == "accepted"
            assert accepted["points"] == 2
            status = client.request(
                {"op": "status", "campaign": accepted["campaign"]}
            )
            assert status["state"] == "running"
            assert status["pending"] == 2

    def test_invalid_spec_is_refused_with_violations(self, live_server):
        with FleetClient(self.address(live_server)) as client:
            with pytest.raises(FleetError, match="rejected"):
                client.request(
                    {"op": "submit", "spec": {"kernels": [], "pes": [0]}}
                )
            # "service" is an executor, not a backend: refused like
            # any other unknown backend name.
            with pytest.raises(FleetError, match="unknown backend"):
                client.request(
                    {
                        "op": "submit",
                        "spec": {**SMALL_SPEC, "backend": "service"},
                    }
                )

    def test_misspelt_cache_policy_is_refused(self, live_server):
        with FleetClient(self.address(live_server)) as client:
            with pytest.raises(FleetError, match="'lur'"):
                client.request(
                    {
                        "op": "submit",
                        "spec": {**SMALL_SPEC, "cache_policies": ["lur"]},
                    }
                )

    @pytest.mark.parametrize(
        "wire, needle",
        [
            # 70,000 digits and no newline: a header that never ends.
            (b"7" * 70_000, "unterminated frame header"),
            # A body whose last byte is not the closing newline.
            (b'13\n{"op":"ping"}X', "truncated frame body"),
            # A valid frame behind a header padded past its 32 bytes.
            (b"0" * 38 + b'13\n{"op":"ping"}\n', "unterminated frame header"),
        ],
        ids=["endless-header", "unterminated-body", "padded-header"],
    )
    def test_malformed_frame_gets_an_error_frame(
        self, live_server, wire, needle
    ):
        """The server frames with the protocol's own codec, so every
        wire that ``read_frame`` refuses is answered with an error
        frame, never with a reply to what the frame might have meant."""
        reply = _after_hello(self.address(live_server), wire)
        assert reply["op"] == "error"
        assert needle in reply["error"]

    @pytest.mark.parametrize(
        "timeout", ["soon", None, float("nan")], ids=["text", "null", "nan"]
    )
    def test_wait_timeout_must_be_a_finite_number(self, live_server, timeout):
        """A bad ``timeout`` is refused with an error frame; a dropped
        connection would make a client resend the same request."""
        with FleetClient(self.address(live_server)) as client:
            digest = client.request({"op": "submit", "spec": SMALL_SPEC})[
                "campaign"
            ]
        wire = io.BytesIO()
        write_frame(wire, {"op": "wait", "campaign": digest, "timeout": timeout})
        reply = _after_hello(self.address(live_server), wire.getvalue())
        assert reply["op"] == "error"
        assert "finite number" in reply["error"]

    def test_ipv6_loopback_round_trip(self):
        """The listening socket takes its address family from the
        host, so an IPv6 host binds and serves."""
        try:
            with socket.socket(socket.AF_INET6) as probe:
                probe.bind(("::1", 0))
        except OSError:
            pytest.skip("no IPv6 loopback on this host")
        with serving(FleetServer(host="::1")) as server:
            with FleetClient(f"[::1]:{server.port}") as client:
                assert client.request({"op": "ping"}) == {"op": "pong"}

    def test_server_and_cli_leave_asyncio_unloaded(self, tmp_path):
        code = (
            "import sys, repro.cli, repro.fleet.server; "
            "print('asyncio' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=_repro_env(tmp_path / "store", tmp_path / "ev"),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_fetch_requires_the_worker_role(self, live_server):
        with FleetClient(self.address(live_server)) as client:
            with pytest.raises(FleetError, match="role=worker"):
                client.request({"op": "fetch"})

    def test_threaded_workers_settle_every_point_once(self, live_server):
        """More worker connections than cores, with a short switch
        interval: the coordinator is shared by their threads, and every
        point is still handed out and settled exactly once."""
        address = self.address(live_server)
        with FleetClient(address) as client:
            digest = client.request(
                {"op": "submit", "spec": {**SMALL_SPEC, "pes": list(range(1, 49))}}
            )["campaign"]
        handed: list[int] = []
        errors: list[Exception] = []

        def work() -> None:
            try:
                with FleetClient(address, role="worker") as worker:
                    while (job := worker.request({"op": "fetch"}))["op"] == "job":
                        handed.append(job["index"])
                        worker.request({"op": "done", "job_id": job["job_id"]})
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        workers = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert sorted(handed) == list(range(48))
        with FleetClient(address) as client:
            status = client.request({"op": "status", "campaign": digest})
            stats = client.request({"op": "stats"})["stats"]
        assert (status["state"], status["done"]) == ("done", 48)
        assert stats["jobs_handed"] == 48

    def test_worker_cycle_and_loss_requeue(self, live_server):
        address = self.address(live_server)
        with FleetClient(address) as client:
            digest = client.request(
                {"op": "submit", "spec": SMALL_SPEC}
            )["campaign"]
            doomed = FleetClient(address, role="worker")
            job = doomed.request({"op": "fetch"})
            assert job["op"] == "job"
            assert job["spec"]["kernels"] == SMALL_SPEC["kernels"]
            doomed.close()  # vanish with the job still leased
            with FleetClient(address, role="worker") as worker:
                seen = []
                deadline = time.monotonic() + 10
                while len(seen) < 2 and time.monotonic() < deadline:
                    fetched = worker.request({"op": "fetch"})
                    if fetched["op"] == "idle":
                        time.sleep(0.05)
                        continue
                    seen.append(fetched["index"])
                    worker.request(
                        {"op": "done", "job_id": fetched["job_id"]}
                    )
                # The dropped worker's point came back around.
                assert sorted(seen) == [0, 1]
            status = client.request({"op": "status", "campaign": digest})
            assert status["state"] == "done"
            wait = client.request(
                {"op": "wait", "campaign": digest, "timeout": 1}
            )
            assert wait["state"] == "done"


# ---------------------------------------------------------------------------
# the evaluation path (in process)
# ---------------------------------------------------------------------------


class TestEvaluatePoint:
    def test_exactly_once_against_one_store(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        spec = small_spec()
        first = [
            evaluate_point(spec, i, store=store)
            for i in range(spec.n_points)
        ]
        again = [
            evaluate_point(spec, i, store=store)
            for i in range(spec.n_points)
        ]
        assert [r["computed"] for r in first] == [True, True]
        assert [r["computed"] for r in again] == [False, False]
        assert store.n_results() == spec.n_points
        assert store.active_leases() == 0

    def test_fleet_results_replay_into_a_local_campaign(self, tmp_path):
        """The point of the shared root: a client replays the fleet's
        results as pure cache hits."""
        store = TraceStore(tmp_path / "store")
        spec = small_spec()
        for index in range(spec.n_points):
            evaluate_point(spec, index, store=store)
        result = run_campaign(spec, store=store, parallel=False)
        assert all(record.cache_hit for record in result.records)

    def test_out_of_range_index(self, tmp_path):
        with pytest.raises(IndexError, match="out of range"):
            evaluate_point(
                small_spec(), 99, store=TraceStore(tmp_path / "store")
            )

    def test_spool_worker_drains_the_backlog(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        spec = small_spec()
        spool = spool_dir(store)
        spool.mkdir(parents=True)
        spec.save(spool / "job.json")
        assert run_spool_worker(store=store, once=True) == 0
        assert (spool / "job.done").read_text().strip() == spec.digest
        assert store.n_results() == spec.n_points
        # A second pass sees the marker and does nothing.
        assert run_spool_worker(store=store, once=True) == 0
        assert store.n_results() == spec.n_points

    def test_a_bad_spool_spec_does_not_stop_the_next(self, tmp_path):
        """A spec that cannot be loaded gets an ``.error`` marker holding
        its error; the worker goes on to the next spec, and a pass in
        which a spec failed exits 1."""
        store = TraceStore(tmp_path / "store")
        spec = small_spec()
        spool = spool_dir(store)
        spool.mkdir(parents=True)
        (spool / "a.json").write_text(
            json.dumps({"name": "bad", "kernels": ["no_such_kernel"]})
        )
        spec.save(spool / "b.json")
        assert run_spool_worker(store=store, once=True) == 1
        assert "unknown kernel 'no_such_kernel'" in (
            spool / "a.error"
        ).read_text()
        assert not (spool / "a.done").exists()
        assert (spool / "b.done").read_text().strip() == spec.digest
        assert store.n_results() == spec.n_points
        # Either marker settles a spec: a second pass has nothing to do.
        assert run_spool_worker(store=store, once=True) == 0
        assert sorted(path.name for path in spool.iterdir()) == [
            "a.error", "a.json", "b.done", "b.json",
        ]

    def test_spool_workers_share_a_campaign(self, tmp_path, monkeypatch):
        """Two spool workers on one root split a campaign: each passes
        over the points the other holds a lease on instead of queueing
        behind it, and every point is still computed exactly once."""
        import repro.fleet.worker as worker_module

        monkeypatch.setenv("REPRO_FLEET_STALL_S", "0.05")
        root = tmp_path / "store"
        spec = small_spec(pes=[1, 2, 4, 8])
        spool = spool_dir(TraceStore(root))
        spool.mkdir(parents=True)
        spec.save(spool / "job.json")
        stores = [TraceStore(root), TraceStore(root)]
        computed = {id(store): 0 for store in stores}
        evaluate = worker_module.evaluate_point

        def counting(spec, index, *, store):
            result = evaluate(spec, index, store=store)
            computed[id(store)] += result["computed"]
            return result

        monkeypatch.setattr(worker_module, "evaluate_point", counting)
        errors: list[Exception] = []

        def work(store: TraceStore) -> None:
            try:
                run_spool_worker(store=store, once=True)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(store,)) for store in stores
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(count >= 1 for count in computed.values()), computed
        assert sum(computed.values()) == spec.n_points


# ---------------------------------------------------------------------------
# end to end: real processes over one store root
# ---------------------------------------------------------------------------


def _repro_env(store_root: Path, obs_stem: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_TRACE_STORE"] = str(store_root)
    env["REPRO_OBS"] = f"jsonl:{obs_stem}"
    return env


def _spawn(args, env, log: Path) -> subprocess.Popen:
    # Popen dups the descriptor, so the parent's handle closes here.
    with open(log, "w") as handle:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=env,
            stdout=handle,
            stderr=subprocess.STDOUT,
        )


def _await_line(log: Path, needle: str, timeout: float = 30.0) -> str:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if log.exists():
            for line in log.read_text().splitlines():
                if needle in line:
                    return line
        time.sleep(0.05)
    raise AssertionError(
        f"{needle!r} never appeared in {log}:\n"
        + (log.read_text() if log.exists() else "<missing>")
    )


def _terminate(*procs: subprocess.Popen) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


def test_sigterm_ends_a_worker_as_an_exit_does(tmp_path):
    """``kill`` stops a fleet process through its exit hooks: its
    store's lease holder file is gone, and the exit status is the
    shell's 128 + SIGTERM, with no traceback."""
    store_root = tmp_path / "store"
    spool = spool_dir(TraceStore(store_root))
    spool.mkdir(parents=True)
    small_spec().save(spool / "job.json")
    worker = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--store-root", str(store_root), "--watch",
        ],
        env=_repro_env(store_root, tmp_path / "ev"),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not (spool / "job.done").exists():
            assert worker.poll() is None, worker.stderr.read()
            assert time.monotonic() < deadline, "the spec was never settled"
            time.sleep(0.05)
        worker.send_signal(signal.SIGTERM)
        _out, err = worker.communicate(timeout=30)
    finally:
        _terminate(worker)
    assert worker.returncode == 128 + signal.SIGTERM, err
    assert "Traceback" not in err
    holders = store_root / "leases" / "hb"
    assert holders.is_dir()
    assert list(holders.iterdir()) == []


@pytest.mark.parametrize("kill_worker", [False, True], ids=["clean", "kill"])
def test_fleet_end_to_end_over_one_store_root(tmp_path, kill_worker):
    """One ``repro serve --listen`` + worker process(es) on localhost,
    one store root.  Clean mode audits exactly-once from the merged
    obs log; kill mode SIGKILLs the first worker *between claim and
    evaluation* (the REPRO_FLEET_STALL_S window) and asserts a second
    worker completes the campaign through requeue + lease steal."""
    store_root = tmp_path / "store"
    obs_stem = tmp_path / "obs" / "ev"
    obs_stem.parent.mkdir()
    spec_path = tmp_path / "camp.json"
    spec_path.write_text(json.dumps(SMALL_SPEC))
    spec = CampaignSpec.from_dict(SMALL_SPEC)
    env = _repro_env(store_root, obs_stem)

    server_log = tmp_path / "server.log"
    server = _spawn(
        ["serve", "--listen", "127.0.0.1:0"], env, server_log
    )
    workers: list[subprocess.Popen] = []
    try:
        line = _await_line(server_log, "listening on")
        address = line.rsplit(" ", 1)[-1]

        def submit_campaign(*extra: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "campaign",
                    "submit",
                    "--connect",
                    address,
                    *extra,
                    str(spec_path),
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=180,
            )

        if kill_worker:
            # Worker A stalls for 60s after *winning each claim*; we
            # kill it inside that window, so its death leaves a lease
            # held by a dead pid plus a half-done campaign.
            doomed = _spawn(
                ["worker", "--connect", address],
                dict(env, REPRO_FLEET_STALL_S="60"),
                tmp_path / "doomed.log",
            )
            workers.append(doomed)
            admit = submit_campaign()
            assert admit.returncode == 0, admit.stdout + admit.stderr
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if any(
                    '"fleet.stall"' in path.read_text()
                    for path in obs_stem.parent.glob("ev-*.jsonl")
                ):
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("worker never reached its claim stall")
            doomed.send_signal(signal.SIGKILL)
            doomed.wait(timeout=10)

        workers.append(
            _spawn(
                ["worker", "--connect", address, "--idle-exit", "120"],
                env,
                tmp_path / "worker.log",
            )
        )
        # Idempotent resubmission of the same digest; --wait blocks
        # until the campaign settles.
        submit = submit_campaign("--wait")
        assert submit.returncode == 0, submit.stdout + submit.stderr
        assert "done: 2/2 points" in submit.stdout
    finally:
        _terminate(server, *workers)

    # The shared store converged: every point present exactly once,
    # no lease left behind, and a local replay is all cache hits.
    store = TraceStore(store_root)
    assert store.n_results() == spec.n_points
    assert store.active_leases() == 0
    result = run_campaign(spec, store=store, parallel=False)
    assert all(record.cache_hit for record in result.records)

    # The exactly-once audit from the merged fleet event log.
    from repro import obs as obs_module

    merged = obs_module.merge(str(obs_stem))
    events = list(obs_module.read_events(merged))
    evaluated = [e for e in events if e["event"] == "fleet.eval"]
    computed = [e for e in evaluated if e["computed"]]
    refs = {e["ref"] for e in computed}
    assert len(refs) == spec.n_points
    if not kill_worker:
        # Clean run: each point computed exactly once fleet-wide.
        assert len(computed) == spec.n_points
    else:
        # The killed worker's claims were stolen, not duplicated
        # silently: the surviving worker computed every point, and the
        # audit trail shows the requeue happened.
        assert any(e["event"] == "fleet.worker_lost" for e in events)
