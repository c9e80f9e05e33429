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

import asyncio
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
        fleet.submit(small_spec(name="one"))
        with pytest.raises(SaturatedError, match="max_campaigns"):
            fleet.submit(small_spec(name="two"))

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
        # forget() frees the admission slot only once finished.
        assert fleet.forget(digest)
        assert fleet.status(digest) is None


# ---------------------------------------------------------------------------
# server + client, in process
# ---------------------------------------------------------------------------


@pytest.fixture()
def live_server():
    """A FleetServer on an ephemeral port, on a background loop."""
    server = FleetServer(FleetCoordinator(max_campaigns=4))
    loop = asyncio.new_event_loop()

    def run() -> None:
        # start_server() begins accepting as soon as it is created, so
        # run_forever() alone keeps the server alive; after stop(),
        # drain connection-handler tasks and close everything so the
        # stress suite's -W error pass sees no leaked sockets.
        asyncio.set_event_loop(loop)
        loop.run_forever()
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        loop.run_until_complete(server.close())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=10)
    yield server
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=10)


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

    def test_oversized_frame_header_gets_an_error_frame(self, live_server):
        """70,000 digits with no newline overrun the stream's line
        limit; the handler answers with an error frame, as for any
        other malformed frame, instead of dying."""
        with socket.create_connection(
            self.address(live_server), timeout=10
        ) as sock:
            sock.sendall(b"7" * 70_000)
            reply = read_frame(sock.makefile("rb"))
        assert reply["op"] == "error"
        assert "unterminated frame header" in reply["error"]

    def test_fetch_requires_the_worker_role(self, live_server):
        with FleetClient(self.address(live_server)) as client:
            with pytest.raises(FleetError, match="role=worker"):
                client.request({"op": "fetch"})

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
