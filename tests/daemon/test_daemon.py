"""Live daemon end-to-end tests: wire service, determinism, teardown.

The live path's contract has three legs, and each gets pinned here:
(1) a scheme driven against running daemons produces the *same result*
as the simulator; (2) a recorded live run round-trips through the replay
harness and is byte-identical to a simulated recording; (3) the failure
edges — pipelined concurrency, daemon shutdown mid-exchange, truncated
wire messages, role mismatches — are refused loudly, never half-served.
"""

import dataclasses
import json
import socket
import time

import pytest

from repro.core.config import SimulationConfig
from repro.core.run import run_scheme
from repro.daemon import DaemonTransport, LocalCluster, drive_scheme
from repro.faults import FaultPlan
from repro.faults.injector import FaultInjector
from repro.faults.run import run_scheme_with_faults
from repro.netmodel import NetworkConfig
from repro.protocol import load_trace, recording_traces, replay_trace
from repro.protocol.messages import ALL_EXCHANGES, PROXY_FETCH, PUSH
from repro.protocol.trace import RecordingTransport, TraceWriter
from repro.protocol.transport import Transport, build_transport
from repro.protocol.wire import (
    ROLE_CLIENT,
    ROLE_PROXY,
    ROLES,
    SERVED_BY,
    WireFormatError,
    WireRoleError,
    ack_frame,
    decode_frame,
    encode_frame,
    event_frame,
    hello_frame,
    parse_ack,
    request_frame,
)
from repro.workload import ProWGenConfig

TINY = ProWGenConfig(n_requests=2000, n_objects=300, n_clients=10)

PLAN = FaultPlan(
    p2p_loss=0.1,
    proxy_loss=0.1,
    push_loss=0.1,
    delay_rate=0.1,
    stale_rate=0.05,
    unresponsive_fraction=0.1,
    seed=7,
)


def cfg(**kw):
    kw.setdefault("n_proxies", 2)
    kw.setdefault("proxy_cache_fraction", 0.3)
    return SimulationConfig(workload=TINY, **kw)


@pytest.fixture(scope="module")
def cluster():
    """One proxy + one client daemon shared by the read-only tests."""
    with LocalCluster(n_clients=1) as running:
        yield running


def connect(address, scope="fc", plan=None):
    """Raw wire connection: hello'd socket + buffered reader."""
    sock = socket.create_connection(address)
    rfile = sock.makefile("rb")
    sock.sendall(encode_frame(hello_frame(scope, NetworkConfig(), plan)))
    parse_ack(decode_frame(rfile.readline()))
    return sock, rfile


class TestEndToEnd:
    def test_plain_drive_matches_simulation(self, cluster):
        live = drive_scheme("fc", cfg(), routes=cluster.routes, seed=3)
        sim = run_scheme("fc", cfg(), seed=3)
        assert dataclasses.asdict(live.result) == dataclasses.asdict(sim)
        assert live.plan_label == "none"

    def test_faulty_drive_matches_simulation(self, cluster):
        live = drive_scheme(
            "hier-gd", cfg(), routes=cluster.routes, plan=PLAN, seed=3
        )
        sim = run_scheme_with_faults("hier-gd", cfg(), plan=PLAN, seed=3)
        assert dataclasses.asdict(live.result) == dataclasses.asdict(sim)
        assert live.probes > 0  # unresponsiveness went over the wire

    def test_recorded_live_trace_round_trips(self, cluster, tmp_path):
        live = drive_scheme(
            "fc",
            cfg(),
            routes=cluster.routes,
            plan=PLAN,
            seed=3,
            record_dir=tmp_path,
        )
        report = replay_trace(live.trace_path)
        assert report.divergence is None
        assert report.identical

    def test_live_trace_is_byte_identical_to_simulated(self, cluster, tmp_path):
        live = drive_scheme(
            "squirrel",
            cfg(),
            routes=cluster.routes,
            plan=PLAN,
            seed=3,
            record_dir=tmp_path / "live",
        )
        with recording_traces(tmp_path / "sim") as recorder:
            run_scheme_with_faults("squirrel", cfg(), plan=PLAN, seed=3)
        sim = recorder.written[0]
        assert sim.name == live.trace_path.name  # same content key
        assert sim.read_bytes() == live.trace_path.read_bytes()

    def test_unwritable_record_dir_still_closes_the_connections(
        self, cluster, tmp_path, monkeypatch
    ):
        # Regression: the recording was opened after the sockets but
        # outside the try, so a failure there leaked every connection.
        closed = []
        close = DaemonTransport.close
        monkeypatch.setattr(
            DaemonTransport, "close", lambda self: (closed.append(self), close(self))
        )
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory")
        with pytest.raises(OSError):
            drive_scheme(
                "fc", cfg(), routes=cluster.routes, seed=3, record_dir=blocker / "traces"
            )
        assert len(closed) == 1

    def test_probe_answers_are_the_injectors(self, cluster):
        scope = "fc"
        transport = DaemonTransport(
            NetworkConfig(), cluster.routes, plan=PLAN, scope=scope
        )
        try:
            injector = FaultInjector(PLAN, scope=scope)
            for client in range(20):
                assert transport.unresponsive(0, client) == injector.unresponsive(
                    0, client
                )
        finally:
            transport.close()


class TestWireService:
    def test_pipelined_requests_answer_in_order(self):
        # Admit many full-ladder requests before reading any response:
        # ladders overlap in flight, responses still arrive in request
        # order (the property that lets responses stream into a trace).
        plan = FaultPlan(proxy_loss=1.0, seed=1)
        with LocalCluster(n_clients=1, scale=1e-4) as running:
            sock, rfile = connect(running.proxy.address, plan=plan)
            try:
                for req in range(40):
                    sock.sendall(encode_frame(request_frame(req, PROXY_FETCH)))
                seen = []
                for _ in range(40):
                    entry = decode_frame(rfile.readline())
                    assert entry[0] == "x" and entry[4] is False  # all failed
                    seen.append(entry[1])
                assert seen == list(range(40))
                assert running.proxy.max_in_flight > 1
            finally:
                rfile.close()
                sock.close()

    def test_plain_stack_refusal_is_one_record_everywhere(self, cluster, tmp_path):
        # Regression: a plan-free draw said {"fallbacks": 1} while a
        # plan-free attempt booked nothing, so a daemon answering a
        # plan-free hello put a delta on the wire that a simulated
        # recording of the same exchange does not contain.
        stack = Transport(NetworkConfig())
        outcome = stack.draw(PUSH, force_fail=True)
        assert outcome.event_fields() == (False, [], {}, None)

        writer = TraceWriter(tmp_path / "t.jsonl", {})
        assert RecordingTransport(stack, writer).attempt(PUSH, force_fail=True) is False
        writer.close()
        recorded = json.loads(writer.path.read_text().splitlines()[1])

        sock, rfile = connect(cluster.clients[0].address)
        try:
            sock.sendall(encode_frame(request_frame(-1, PUSH, force_fail=True)))
            answered = decode_frame(rfile.readline())
        finally:
            rfile.close()
            sock.close()
        assert recorded == answered == event_frame(-1, PUSH, *outcome.event_fields())

    def test_role_mismatch_is_refused(self, cluster):
        with pytest.raises(WireRoleError):
            DaemonTransport(
                NetworkConfig(),
                {
                    "proxy": cluster.routes["client"],
                    "client": cluster.routes["client"],
                },
            )
        # And per-exchange: a client daemon refuses proxy-served kinds.
        sock, rfile = connect(cluster.clients[0].address)
        try:
            sock.sendall(encode_frame(request_frame(0, PROXY_FETCH)))
            entry = decode_frame(rfile.readline())
            assert "error" in entry and "proxy" in entry["error"]
        finally:
            rfile.close()
            sock.close()

    def test_truncated_wire_message_is_refused(self, cluster):
        sock, rfile = connect(cluster.proxy.address)
        try:
            sock.sendall(encode_frame(request_frame(0, PROXY_FETCH))[:-1])
            sock.shutdown(socket.SHUT_WR)  # EOF mid-frame
            entry = decode_frame(rfile.readline())
            assert "error" in entry and "truncated" in entry["error"]
        finally:
            rfile.close()
            sock.close()

    @pytest.mark.parametrize(
        "frame",
        [["x", None, "pass_down", None, False], ["x", 0, [], None, False], ["u", "a", 0, 0]],
    )
    def test_malformed_request_gets_an_error_frame(self, cluster, frame):
        # Valid JSON, wrong field types: the daemon answers with an error
        # frame instead of dropping the connection without a word.
        sock, rfile = connect(cluster.clients[0].address)
        try:
            sock.sendall(encode_frame(frame))
            entry = decode_frame(rfile.readline())
            assert "malformed" in entry["error"]
        finally:
            rfile.close()
            sock.close()

    def test_malformed_hello_gets_an_error_frame(self, cluster):
        sock = socket.create_connection(cluster.proxy.address)
        rfile = sock.makefile("rb")
        try:
            entry = hello_frame("fc", NetworkConfig())
            entry["network"] = {"t_local": "fast"}
            sock.sendall(encode_frame(entry))
            assert "ill-typed" in decode_frame(rfile.readline())["error"]
        finally:
            rfile.close()
            sock.close()

    def test_bad_hello_is_refused(self, cluster):
        sock = socket.create_connection(cluster.proxy.address)
        rfile = sock.makefile("rb")
        try:
            sock.sendall(encode_frame({"kind": "not-a-hello"}))
            entry = decode_frame(rfile.readline())
            assert "error" in entry
        finally:
            rfile.close()
            sock.close()

    def test_shutdown_mid_exchange_truncates_the_peer(self):
        # A daemon stopped with a ladder in flight drops the connection;
        # the peer's next read hits EOF mid-message and must refuse it
        # exactly like a truncated trace.  The cancelled ladder stays
        # booked as drawn (docs/PROTOCOL.md §7.2).
        plan = FaultPlan(proxy_loss=1.0, seed=1)
        running = LocalCluster(n_clients=1, scale=60.0)
        running.start()
        try:
            sock, rfile = connect(running.proxy.address, plan=plan)
            try:
                sock.sendall(encode_frame(request_frame(0, PROXY_FETCH)))
                # The response needs minutes of (scaled) ladder waits;
                # once the ladder is drawn, stopping cancels it mid-exchange.
                deadline = time.monotonic() + 10.0
                while not running.proxy.in_flight and time.monotonic() < deadline:
                    time.sleep(0.001)
                assert running.proxy.in_flight == 1
                running.stop()
                with pytest.raises(WireFormatError, match="truncated"):
                    decode_frame(rfile.readline())
                stats = running.proxy.stats
                assert stats["exchanges"]["proxy_fetch"] == {
                    "attempts": 1, "ok": 0, "failed": 1
                }
                # The same hello's stack, drawn once: the whole ladder.
                drawn = build_transport(NetworkConfig(), plan, scope="fc").draw(
                    PROXY_FETCH
                )
                rounds = plan.max_retries + 1
                assert stats["fault_counters"] == drawn.deltas == {
                    "timeouts": rounds, "retries": rounds - 1, "fallbacks": 1
                }
                assert stats["latency_charged"] == sum(drawn.charges) > 0
            finally:
                rfile.close()
                sock.close()
        finally:
            running.stop()

    def test_daemon_response_is_a_valid_trace_event(self, cluster):
        # The response frame and a recorded trace event are the same
        # bytes: what the daemon sends could be appended to a trace.
        sock, rfile = connect(cluster.proxy.address)
        try:
            sock.sendall(encode_frame(request_frame(5, PROXY_FETCH)))
            raw = rfile.readline()
            assert raw == encode_frame(event_frame(5, PROXY_FETCH, True, [], {}))
        finally:
            rfile.close()
            sock.close()


class TestClusterLifecycle:
    def test_routes_require_running_cluster(self):
        idle = LocalCluster(n_clients=2)
        with pytest.raises(RuntimeError, match="not running"):
            idle.routes

    def test_negative_wait_scale_is_refused(self):
        with pytest.raises(ValueError, match="scale must be >= 0"):
            LocalCluster(n_clients=1, scale=-1.0)

    def test_stats_report_service_counters(self, cluster, tmp_path):
        # A faulty drive: plain runs serve exchanges off-wire entirely.
        drive_scheme("fc", cfg(), routes=cluster.routes, plan=PLAN, seed=1)
        stats = cluster.stats()
        assert stats[0]["role"] == "proxy" and stats[1]["role"] == "client"
        assert stats[0]["connections"] >= 1
        assert stats[0]["exchanges"]["proxy_fetch"]["attempts"] > 0

    def test_stats_count_every_recorded_exchange(self, tmp_path):
        # A fresh cluster, so the daemons' counters hold this drive alone.
        with LocalCluster(n_clients=1) as fresh:
            live = drive_scheme(
                "hier-gd", cfg(), routes=fresh.routes, plan=PLAN, seed=3,
                record_dir=tmp_path,
            )
            stats = {node["role"]: node for node in fresh.stats()}

        def zero():
            return dict.fromkeys(("attempts", "ok", "failed"), 0)

        expected = {
            role: {"exchanges": {e.kind: zero() for e in ALL_EXCHANGES}, "links": {}}
            for role in ROLES
        }
        for event in load_trace(live.trace_path).events:
            if event[0] == "x":
                _, _, kind, link, ok = event[:5]
                want = expected[SERVED_BY[kind]]
                for slot in (
                    want["exchanges"][kind],
                    want["links"].setdefault(link or "lan", zero()),
                ):
                    slot["attempts"] += 1
                    slot["ok" if ok else "failed"] += 1
        assert expected[ROLE_PROXY]["exchanges"][PROXY_FETCH.kind]["failed"] > 0
        assert expected[ROLE_CLIENT]["exchanges"][PUSH.kind]["failed"] > 0
        for role, node in stats.items():
            assert node["exchanges"] == expected[role]["exchanges"]
            used = {link: s for link, s in node["links"].items() if s["attempts"]}
            assert used == expected[role]["links"]

    def test_missing_role_in_routes_is_refused(self, cluster):
        with pytest.raises(ValueError, match="at least one 'client'"):
            DaemonTransport(
                NetworkConfig(), {"proxy": cluster.routes["proxy"]}
            )

    def test_ack_frame_matches_daemon_identity(self, cluster):
        sock = socket.create_connection(cluster.clients[0].address)
        rfile = sock.makefile("rb")
        try:
            sock.sendall(encode_frame(hello_frame("fc", NetworkConfig(), None)))
            entry = decode_frame(rfile.readline())
            assert entry == ack_frame("client", 0)
        finally:
            rfile.close()
            sock.close()
