"""Wire-format unit tests: framing, round-trips, refusals, role bindings.

The wire protocol is the trace schema spoken over a socket, so these
tests pin the same discipline the trace tests pin on disk: every frame
round-trips exactly, truncation is refused rather than half-parsed, and
version/role/link mismatches fail loudly at the boundary.
"""

import pytest

from repro.faults import FaultPlan
from repro.netmodel import NetworkConfig
from repro.protocol import ALL_EXCHANGES, SERVED_BY, WIRE_SCHEMA
from repro.protocol.messages import PROXY_FETCH, PUSH
from repro.protocol.wire import (
    ROLES,
    WireFormatError,
    WireProtocolError,
    WireSchemaError,
    ack_frame,
    answer_frame,
    decode_frame,
    encode_frame,
    error_frame,
    event_frame,
    exchange_by_kind,
    hello_frame,
    parse_ack,
    parse_answer,
    parse_event,
    parse_hello,
    parse_probe,
    parse_request,
    probe_frame,
    request_frame,
)


class TestFraming:
    def test_frame_round_trip(self):
        value = ["x", 3, "push", "push", True]
        assert decode_frame(encode_frame(value)) == value

    def test_frames_are_single_lines(self):
        raw = encode_frame({"a": 1, "b": [1, 2]})
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1

    def test_truncated_frame_is_refused(self):
        raw = encode_frame(["x", 0, "push", "push", False])
        with pytest.raises(WireFormatError, match="truncated"):
            decode_frame(raw[:-1])

    def test_eof_chunk_is_refused_like_truncation(self):
        # readline() at EOF returns b"": no newline, never a message.
        with pytest.raises(WireFormatError, match="truncated"):
            decode_frame(b"")

    def test_unparsable_json_is_refused(self):
        with pytest.raises(WireFormatError, match="unparsable"):
            decode_frame(b"{nope\n")


class TestHandshake:
    def test_hello_round_trip(self):
        plan = FaultPlan(p2p_loss=0.2, seed=9)
        network = NetworkConfig()
        entry = decode_frame(encode_frame(hello_frame("fc", network, plan)))
        scope, got_network, got_plan = parse_hello(entry)
        assert scope == "fc"
        assert got_network == network
        assert got_plan == plan

    def test_hello_without_plan(self):
        _, _, plan = parse_hello(hello_frame("nc", NetworkConfig(), None))
        assert plan is None

    def test_hello_schema_mismatch_is_refused(self):
        entry = hello_frame("fc", NetworkConfig())
        entry["schema"] = WIRE_SCHEMA + 1
        with pytest.raises(WireSchemaError):
            parse_hello(entry)

    def test_non_hello_is_refused(self):
        with pytest.raises(WireFormatError):
            parse_hello({"kind": "something-else"})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("scope", 3),
            ("network", [1.0]),
            ("network", {"t_lokal": 1.0}),
            ("network", {"t_local": "1.0"}),
            ("network", {"t_local": True}),
            ("network", {"t_local": -1.0}),
            ("plan", {"p2p_los": 0.1}),
            ("plan", {"max_retries": 2.5}),
            ("plan", {"seed": None}),
            ("plan", {"p2p_loss": 2.0}),
            ("plan", {"policies": []}),
            ("plan", {"policies": {"default": {"strategy": None}}}),
            ("plan", {"policies": {"per_link": {"p2p": {"max_retries": "3"}}}}),
            ("plan", {"policies": {"per_link": {"pigeon": {}}}}),
            ("plan", {"policies": {"per_link": []}}),
        ],
    )
    def test_malformed_hello_field_is_the_named_error(self, field, value):
        # Unknown keys, wrong JSON types and out-of-range values alike:
        # never a bare TypeError / ValueError out of a constructor.
        entry = hello_frame("fc", NetworkConfig(), FaultPlan(p2p_loss=0.1))
        entry[field] = value
        with pytest.raises(WireFormatError):
            parse_hello(entry)

    def test_ack_round_trip(self):
        assert parse_ack(ack_frame("client", 2)) == ("client", 2)

    @pytest.mark.parametrize("field, value", [("role", "router"), ("node", None), ("node", "2")])
    def test_malformed_ack_is_refused(self, field, value):
        entry = ack_frame("client", 2)
        entry[field] = value
        with pytest.raises(WireFormatError, match="no valid role"):
            parse_ack(entry)

    def test_error_frame_refuses_the_hello(self):
        entry = dict(ack_frame("proxy", 0))
        entry["ok"] = False
        with pytest.raises(WireProtocolError):
            parse_ack(entry)
        assert "error" in error_frame("boom")


class TestExchangeFrames:
    @pytest.mark.parametrize("exchange", ALL_EXCHANGES, ids=lambda e: e.kind)
    def test_request_round_trip(self, exchange):
        req, got, force_fail = parse_request(request_frame(7, exchange, True))
        assert (req, got, force_fail) == (7, exchange, True)

    def test_request_link_binding_is_enforced(self):
        entry = request_frame(0, PROXY_FETCH)
        entry[3] = PUSH.link
        with pytest.raises(WireProtocolError, match="bound to link"):
            parse_request(entry)

    @pytest.mark.parametrize(
        "index, value",
        [(1, None), (1, "0"), (1, True), (2, []), (2, None), (3, 0), (4, None), (4, 0)],
    )
    def test_malformed_request_field_is_refused(self, index, value):
        entry = request_frame(0, PROXY_FETCH)
        entry[index] = value
        with pytest.raises(WireFormatError, match="malformed"):
            parse_request(entry)

    def test_unknown_kind_is_refused(self):
        with pytest.raises(WireProtocolError, match="unknown exchange kind"):
            exchange_by_kind("carrier_pigeon")

    def test_response_is_a_trace_event(self):
        # Arity discriminates: 5 asks, 8 answers — same "x" tag.
        entry = event_frame(4, PUSH, False, [1.5, 3.0], {"timeouts": 2},
                            {"l": [0.01, 0.02]})
        req, kind, link, ok, charges, deltas, draws = parse_event(entry)
        assert (req, kind, link, ok) == (4, "push", "push", False)
        assert charges == [1.5, 3.0] and deltas == {"timeouts": 2}
        assert draws == {"l": [0.01, 0.02]}
        with pytest.raises(WireFormatError):
            parse_request(entry)
        with pytest.raises(WireFormatError):
            parse_event(request_frame(4, PUSH))

    def test_seven_element_event_is_refused(self):
        # The draws-free schema-1 form is gone: one event shape, arity 8.
        entry = ["x", 4, "push", "push", False, [1.5, 3.0], {"timeouts": 2}]
        with pytest.raises(WireFormatError, match="not an exchange response"):
            parse_event(entry)

    @pytest.mark.parametrize(
        "index, value",
        [(1, "4"), (1, True), (1, None), (2, 7), (3, 0), (4, 1), (4, "yes"),
         (5, [1.5, "3.0"]), (5, [True]), (6, {"timeouts": "2"}), (6, [])],
    )
    def test_wrong_typed_event_field_is_refused(self, index, value):
        # Parse or the named error: no int()/bool() coercion lets a
        # malformed field through, or dies with ValueError/TypeError.
        entry = event_frame(4, PUSH, False, [1.5, 3.0], {"timeouts": 2}, None)
        entry[index] = value
        with pytest.raises(WireFormatError, match="malformed"):
            parse_event(entry)

    def test_probe_and_answer_round_trip(self):
        assert parse_probe(probe_frame(2, 1, 9)) == (2, 1, 9)
        assert parse_answer(answer_frame(2, 1, 9, True)) == (2, 1, 9, True)
        with pytest.raises(WireFormatError):
            parse_answer(probe_frame(2, 1, 9))
        for bad in (["u", "2", 1, 9, True], ["u", 2, 1, 9, 1], ["u", 2, None, 9, True]):
            with pytest.raises(WireFormatError, match="malformed"):
                parse_answer(bad)
        for bad in (["u", "a", 0, 0], ["u", 2, None, 9], ["u", 2, 1, False]):
            with pytest.raises(WireFormatError, match="malformed"):
                parse_probe(bad)

    def test_malformed_event_payload_is_refused(self):
        with pytest.raises(WireFormatError):
            parse_event(["x", 0, "push", "push", True, "not-a-list", {}])
        with pytest.raises(WireFormatError):
            parse_event(["x", 0, "push", "push", True, [], {}, "not-a-dict"])


class TestRoleBindings:
    def test_every_exchange_has_a_serving_role(self):
        assert set(SERVED_BY) == {e.kind for e in ALL_EXCHANGES}
        assert set(SERVED_BY.values()) <= set(ROLES)

    def test_exchanges_sharing_a_link_share_a_role(self):
        # Determinism contract: a fault link's RNG substream must live
        # whole on one daemon, so two exchanges bound to the same link
        # must be served by the same role.
        by_link = {}
        for exchange in ALL_EXCHANGES:
            if exchange.link is None:
                continue
            role = SERVED_BY[exchange.kind]
            assert by_link.setdefault(exchange.link, role) == role
