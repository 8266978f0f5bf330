"""Codec properties: a frame's codec is fixed by its op (bulk frames
ride JSON, everything else binary), every frame in the catalogue must
decode to the *same* message whether it rode the JSON or the binary
wire, any native payload (tuples, ⊥, float-keyed dicts, records) must
come back off the binary wire type for type, and garbage bytes behind a
valid header must be rejected without losing frame sync (so a connection
survives a poisoned frame).

``SAMPLE_FRAMES`` is diff-tested against ``transport.FRAME_TYPES``:
adding a frame op without a parity sample here fails the suite.
"""

from __future__ import annotations

import ast
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.requests import BOTTOM, INSERT, REMOVE, OpRecord
from repro.net.records import NetOpRecord
from repro.net import transport
from repro.net.transport import (
    CODEC_BINARY,
    CODEC_JSON,
    CODEC_TAGS,
    FrameDecodeError,
    FrameError,
    FrameReader,
    codec_for,
    decode_frame_body,
    decode_payload,
    encode_frame,
    encode_payload,
    record_from_wire,
    record_to_wire,
)

_HEADER = struct.Struct(">I")

#: both body codecs, for the parity properties below
CODECS = (CODEC_JSON, CODEC_BINARY)


def _record_wire(req_id: int = 17, *, result: object = BOTTOM) -> dict:
    """A fully-populated OpRecord in wire form (nested payload tags)."""
    rec = OpRecord(req_id, 3, 2, INSERT, ("payload", req_id), 4.0, priority=1)
    rec.value = 9
    rec.result = result
    rec.completed = True
    return record_to_wire(rec)


#: one representative body per catalogued frame type, shaped like the
#: frames the runtime actually builds (see server.py / client.py)
SAMPLE_FRAMES: dict[str, dict] = {
    # bootstrap / control plane
    "wire": {"op": "wire", "peers": {"0": ["127.0.0.1", 9001]},
             "map": {"version": 1, "hosts": {"0": [0, 1]}}},
    "wired": {"op": "wired", "host": 0},
    "ping": {"op": "ping"},
    "pong": {"op": "pong", "host": 1, "wired": True, "joining": False,
             "draining": False},
    "shutdown": {"op": "shutdown"},
    "bye": {"op": "bye", "host": 2},
    "error": {"op": "error", "message": "unknown op 'zap'"},
    # host <-> host data plane
    "msg": {"op": "msg", "dest": 5, "action": "anchor", "gen": 3.5,
            "src": 1, "seq": 42,
            "payload": encode_payload((17, ("item", 2), BOTTOM))},
    "complete": {"op": "complete", "req": 17, "src": 0, "seq": 7,
                 "value": 9, "result": encode_payload(BOTTOM)},
    "batch": {"op": "batch", "frames": [
        {"op": "heartbeat", "host": 0, "src": 0, "seq": 1},
        {"op": "complete", "req": 3, "src": 0, "seq": 2, "value": 1},
    ]},
    # client session
    "hello": {"op": "hello"},
    "welcome": {"op": "welcome", "nonce": 3, "id_slots": 8,
                "map": {"version": 1}},
    "submit": {"op": "submit", "req": 1025, "pid": 3, "kind": INSERT,
               "item": encode_payload(("elem", 0)), "pri": 2},
    "submit_batch": {"op": "submit_batch", "subs": [
        [1025, 3, INSERT, encode_payload(("elem", 0)), 0],
        [1026, 4, REMOVE, None, 0],
    ]},
    "done": {"op": "done", "req": 1025, "kind": REMOVE,
             "result": encode_payload(BOTTOM)},
    "done_batch": {"op": "done_batch", "dones": [
        [1025, INSERT, None],
        [1026, REMOVE, encode_payload(("elem", 0))],
    ]},
    "rejected": {"op": "rejected", "req": 1025, "reason": "draining"},
    "collect": {"op": "collect"},
    "records": {"op": "records", "records": [_record_wire(17),
                                             _record_wire(18, result=None)],
                "errors": []},
    "metrics": {"op": "metrics", "rounds": 12, "messages": 340,
                "per_wave": {"anchor": 3.0}},
    # live membership
    "join": {"op": "join", "pids": 2},
    "join_ok": {"op": "join_ok", "host": 3, "pids": [6, 7],
                "config": {"structure": "heap", "replication": 2}},
    "join_commit": {"op": "join_commit", "host": 3,
                    "address": ["127.0.0.1", 9004]},
    "join_done": {"op": "join_done", "host": 3},
    "leave": {"op": "leave", "host": 2},
    "leaving": {"op": "leaving", "host": 2},
    "forwards": {"op": "forwards", "host": 2,
                 "forwards": {"11": 0, "12": 1}},
    "retire": {"op": "retire", "host": 2, "records": [_record_wire(21)],
               "forwards": {"11": 0}},
    "retired": {"op": "retired", "host": 2},
    "map": {"op": "map"},
    "host_map": {"op": "host_map", "map": {"version": 2,
                                           "hosts": {"0": [0, 1]}}},
    "update_over": {"op": "update_over", "epoch": 4, "members": [0, 1, 3]},
    # crash-stop fault tolerance + ops plane
    "heartbeat": {"op": "heartbeat", "host": 1, "src": 1, "seq": 99},
    "suspect": {"op": "suspect", "host": 2, "silent": 1.25},
    "recover_dump": {"op": "recover_dump", "host": 1,
                     "records": [_record_wire(30)]},
    "rebuild": {"op": "rebuild", "epoch": 5,
                "records": [_record_wire(30)], "plan": {"2": 0}},
    "replica_put": {"op": "replica_put", "req": 30, "src": 1, "seq": 4,
                    "facts": {"value": 3, "completed": True}},
    "replica_ack": {"op": "replica_ack", "req": 30},
    "health": {"op": "health", "host": 0, "live": [0, 1], "epoch": 5},
}


class TestFrameParity:
    def test_samples_cover_the_whole_catalogue(self):
        assert set(SAMPLE_FRAMES) == set(transport.FRAME_TYPES)

    @pytest.mark.parametrize("op", sorted(SAMPLE_FRAMES))
    @pytest.mark.parametrize("codec", CODECS)
    def test_every_frame_round_trips_on_both_codecs(self, op, codec):
        frame = SAMPLE_FRAMES[op]
        reader = FrameReader()
        (decoded,) = list(reader.feed(encode_frame(frame, codec)))
        assert decoded == frame
        assert reader.buffered == 0

    @pytest.mark.parametrize("op", sorted(SAMPLE_FRAMES))
    def test_json_and_binary_decode_identically(self, op):
        frame = SAMPLE_FRAMES[op]
        per_codec = {
            codec: decode_frame_body(
                CODEC_TAGS[codec],
                encode_frame(frame, codec)[_HEADER.size:],
            )
            for codec in CODECS
        }
        assert per_codec[CODEC_JSON] == per_codec[CODEC_BINARY] == frame

    def test_codecs_interleave_on_one_stream(self):
        reader = FrameReader()
        blob = b"".join(
            encode_frame(SAMPLE_FRAMES[op], codec)
            for op in ("ping", "msg", "records")
            for codec in (CODEC_JSON, CODEC_BINARY)
        )
        # arbitrary packet boundaries: feed one byte at a time
        decoded = [msg for i in range(len(blob))
                   for msg in reader.feed(blob[i:i + 1])]
        assert decoded == [SAMPLE_FRAMES[op]
                           for op in ("ping", "msg", "records")
                           for _ in CODECS]

    def test_nested_records_survive_both_codecs(self):
        frame = SAMPLE_FRAMES["records"]
        for codec in CODECS:
            (decoded,) = list(FrameReader().feed(encode_frame(frame, codec)))
            rec = record_from_wire(decoded["records"][0])
            assert rec.item == ("payload", 17)
            assert rec.result is BOTTOM
            assert rec.priority == 1 and rec.completed


class TestWireRule:
    """One codec decision: :func:`codec_for`, which reads the frame's op
    and nothing else."""

    SRC = Path(repro.__file__).resolve().parent

    @pytest.mark.parametrize("op", sorted(transport.FRAME_TYPES))
    def test_a_frame_rides_json_if_and_only_if_it_is_bulk(self, op):
        frame = SAMPLE_FRAMES[op]
        wire = encode_frame(frame)
        assert (wire[0] == CODEC_TAGS[CODEC_JSON]) == (op in transport.BULK_OPS)
        assert wire[0] == CODEC_TAGS[codec_for(frame)]
        assert list(FrameReader().feed(wire)) == [frame]

    def test_bulk_ops_are_catalogued_frames(self):
        assert transport.BULK_OPS <= set(transport.FRAME_TYPES)

    def test_a_named_codec_overrides_the_rule(self):
        bulk = SAMPLE_FRAMES["records"]
        assert encode_frame(bulk, CODEC_BINARY)[0] == CODEC_TAGS[CODEC_BINARY]
        hot = SAMPLE_FRAMES["msg"]
        assert encode_frame(hot, CODEC_JSON)[0] == CODEC_TAGS[CODEC_JSON]

    def test_negotiation_is_gone(self):
        for gone in ("negotiate_codec", "WIRE_CODECS"):
            assert not hasattr(transport, gone)

    def test_only_the_transport_names_a_codec(self):
        wanted = {"CODEC_JSON", "CODEC_BINARY", "codec_for"}
        offenders = set()
        for source in sorted(self.SRC.rglob("*.py")):
            where = source.relative_to(self.SRC).as_posix()
            if where == "net/transport.py":
                continue
            for node in ast.walk(ast.parse(source.read_text())):
                names = {getattr(node, "id", None), getattr(node, "attr", None)}
                if isinstance(node, ast.ImportFrom):
                    names |= {alias.name for alias in node.names}
                offenders |= {(where, name) for name in names & wanted}
        assert offenders == set()


class TestTraceFieldParity:
    """The optional ``tr`` trace tag (docs/PROTOCOL.md, "Telemetry")
    must round-trip on every hot frame that can carry it, on both
    codecs — and its absence (a legacy peer) must stay decodable."""

    HOT = ("msg", "complete", "done", "submit")

    @pytest.mark.parametrize("op", HOT)
    @pytest.mark.parametrize("codec", CODECS)
    def test_tr_round_trips_on_every_hot_frame(self, op, codec):
        frame = dict(SAMPLE_FRAMES[op])
        frame["tr"] = 12884901888  # a real (host 3) req_id: > 2**32
        (decoded,) = list(FrameReader().feed(encode_frame(frame, codec)))
        assert decoded == frame
        assert decoded["tr"] == 12884901888

    @pytest.mark.parametrize("op", HOT)
    @pytest.mark.parametrize("codec", CODECS)
    def test_legacy_frames_without_tr_still_decode(self, op, codec):
        # the exact bytes a pre-telemetry peer sends: no tr key at all
        frame = SAMPLE_FRAMES[op]
        assert "tr" not in frame
        (decoded,) = list(FrameReader().feed(encode_frame(frame, codec)))
        assert decoded == frame
        assert decoded.get("tr") is None

    def test_tr_absence_is_free_on_the_binary_wire(self):
        # the presence bitmask means an untagged frame pays zero bytes
        # for the schema slot — the PR-8 hot path is unchanged
        frame = dict(SAMPLE_FRAMES["msg"])
        bare = encode_frame(frame, CODEC_BINARY)
        frame["tr"] = 17
        tagged = encode_frame(frame, CODEC_BINARY)
        assert len(tagged) > len(bare)


# -- hypothesis: fuzzed payload parity ----------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.just(BOTTOM),
)
_keys = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.tuples(st.integers(min_value=0, max_value=99), st.text(max_size=6)),
)
_payloads = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=25,
)


class TestFuzzedParity:
    @settings(max_examples=200, deadline=None)
    @given(payload=_payloads)
    def test_any_payload_decodes_identically_on_both_codecs(self, payload):
        frame = {"op": "msg", "dest": 0, "action": "x",
                 "payload": encode_payload(payload)}
        decoded = {}
        for codec in CODECS:
            (msg,) = list(FrameReader().feed(encode_frame(frame, codec)))
            decoded[codec] = msg
            assert decode_payload(msg["payload"]) == payload
        assert decoded[CODEC_JSON] == decoded[CODEC_BINARY]

    def test_ints_beyond_the_bigint_width_are_rejected_not_corrupted(self):
        frame = {"op": "msg", "payload": encode_payload(1 << 2100)}
        assert list(FrameReader().feed(encode_frame(frame, CODEC_JSON)))
        with pytest.raises(FrameError):
            encode_frame(frame, CODEC_BINARY)


# -- hypothesis: native values on the binary wire -----------------------------

_RECORD_SLOTS = OpRecord.__slots__


def _records(values):
    """An OpRecord or a NetOpRecord (hooks unset), every slot drawn."""
    ints = st.integers(min_value=-(2**70), max_value=2**70)
    return st.builds(
        _record,
        st.sampled_from((OpRecord, NetOpRecord)), ints,
        st.none() | ints, st.none() | ints, st.sampled_from((INSERT, REMOVE)),
        values, st.none() | st.floats(allow_nan=False), ints, st.none() | ints,
        values, st.booleans(), st.booleans(),
    )


def _record(cls, req_id, pid, idx, kind, item, gen, priority, value, result,
            completed, local_match) -> OpRecord:
    rec = cls(req_id, pid, idx, kind, item, gen, priority=priority)
    rec.value, rec.result = value, result
    rec.completed, rec.local_match = completed, local_match
    return rec


_natives = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(st.floats(allow_nan=False), children, max_size=4),
        _records(children),
    ),
    max_leaves=25,
)


def _same(got, sent) -> bool:
    """``got`` is ``sent`` as the wire must hand it back: equal and of the
    same type all the way down.  A record comes back a plain OpRecord
    (hooks belong to the host that holds it); ⊥ is the singleton."""
    if isinstance(sent, OpRecord):
        return type(got) is OpRecord and all(
            _same(getattr(got, slot), getattr(sent, slot))
            for slot in _RECORD_SLOTS)
    if type(got) is not type(sent):
        return False
    if isinstance(sent, (list, tuple)):
        return len(got) == len(sent) and all(map(_same, got, sent))
    if isinstance(sent, dict):
        return len(got) == len(sent) and all(
            _same(k, j) and _same(got[k], sent[j]) for k, j in zip(got, sent))
    return got == sent


class TestNativeValues:
    """The binary codec packs the protocol's values as they are: what a
    host puts in a hot frame is what its peer's handler gets."""

    @settings(max_examples=300, deadline=None)
    @given(payload=_natives)
    def test_any_native_payload_decodes_type_exactly(self, payload):
        frame = {"op": "msg", "dest": 0, "action": 1, "payload": payload}
        (msg,) = list(FrameReader().feed(encode_frame(frame, CODEC_BINARY)))
        assert msg.keys() == frame.keys()
        assert _same(msg["payload"], payload)

    def test_the_singletons_and_the_scalars_keep_their_type(self):
        payload = (BOTTOM, True, False, 1, 1.0, [BOTTOM], {1.0: True})
        frame = {"op": "msg", "payload": payload}
        (msg,) = list(FrameReader().feed(encode_frame(frame, CODEC_BINARY)))
        got = msg["payload"]
        assert got[0] is BOTTOM and got[5][0] is BOTTOM
        assert [type(v) for v in got] == [type(v) for v in payload]
        assert type(next(iter(got[6]))) is float and got[6][1.0] is True


# -- garbage rejection: poisoned bodies must not break framing -----------------


def _poison(codec: str, body: bytes) -> bytes:
    """A wire-valid header fronting an arbitrary (garbage?) body."""
    return _HEADER.pack((CODEC_TAGS[codec] << 24) | len(body)) + body


class TestGarbageRejection:
    @pytest.mark.parametrize("codec,body", [
        (CODEC_JSON, b"not json at all"),
        (CODEC_JSON, b'{"truncated": '),
        (CODEC_JSON, b"\xff\xfe invalid utf-8"),
        (CODEC_JSON, b"[1, 2, 3]"),          # valid JSON, not an object
        (CODEC_BINARY, b""),                   # empty body
        (CODEC_BINARY, b"\xff" * 8),           # unknown type byte
        (CODEC_BINARY, b"\x08\x10only"),       # str8 length overruns body
        (CODEC_BINARY, b"\x03\x00\x00"),       # trailing bytes behind an int8
        (CODEC_BINARY, b"\x03\x07"),           # valid int, not an object
        (CODEC_BINARY, b"\x0c\x01\x0a\x00\x00"),  # map keyed by a list
        (CODEC_BINARY, b"\x0c\x01\x14\x01\x0a\x00\x00"),  # ... by a tuple of one
        (CODEC_BINARY, b"\x10\x00\x00\x00\x00"),  # no type byte 0x10
    ])
    def test_garbage_body_raises_frame_decode_error(self, codec, body):
        with pytest.raises(FrameDecodeError):
            list(FrameReader().feed(_poison(codec, body)))

    def test_stream_stays_framed_after_a_poisoned_body(self):
        # the recoverable property the server's read loop relies on: a
        # FrameDecodeError consumes exactly the poisoned frame, so the
        # next frame on the wire still parses and the connection lives
        reader = FrameReader()
        blob = _poison(CODEC_BINARY, b"\xff\xfe\xfd") + encode_frame(
            SAMPLE_FRAMES["ping"], CODEC_BINARY)
        with pytest.raises(FrameDecodeError):
            list(reader.feed(blob))
        assert list(reader.feed(b"")) == [SAMPLE_FRAMES["ping"]]
        assert reader.buffered == 0

    def test_unknown_codec_tag_is_a_hard_framing_error(self):
        blob = _HEADER.pack((0x7F << 24) | 4) + b"body"
        with pytest.raises(FrameError) as err:
            list(FrameReader().feed(blob))
        assert not isinstance(err.value, FrameDecodeError)

    @settings(max_examples=300, deadline=None)
    @given(codec=st.sampled_from(CODECS),
           body=st.binary(max_size=200))
    def test_fuzzed_bodies_either_decode_or_raise_cleanly(self, codec, body):
        reader = FrameReader()
        try:
            for msg in reader.feed(_poison(codec, body)):
                assert isinstance(msg, dict)
        except FrameDecodeError:
            pass  # rejected -- the only acceptable failure mode
        # either way the poisoned frame was consumed: framing holds
        assert reader.buffered == 0
        assert list(reader.feed(encode_frame({"op": "ping"}, codec))) == [
            {"op": "ping"}
        ]
