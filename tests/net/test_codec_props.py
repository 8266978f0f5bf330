"""Codec properties: every frame in the catalogue rides the one binary
codec (tag ``0x01``; a ``0x00`` header is a framing error) and comes
back as sent, cut at any byte; any native payload (tuples, ⊥,
float-keyed dicts, records) comes back off the wire type for type; and
garbage bytes behind a valid header -- a truncated or overlong body
included -- are rejected without losing frame sync (so a connection
survives a poisoned frame).

``SAMPLE_FRAMES`` is diff-tested against ``transport.FRAME_TYPES``:
adding a frame op without a sample here fails the suite.
"""

from __future__ import annotations

import ast
import json
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.requests import BOTTOM, INSERT, REMOVE, OpRecord
from repro.net.membership import ClusterMap
from repro.net.records import NetOpRecord
from repro.net import transport
from repro.net.transport import (
    CODEC_BINARY,
    CODEC_TAGS,
    FrameDecodeError,
    FrameError,
    FrameReader,
    encode_frame,
)

_HEADER = struct.Struct(">I")


def _record(req_id: int = 17, *, result: object = BOTTOM) -> OpRecord:
    """A fully-populated OpRecord (tuple item, ⊥ result)."""
    rec = OpRecord(req_id, 3, 2, INSERT, ("payload", req_id), 4.0, priority=1)
    rec.value = 9
    rec.result = result
    rec.completed = True
    return rec


def _map() -> ClusterMap:
    """A cluster map past a join and a drain."""
    cmap = ClusterMap.genesis(
        {0: ("127.0.0.1", 9001), 1: ("127.0.0.1", 9002)}, 4, id_slots=8)
    host_index, pids = cmap.reserve_join(2)
    cmap.commit_join(host_index, ("127.0.0.1", 9003), pids)
    cmap.start_drain(1)
    return cmap


#: one representative body per catalogued frame type, shaped like the
#: frames the runtime actually builds (see server.py / client.py)
SAMPLE_FRAMES: dict[str, dict] = {
    # bootstrap / control plane
    "wire": {"op": "wire", "map": _map()},
    "wired": {"op": "wired", "host": 0},
    "shutdown": {"op": "shutdown"},
    "bye": {"op": "bye", "host": 2},
    "error": {"op": "error", "message": "unknown op 'zap'"},
    # host <-> host data plane
    "msg": {"op": "msg", "dest": 5, "action": "anchor", "gen": 3.5,
            "src": 1, "seq": 42, "payload": (17, ("item", 2), BOTTOM)},
    "complete": {"op": "complete", "req": 17, "src": 0, "seq": 7,
                 "value": 9, "result": BOTTOM},
    "batch": {"op": "batch", "frames": [
        {"op": "heartbeat", "host": 0, "src": 0, "seq": 1},
        {"op": "complete", "req": 3, "src": 0, "seq": 2, "value": 1},
    ]},
    # client session
    "hello": {"op": "hello"},
    "welcome": {"op": "welcome", "nonce": 3, "map": _map()},
    "submit": {"op": "submit", "req": 1025, "pid": 3, "kind": INSERT,
               "item": ("elem", 0), "pri": 2},
    "submit_batch": {"op": "submit_batch", "subs": [
        [1025, 3, INSERT, ("elem", 0), 0],
        [1026, 4, REMOVE, None, 0],
    ]},
    "done": {"op": "done", "req": 1025, "kind": REMOVE, "result": BOTTOM},
    "done_batch": {"op": "done_batch", "dones": [
        [1025, INSERT, None],
        [1026, REMOVE, ("elem", 0)],
    ]},
    "rejected": {"op": "rejected", "req": 1025, "reason": "draining",
                 "map": _map()},
    "collect": {"op": "collect"},
    "records": {"op": "records", "records": [_record(17), _record(18, result=None)],
                "errors": []},
    "metrics": {"op": "metrics", "rounds": 12, "messages": 340,
                "per_wave": {"anchor": 3.0}},
    # live membership
    "join": {"op": "join", "pids": 2},
    "join_ok": {"op": "join_ok", "host": 3, "pids": [6, 7],
                "config": {"structure": "heap", "n_priorities": 6},
                "map": _map()},
    "join_commit": {"op": "join_commit", "host": 3,
                    "address": ["127.0.0.1", 9004]},
    "join_done": {"op": "join_done", "host": 3},
    "leave": {"op": "leave", "host": 2},
    "leaving": {"op": "leaving", "host": 2},
    "forwards": {"op": "forwards", "forwards": {11: 0, 12: 1}},
    "retire": {"op": "retire", "host": 2, "records": [_record(21)],
               "errors": [], "forwards": {11: 0}},
    "retired": {"op": "retired", "host": 2},
    "map": {"op": "map"},
    "host_map": {"op": "host_map", "map": _map()},
    "update_over": {"op": "update_over", "epoch": 4, "members": [0, 1, 3]},
    # crash-stop fault tolerance + ops plane
    "heartbeat": {"op": "heartbeat", "host": 1, "src": 1, "seq": 99},
    "suspect": {"op": "suspect", "host": 2, "by": 1},
    "recover_dump": {"op": "recover_dump", "gen": 1, "host": 1, "epoch": 4,
                     "records": [_record(30)]},
    "rebuild": {"op": "rebuild", "gen": 1, "map": _map(),
                "records": [_record(30)], "anchor": ((0, 2), (-1, 5), 9, 4, 24),
                "elements": [(0, 3, ("elem", 1)), (1, 0, "x")], "reruns": [31]},
    "replica_put": {"op": "replica_put", "gen": 1, "origin": 1,
                    "records": [_record(30)],
                    "facts": [[30, 7, None, False, True]], "acks": [30],
                    "src": 1, "seq": 4},
    "replica_ack": {"op": "replica_ack", "reqs": [30], "src": 2, "seq": 5},
    "health": {"op": "health", "host": 0, "wired": True, "joining_pids": [],
               "hosts": {"0": ["127.0.0.1", 9000], "1": ["127.0.0.1", 9001]},
               "update_epoch": 5, "log": ["12:00:00 host 0: wired"]},
}


class TestFrameParity:
    def test_samples_cover_the_whole_catalogue(self):
        assert set(SAMPLE_FRAMES) == set(transport.FRAME_TYPES)

    @pytest.mark.parametrize("op", sorted(SAMPLE_FRAMES))
    def test_every_frame_round_trips(self, op):
        frame = SAMPLE_FRAMES[op]
        reader = FrameReader()
        (decoded,) = list(reader.feed(encode_frame(frame)))
        assert _same(decoded, frame)
        assert reader.buffered == 0

    @pytest.mark.parametrize("op", sorted(SAMPLE_FRAMES))
    def test_every_frame_split_at_any_byte_reassembles(self, op):
        # each frame on its own, cut at every byte boundary in turn
        frame = SAMPLE_FRAMES[op]
        blob = encode_frame(frame)
        for cut in range(1, len(blob)):
            reader = FrameReader()
            assert list(reader.feed(blob[:cut])) == []
            assert reader.buffered == cut
            (decoded,) = list(reader.feed(blob[cut:]))
            assert _same(decoded, frame)
            assert reader.buffered == 0

    def test_frames_split_at_any_byte_reassemble(self):
        reader = FrameReader()
        ops = ("shutdown", "msg", "records", "rebuild")
        blob = b"".join(encode_frame(SAMPLE_FRAMES[op]) for op in ops)
        # arbitrary packet boundaries: feed one byte at a time
        decoded = [msg for i in range(len(blob))
                   for msg in reader.feed(blob[i:i + 1])]
        assert _same(decoded, [SAMPLE_FRAMES[op] for op in ops])

    def test_records_ride_as_op_records(self):
        (decoded,) = list(FrameReader().feed(encode_frame(SAMPLE_FRAMES["records"])))
        rec = decoded["records"][0]
        assert type(rec) is OpRecord
        assert rec.item == ("payload", 17)
        assert rec.result is BOTTOM
        assert rec.priority == 1 and rec.completed


class TestWireRule:
    """One codec: every frame rides tag ``0x01`` and no other tag is
    read."""

    SRC = Path(repro.__file__).resolve().parent

    @pytest.mark.parametrize("op", sorted(transport.FRAME_TYPES))
    def test_every_catalogued_frame_rides_binary(self, op):
        wire = encode_frame(SAMPLE_FRAMES[op])
        assert wire[0] == CODEC_TAGS[CODEC_BINARY] == 0x01
        assert wire == encode_frame(SAMPLE_FRAMES[op], CODEC_BINARY)

    @pytest.mark.parametrize("op", sorted(transport.FRAME_TYPES))
    def test_a_json_header_is_a_framing_error(self, op):
        # the frame as a JSON-speaking peer sent it: tagged JSON behind a
        # 0x00 header -- refused at the header, whatever the op (the
        # tagged form has no cluster map: the frame goes without it)
        frame = {k: v for k, v in SAMPLE_FRAMES[op].items() if k != "map"}
        body = json.dumps(transport.encode_payload(frame)).encode()
        with pytest.raises(FrameError) as err:
            list(FrameReader().feed(_HEADER.pack(len(body)) + body))
        assert not isinstance(err.value, FrameDecodeError)

    def test_no_other_codec_can_be_named(self):
        assert CODEC_TAGS == {CODEC_BINARY: 0x01}
        with pytest.raises(FrameError):
            encode_frame({"op": "shutdown"}, "json")

    def test_the_second_codec_is_gone(self):
        for gone in ("negotiate_codec", "WIRE_CODECS", "CODEC_JSON",
                     "codec_for", "BULK_OPS", "decode_payload",
                     "record_from_wire", "_B_RECORD"):
            assert not hasattr(transport, gone)

    def test_only_the_transport_names_a_codec(self):
        wanted = {"CODEC_BINARY", "CODEC_TAGS"}
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
    must round-trip on every hot frame that can carry it — and its
    absence (a legacy peer) must stay decodable."""

    HOT = ("msg", "complete", "done", "submit")

    @pytest.mark.parametrize("op", HOT)
    def test_tr_round_trips_on_every_hot_frame(self, op):
        frame = dict(SAMPLE_FRAMES[op])
        frame["tr"] = 12884901888  # a real (host 3) req_id: > 2**32
        (decoded,) = list(FrameReader().feed(encode_frame(frame)))
        assert decoded == frame
        assert decoded["tr"] == 12884901888

    @pytest.mark.parametrize("op", HOT)
    def test_legacy_frames_without_tr_still_decode(self, op):
        # the exact bytes a pre-telemetry peer sends: no tr key at all
        frame = SAMPLE_FRAMES[op]
        assert "tr" not in frame
        (decoded,) = list(FrameReader().feed(encode_frame(frame)))
        assert decoded == frame
        assert decoded.get("tr") is None

    def test_tr_absence_is_free_on_the_binary_wire(self):
        # the presence bitmask means an untagged frame pays zero bytes
        # for the schema slot — the PR-8 hot path is unchanged
        frame = dict(SAMPLE_FRAMES["msg"])
        bare = encode_frame(frame)
        frame["tr"] = 17
        tagged = encode_frame(frame)
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
# -- hypothesis: native values on the wire -----------------------------

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
    if isinstance(sent, ClusterMap):
        return type(got) is ClusterMap and got is not sent and all(
            _same(getattr(got, slot), getattr(sent, slot))
            for slot in ClusterMap.__slots__)
    if type(got) is not type(sent):
        return False
    if isinstance(sent, (list, tuple)):
        return len(got) == len(sent) and all(map(_same, got, sent))
    if isinstance(sent, dict):
        if len(got) != len(sent):
            return False
        if list(got) != list(sent):
            # a schema frame decodes its fields in schema order
            return all(k in got and _same(got[k], sent[k]) for k in sent)
        return all(_same(k, j) and _same(got[k], sent[j]) for k, j in zip(got, sent))
    return got == sent


class TestNativeValues:
    """The binary codec packs the protocol's values as they are: what a
    host puts in a hot frame is what its peer's handler gets."""

    @settings(max_examples=300, deadline=None)
    @given(payload=_natives)
    def test_any_native_payload_decodes_type_exactly(self, payload):
        frame = {"op": "msg", "dest": 0, "action": 1, "payload": payload}
        (msg,) = list(FrameReader().feed(encode_frame(frame)))
        assert msg.keys() == frame.keys()
        assert _same(msg["payload"], payload)

    @settings(max_examples=300, deadline=None)
    @given(payload=_natives)
    def test_packed_size_bounds_what_a_value_packs_to(self, payload):
        """What a ``replica_put``'s rows are capped by never undercounts."""
        frame = {"op": "msg", "payload": payload}
        bare = {"op": "msg", "payload": None}
        packed = len(encode_frame(frame)) - len(encode_frame(bare)) + 1
        assert transport.packed_size(payload) >= packed

    @pytest.mark.parametrize("value", [
        127, 128, -128, -129, 2**31 - 1, 2**31, -(2**31) - 1, 2**39,
        2**63 - 1, 2**63, -(2**63), 2**64,
    ])
    def test_packed_size_bounds_every_int_width(self, value):
        packed = bytearray()
        transport._pack_value(value, packed)
        assert transport.packed_size(value) >= len(packed)

    def test_ints_beyond_the_bigint_width_are_rejected_not_corrupted(self):
        with pytest.raises(FrameError):
            encode_frame({"op": "msg", "payload": 1 << 2100})

    def test_the_singletons_and_the_scalars_keep_their_type(self):
        payload = (BOTTOM, True, False, 1, 1.0, [BOTTOM], {1.0: True})
        frame = {"op": "msg", "payload": payload}
        (msg,) = list(FrameReader().feed(encode_frame(frame)))
        got = msg["payload"]
        assert got[0] is BOTTOM and got[5][0] is BOTTOM
        assert [type(v) for v in got] == [type(v) for v in payload]
        assert type(next(iter(got[6]))) is float and got[6][1.0] is True


# -- garbage rejection: poisoned bodies must not break framing -----------------


def _poison(body: bytes) -> bytes:
    """A wire-valid header fronting an arbitrary (garbage?) body."""
    return _HEADER.pack((CODEC_TAGS[CODEC_BINARY] << 24) | len(body)) + body


class TestGarbageRejection:
    @pytest.mark.parametrize("body", [
        b"",                           # empty body
        b"\xff" * 8,                   # unknown type byte
        b"\x08\x10only",               # str8 length overruns body
        b"\x03\x00\x00",               # trailing bytes behind an int8
        b"\x03\x07",                   # valid int, not an object
        b"\x0c\x01\x0a\x00\x00",       # map keyed by a list
        b"\x0c\x01\x14\x01\x0a\x00\x00",  # ... by a tuple of one
        b"\x10\x00\x00\x00\x00",       # no type byte 0x10
        b"\x12" + b"\x00" * 11,         # no type byte 0x12 (the record dict)
        b'{"op": "bye"}',              # a JSON body behind the binary tag
    ])
    def test_garbage_body_raises_frame_decode_error(self, body):
        with pytest.raises(FrameDecodeError):
            list(FrameReader().feed(_poison(body)))

    @pytest.mark.parametrize("op", sorted(SAMPLE_FRAMES))
    def test_a_truncated_body_is_a_decode_error(self, op):
        # the frame's body short of its last byte, behind an honest header
        body = encode_frame(SAMPLE_FRAMES[op])[_HEADER.size:-1]
        reader = FrameReader()
        with pytest.raises(FrameDecodeError):
            list(reader.feed(_poison(body) + encode_frame(SAMPLE_FRAMES["shutdown"])))
        assert list(reader.feed(b"")) == [SAMPLE_FRAMES["shutdown"]]

    @pytest.mark.parametrize("op", sorted(SAMPLE_FRAMES))
    def test_trailing_bytes_behind_a_body_are_a_decode_error(self, op):
        body = encode_frame(SAMPLE_FRAMES[op])[_HEADER.size:] + b"\x00"
        reader = FrameReader()
        with pytest.raises(FrameDecodeError):
            list(reader.feed(_poison(body) + encode_frame(SAMPLE_FRAMES["shutdown"])))
        assert list(reader.feed(b"")) == [SAMPLE_FRAMES["shutdown"]]

    def test_stream_stays_framed_after_a_poisoned_body(self):
        # the recoverable property the server's read loop relies on: a
        # FrameDecodeError consumes exactly the poisoned frame, so the
        # next frame on the wire still parses and the connection lives
        reader = FrameReader()
        blob = _poison(b"\xff\xfe\xfd") + encode_frame(SAMPLE_FRAMES["shutdown"])
        with pytest.raises(FrameDecodeError):
            list(reader.feed(blob))
        assert list(reader.feed(b"")) == [SAMPLE_FRAMES["shutdown"]]
        assert reader.buffered == 0

    def test_unknown_codec_tag_is_a_hard_framing_error(self):
        blob = _HEADER.pack((0x7F << 24) | 4) + b"body"
        with pytest.raises(FrameError) as err:
            list(FrameReader().feed(blob))
        assert not isinstance(err.value, FrameDecodeError)

    @settings(max_examples=300, deadline=None)
    @given(body=st.binary(max_size=200))
    def test_fuzzed_bodies_either_decode_or_raise_cleanly(self, body):
        reader = FrameReader()
        try:
            for msg in reader.feed(_poison(body)):
                assert isinstance(msg, dict)
        except FrameDecodeError:
            pass  # rejected -- the only acceptable failure mode
        # either way the poisoned frame was consumed: framing holds
        assert reader.buffered == 0
        assert list(reader.feed(encode_frame({"op": "shutdown"}))) == [
            {"op": "shutdown"}
        ]
