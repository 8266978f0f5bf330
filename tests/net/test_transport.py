"""Unit tests for the wire format: framing + the binary payload codec."""

from __future__ import annotations

import struct

import pytest

from repro.core.requests import BOTTOM, INSERT, OpRecord
from repro.net.transport import (
    MAX_FRAME_BYTES,
    FrameError,
    FrameReader,
    encode_frame,
)

#: a header of the binary codec announcing ``length`` body bytes
_HEADER = struct.Struct(">I")


def _header(length: int) -> bytes:
    return _HEADER.pack((0x01 << 24) | length)


def _wire(payload):
    """``payload`` through one ``msg`` frame and back."""
    (frame,) = FrameReader().feed(encode_frame({"op": "msg", "payload": payload}))
    return frame["payload"]


class TestPayloadCodec:
    def test_scalars_pass_through(self):
        for value in (None, True, False, 0, -7, 3.5, "text", ""):
            assert _wire(value) == value

    def test_floats_round_trip_exactly(self):
        # LDB labels/DHT keys are 53-bit fractions; the wire must not
        # perturb them (routing decisions compare them for ownership)
        values = [0.1, 2**-53, 1 - 2**-53, 0.6822871999174586]
        assert _wire(values) == values

    def test_tuples_survive_as_tuples(self):
        payload = (3, (0, "item"), [1, (2, 3)], ())
        decoded = _wire(payload)
        assert decoded == payload
        assert isinstance(decoded, tuple)
        assert isinstance(decoded[1], tuple)
        assert isinstance(decoded[2], list)
        assert isinstance(decoded[2][1], tuple)

    def test_bottom_singleton(self):
        assert _wire((BOTTOM,))[0] is BOTTOM

    def test_dicts_with_float_keys(self):
        slice_ = {0.25: (1, "a"), 0.75: (2, "b")}
        assert _wire(slice_) == slice_

    def test_unencodable_rejected(self):
        with pytest.raises(FrameError):
            encode_frame({"op": "msg", "payload": object()})

    def test_record_round_trip(self):
        rec = OpRecord(17, 3, 2, INSERT, ("payload", 1), 4.0)
        rec.value = 9
        rec.result = BOTTOM
        rec.completed = True
        back = _wire(rec)
        assert back.req_id == 17 and back.pid == 3 and back.idx == 2
        assert back.item == ("payload", 1)
        assert back.value == 9
        assert back.result is BOTTOM
        assert back.completed


class TestFraming:
    def test_round_trip_single_frame(self):
        reader = FrameReader()
        frames = list(reader.feed(encode_frame({"op": "shutdown", "n": 1})))
        assert frames == [{"op": "shutdown", "n": 1}]
        assert reader.buffered == 0

    def test_partial_reads_any_boundary(self):
        message = {"op": "msg", "payload": (1, (2.5, "x"), BOTTOM)}
        wire = encode_frame(message) * 3
        for chunk_size in (1, 2, 3, 5, 7, len(wire)):
            reader = FrameReader()
            out = []
            for i in range(0, len(wire), chunk_size):
                out.extend(reader.feed(wire[i : i + chunk_size]))
            assert len(out) == 3
            assert all(m["payload"] == (1, (2.5, "x"), BOTTOM) for m in out)
            assert reader.buffered == 0

    def test_multiple_frames_in_one_read(self):
        wire = b"".join(encode_frame({"i": i}) for i in range(10))
        assert [m["i"] for m in FrameReader().feed(wire)] == list(range(10))

    def test_oversized_incoming_frame_rejected(self):
        reader = FrameReader(max_frame=64)
        with pytest.raises(FrameError, match="exceeds 64"):
            list(reader.feed(_header(65) + b"x" * 65))

    def test_oversized_header_rejected_before_body_arrives(self):
        # the length prefix alone must trigger rejection: a malicious
        # announcement must not cause that much buffering
        reader = FrameReader(max_frame=64)
        with pytest.raises(FrameError, match="exceeds 64"):
            list(reader.feed(_header(65)))

    def test_oversized_outgoing_frame_rejected(self):
        with pytest.raises(FrameError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_empty_feed_yields_nothing(self):
        reader = FrameReader()
        assert list(reader.feed(b"")) == []
        assert list(reader.feed(encode_frame({"a": 1})[:3])) == []
        assert reader.buffered == 3


class TestOpRecordPayloadCodec:
    """OpRecords cross host boundaries inside DEPART_DUMP payloads."""

    def test_record_round_trips_inside_a_payload(self):
        rec = OpRecord(37, 4, 11, INSERT, ("tup", 1.5), 12.25)
        rec.value = 99
        rec.result = BOTTOM
        rec.local_match = True
        items, parked, leftover = _wire((["leftover"], {0.5: "ctx"}, [rec, rec]))
        clone = leftover[0]
        assert isinstance(clone, OpRecord) and clone is not leftover[1]
        for attr in ("req_id", "pid", "idx", "kind", "item", "gen", "value",
                     "completed", "local_match"):
            assert getattr(clone, attr) == getattr(rec, attr)
        assert clone.result is BOTTOM
        assert clone.element == rec.element

    def test_nested_record_fields_keep_their_tuples(self):
        clone = _wire(OpRecord(5, 0, 0, INSERT, (5, "payload"), 0.0))
        assert clone.item == (5, "payload")
        assert isinstance(clone.item, tuple)


def _genesis_map():
    from repro.net.membership import ClusterMap

    return ClusterMap.genesis(
        {0: ("127.0.0.1", 1000), 1: ("127.0.0.1", 1001)}, 6, id_slots=16
    )


def _churned_map():
    """A map after a join, a drain, a retirement and forwards."""
    cmap = _genesis_map()
    host_index, pids = cmap.reserve_join(2)
    cmap.commit_join(host_index, ("10.0.0.7", 1002), pids)
    host_index, pids = cmap.reserve_join(1)
    cmap.commit_join(host_index, ("10.0.0.8", 1003), pids)
    cmap.start_drain(3)
    cmap.start_drain(1)
    cmap.retire_host(1, adopter=0, forwards={3: 6, 4: 6})
    cmap.merge_forwards({300: 2})
    return cmap


#: every frame that carries a map, shaped as the runtime builds it
_MAP_FRAMES = {
    "wire": lambda cmap: {"op": "wire", "map": cmap},
    "welcome": lambda cmap: {"op": "welcome", "host": 0, "nonce": 3,
                             "map": cmap},
    "join_ok": lambda cmap: {"op": "join_ok", "host": 4, "pids": [9],
                             "config": {"structure": "queue"}, "map": cmap},
    "host_map": lambda cmap: {"op": "host_map", "map": cmap},
    "rebuild": lambda cmap: {"op": "rebuild", "gen": 1, "map": cmap,
                             "records": [], "anchor": [], "elements": [],
                             "reruns": []},
    "rejected": lambda cmap: {"op": "rejected", "req": 1025, "pid": 3,
                              "reason": "draining", "map": cmap},
    "error": lambda cmap: {"op": "error", "message": "not the coordinator",
                           "coordinator": 0, "map": cmap},
}


class TestClusterMapWireForm:
    """A map rides as a ``ClusterMap`` under its own type byte, each slot
    positionally, and a receiver refuses one whose slots are mistyped."""

    @pytest.mark.parametrize("op", sorted(_MAP_FRAMES))
    @pytest.mark.parametrize("make", [_genesis_map, _churned_map],
                             ids=["genesis", "churned"])
    def test_every_slot_survives_each_frame_that_carries_a_map(self, op, make):
        from repro.net.membership import ClusterMap

        cmap = make()
        frame = _MAP_FRAMES[op](cmap)
        (decoded,) = FrameReader().feed(encode_frame(frame))
        clone = decoded["map"]
        assert type(clone) is ClusterMap and clone is not cmap
        for slot in ClusterMap.__slots__:
            got, sent = getattr(clone, slot), getattr(cmap, slot)
            assert got == sent and type(got) is type(sent), slot
        assert {k: v for k, v in decoded.items() if k != "map"} == {
            k: v for k, v in frame.items() if k != "map"}

    def test_a_genesis_map_keeps_its_shape(self):
        (frame,) = FrameReader().feed(encode_frame(
            {"op": "host_map", "map": _genesis_map()}))
        clone = frame["map"]
        assert clone.version == 1 and clone.id_slots == 16
        assert sorted(clone.pids_of(0) + clone.pids_of(1)) == list(range(6))
        assert len(clone.pids_of(0)) == len(clone.pids_of(1)) == 3
        assert clone.coordinator == 0
        assert clone.live_pids() == list(range(6))

    def test_a_churned_map_keeps_its_shape(self):
        (frame,) = FrameReader().feed(encode_frame(
            {"op": "host_map", "map": _churned_map()}))
        clone = frame["map"]
        assert set(clone.hosts) == {0, 2, 3} and clone.leaving == {3}
        assert clone.complete_target(1) == 0
        assert clone.forwards == {3: 6, 4: 6, 300: 2}
        assert clone.hosts[3] == ("10.0.0.8", 1003)
        # the draining host's pids are excluded from the pickable set
        assert clone.live_pids() == sorted(clone.pids_of(0) + [6, 7])

    @pytest.mark.parametrize("slot, bad", [
        ("version", "2"),
        ("version", True),
        ("hosts", {"0": ("127.0.0.1", 1000)}),
        ("hosts", {0: ["127.0.0.1", 1000]}),
        ("hosts", {0: ("127.0.0.1", "1000")}),
        ("hosts", {0: (7, 1000)}),
        ("hosts", {0: ("127.0.0.1",)}),
        ("hosts", [(0, ("127.0.0.1", 1000))]),
        ("pid_owner", {"0": 0}),
        ("pid_owner", {0: None}),
        ("pid_owner", {0: False}),
        ("leaving", {"1"}),
        ("leaving", (1,)),
        ("departed", {1: "0"}),
        ("forwards", {1.5: 0}),
        ("forwards", {3: (6,)}),
        ("next_pid", None),
        ("next_host", 2.0),
        ("id_slots", "16"),
        ("n_genesis", [6]),
        ("recovery_epoch", BOTTOM),
    ])
    def test_a_mistyped_slot_is_a_decode_error_and_the_stream_stays_framed(
            self, slot, bad):
        from repro.net.transport import FrameDecodeError

        cmap = _churned_map()
        setattr(cmap, slot, bad)
        reader = FrameReader()
        blob = encode_frame({"op": "host_map", "map": cmap})
        with pytest.raises(FrameDecodeError, match=slot):
            list(reader.feed(blob + encode_frame({"op": "shutdown"})))
        assert list(reader.feed(b"")) == [{"op": "shutdown"}]
        assert reader.buffered == 0

    def test_a_truncated_map_is_a_decode_error(self):
        from repro.net.transport import FrameDecodeError

        body = encode_frame({"op": "host_map", "map": _genesis_map()})[4:-1]
        reader = FrameReader()
        with pytest.raises(FrameDecodeError):
            list(reader.feed(_header(len(body)) + body
                             + encode_frame({"op": "shutdown"})))
        assert list(reader.feed(b"")) == [{"op": "shutdown"}]

    def test_the_string_keyed_form_is_gone(self):
        from repro.net.client import SkueueClient
        from repro.net.membership import ClusterMap

        assert not hasattr(ClusterMap, "to_json")
        assert not hasattr(ClusterMap, "from_json")
        assert not hasattr(SkueueClient, "_apply_map_json")

    def test_no_module_turns_map_keys_into_strings_and_back(self):
        # a dict comprehension whose key is ``int(...)``/``str(...)``;
        # the one left takes a host map a user hands the client
        import ast
        from pathlib import Path

        import repro

        src = Path(repro.__file__).resolve().parent
        sites = set()
        for path in [*sorted((src / "net").glob("*.py")), src / "ops" / "cli.py"]:
            tree = ast.parse(path.read_text())
            for func in ast.walk(tree):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(func):
                    if (isinstance(node, ast.DictComp)
                            and isinstance(node.key, ast.Call)
                            and getattr(node.key.func, "id", None) in ("int", "str")):
                        sites.add(f"{path.name}:{func.name}")
        assert sites == {"client.py:__init__"}

    def test_complete_target_follows_adopter_chains(self):
        from repro.net.membership import ClusterMap

        cmap = ClusterMap.genesis(
            {0: ("127.0.0.1", 1000), 1: ("127.0.0.1", 1001),
             2: ("127.0.0.1", 1002)}, 3, id_slots=8
        )
        cmap.retire_host(2, adopter=1, forwards={})
        cmap.retire_host(1, adopter=0, forwards={})
        assert cmap.complete_target(2) == 0  # 2 -> 1 -> 0
        assert cmap.complete_target(0) == 0
        assert cmap.complete_target(7) is None  # never handed out

    def test_id_slots_exhaustion_is_loud(self):
        from repro.net.membership import ClusterMap

        cmap = ClusterMap.genesis(
            {0: ("127.0.0.1", 1000), 1: ("127.0.0.1", 1001)}, 2, id_slots=2
        )
        with pytest.raises(ValueError, match="id_slots"):
            cmap.reserve_join(1)
