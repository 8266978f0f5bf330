"""The codec corpus: the six frames the hot path spends its time on.

Built once from the shapes in ``docs/PROTOCOL.md`` and the send sites
in ``repro.net`` (a client's coalesced submit, one wave message up and
one down, a coalesced DONE push, one replica mirror, one cross-host
completion).  ``hot_frames()`` fails loudly if a frame type was renamed
and proves ``decode(encode(f)) == f`` under the binary codec before
anyone times anything.
"""

from __future__ import annotations

from repro.core.actions import A_AGG, A_SERVE
from repro.core.requests import INSERT, REMOVE, OpRecord, pack_req_id
from repro.net.transport import (
    CODEC_BINARY,
    FRAME_TYPES,
    FrameReader,
    encode_frame,
    encode_payload,
    record_to_wire,
)

__all__ = ["hot_frames"]

_ID_SLOTS = 8
_GEN = 0


def _req(seq: int, host: int = 1) -> int:
    return pack_req_id(3, seq, host, _ID_SLOTS)


def _record() -> OpRecord:
    rec = OpRecord(_req(41), 4, 17, INSERT, 123456, 2042.75)
    rec.value = 9001
    return rec


def _build() -> dict[str, dict]:
    link = {"gen": _GEN, "src": 1, "seq": 4711}  # stamped by every peer link
    return {
        # 16 staged submissions flushed in one loop tick
        "submit_batch16": {
            "op": "submit_batch",
            "subs": [
                [_req(i), i % 8, i % 2, encode_payload(1000 + i) if i % 2 == 0
                 else None, 0]
                for i in range(16)
            ],
        },
        # stage 1, child -> parent: (vid, combined runs, joins, leaves, relay)
        "msg_agg": {
            "op": "msg", "dest": 13, "action": A_AGG,
            "payload": encode_payload((22, (5, 3, 2, 4), 0, 0, False)),
            **link,
        },
        # stage 3, parent -> child: (one (lo, hi, value) per run, epoch)
        "msg_serve": {
            "op": "msg", "dest": 22, "action": A_SERVE,
            "payload": encode_payload(
                (((1200, 1204, 9000), (810, 812, 9005), (1205, 1206, 9008),
                  (813, 816, 9010)), 0)
            ),
            **link,
        },
        # 16 adjacent DONE pushes merged by the connection writer
        "done_batch16": {
            "op": "done_batch",
            "dones": [
                [_req(i), i % 2,
                 encode_payload((_req(i + 100), 2000 + i)) if i % 2 == REMOVE
                 else None]
                for i in range(16)
            ],
        },
        # one record's facts mirrored to a ring successor at completion
        "replica_put": {
            "op": "replica_put", "origin": 1, "ack": True,
            "record": record_to_wire(_record()), **link,
        },
        # DHT-side completion of a record owned by another host
        "complete": {
            "op": "complete", "req": _req(41), "value": 9001, "done": True,
            **link,
        },
    }


def hot_frames() -> dict[str, dict]:
    """name -> frame dict, verified to round-trip under the binary codec."""
    frames = _build()
    for name, frame in frames.items():
        if frame["op"] not in FRAME_TYPES:
            raise RuntimeError(
                f"codec corpus is stale: frame {name!r} uses op "
                f"{frame['op']!r}, which transport.FRAME_TYPES no longer lists"
            )
        decoded = list(FrameReader().feed(encode_frame(frame, CODEC_BINARY)))
        if decoded != [frame]:
            raise RuntimeError(
                f"binary codec does not round-trip corpus frame {name!r}: "
                f"{decoded!r} != {frame!r}"
            )
    return frames
