"""Wire format of the TCP runtime: framing + two payload codecs.

Every frame is **self-describing**: a 4-byte header whose first byte
names the codec that serialised the body (:data:`CODEC_TAGS`) and whose
remaining 3 bytes are the big-endian body length.  Codec tag ``0x00`` is
UTF-8 JSON and ``0x01`` is the compact struct-packed binary codec below.
Which one a frame rides is fixed by its op alone (:func:`codec_for`):
the rare multi-megabyte :data:`BULK_OPS` ride JSON, everything else
binary — no connection state, no negotiation.  Receivers decode either
tag on any connection.  Frames above :data:`MAX_FRAME_BYTES` are
rejected on both ends — a peer that sends one is buggy or malicious, and
accepting it would let a single connection exhaust host memory.

The binary codec carries the protocol's own values: besides JSON's
scalars, lists and string-keyed objects it has type bytes for *tuples*
(batches, position intervals and element tags are tuples, compared by
value in the sequential-consistency checker), dicts with keys of any
packable type (DHT handover slices key by float), the ⊥ sentinel
``BOTTOM`` and :class:`~repro.core.requests.OpRecord` (a LEAVE's
``DEPART_DUMP`` hands unflushed requests across host boundaries).  A
value is packed in one walk and unpacked in one walk, so every hot frame
carries and receives its payload as built.

JSON cannot carry those values, so a JSON bulk body tags them
(:func:`encode_payload`/:func:`decode_payload`):

* ``{"t": [...]}`` — tuple (items encoded recursively),
* ``{"d": [[k, v], ...]}`` — dict (keys of any encodable type),
* ``{"b": 0}`` — the ``BOTTOM`` singleton,
* ``{"r": {...}}`` — an ``OpRecord`` (flattened via
  :func:`record_to_wire`),
* lists, strings, ints, floats, bools, ``None`` pass through.

Only the builders of bulk bodies tag — :func:`record_to_wire`/
:func:`record_from_wire` (a ``replica_put`` reuses them for its one
record) and the rebuild plan in :mod:`repro.net.control`.  A tagged
value is ordinary data to the binary codec (nested maps and lists), so
it round-trips there too.

Python's ``json`` round-trips floats exactly (``repr``-based) and the
binary codec packs IEEE-754 doubles, so LDB labels and DHT keys survive
the wire bit-for-bit either way.  Ints are arbitrary precision on both
ends (the binary codec falls back to a length-prefixed big-int), which
is what lets packed request ids
(:func:`repro.core.requests.pack_req_id` — nonce and sequence in the
high bits) travel in plain ``req`` fields.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from operator import attrgetter
from typing import Iterator, NamedTuple

from repro.core.requests import BOTTOM, OpRecord

__all__ = [
    "BULK_OPS",
    "CLIENT",
    "CODEC_BINARY",
    "CODEC_JSON",
    "FENCED",
    "FENCED_DEDUP",
    "FRAME_TYPES",
    "HELD",
    "MAX_FRAME_BYTES",
    "OPEN",
    "FrameDecodeError",
    "FrameError",
    "FrameReader",
    "FrameSpec",
    "check_packable",
    "codec_for",
    "decode_frame_body",
    "decode_payload",
    "encode_frame",
    "encode_payload",
    "read_frame",
    "record_from_wire",
    "record_to_wire",
    "request",
    "request_async",
]

#: Upper bound on one frame's body (16 MiB - 1: the length rides in the
#: low 3 bytes of the header, the top byte names the codec).
MAX_FRAME_BYTES = 0xFFFFFF

#: Wire codec names.
CODEC_JSON = "json"
CODEC_BINARY = "binary"

#: codec name -> header tag byte (the first of the 4 header bytes)
CODEC_TAGS = {CODEC_JSON: 0x00, CODEC_BINARY: 0x01}
_TAG_CODECS = {tag: name for name, tag in CODEC_TAGS.items()}

#: Rare-but-huge control-plane frames (record archives, recovery dumps)
#: that ride JSON: on multi-megabyte bodies CPython's C-accelerated
#: ``json`` beats the pure-Python struct packer by enough that packing
#: them binary can stall a host's event loop past the failure detector's
#: patience.
BULK_OPS = frozenset(
    {"retire", "recover_dump", "rebuild", "records", "wire", "forwards"}
)


def codec_for(message: dict) -> str:
    """The codec a frame rides, fixed by its op: JSON for
    :data:`BULK_OPS`, binary for everything else."""
    return CODEC_JSON if message.get("op") in BULK_OPS else CODEC_BINARY


#: :attr:`FrameSpec.admission`, the rule a receiving host runs before the
#: frame's handler (``NodeHost.dispatch``; the hold queue is
#: :meth:`repro.net.control.ControlPlane.admit`):
FENCED_DEDUP = "fenced+dedup"  # a reconnect resend's duplicate dropped, then FENCED
FENCED = "fenced"  # stamped `gen`: dropped if superseded, held if ahead or not serving
CLIENT = "client"  # dropped once its client session hung up, else HELD
HELD = "held"  # held until this host serves (wired, not recovering)
OPEN = "open"  # handled as it arrives


class FrameSpec(NamedTuple):
    """One frame type: what it says and how a host admits it."""

    summary: str  # ``sender -> receiver: meaning``
    admission: str = OPEN


#: The authoritative frame registry: every ``op`` the TCP runtime puts on
#: the wire.  ``docs/PROTOCOL.md`` is the prose catalog;
#: ``tests/unit/test_docs.py`` diffs the two and also scans the
#: ``repro.net`` sources so no frame can ship undocumented.
FRAME_TYPES: dict[str, FrameSpec] = {
    # bootstrap / control plane
    "wire": FrameSpec("launcher -> host: peer map + genesis cluster map; spawn and kick"),
    "wired": FrameSpec("host -> launcher: wire acknowledged"),
    "ping": FrameSpec("any -> host: liveness/status probe"),
    "pong": FrameSpec("host -> any: liveness answer + wired/joining/draining status"),
    "shutdown": FrameSpec("any -> host: orderly stop"),
    "bye": FrameSpec("host -> any: shutdown acknowledged"),
    "error": FrameSpec("host -> any: request could not be processed"),
    # host <-> host data plane
    "msg": FrameSpec("host -> host: one actor message (dest, action, payload)", FENCED_DEDUP),
    "complete": FrameSpec("host -> host: value/result/completion sync for a req_id", FENCED_DEDUP),
    "batch": FrameSpec("host -> host: coalesced data-plane frames, one write per flush"),
    # client session
    "hello": FrameSpec("client -> host: request a submission nonce + cluster map"),
    "welcome": FrameSpec("host -> client: nonce, id_slots + cluster map"),
    "submit": FrameSpec("client -> host: ENQUEUE/DEQUEUE at a pid this host owns", CLIENT),
    "submit_batch": FrameSpec("client -> host: coalesced submits, one frame per flush", CLIENT),
    "done": FrameSpec("host -> client: a submitted request completed (+ result)"),
    "done_batch": FrameSpec("host -> client: coalesced DONE pushes, one frame per flush"),
    "rejected": FrameSpec("host -> client: submission not accepted (drain/ownership)"),
    "collect": FrameSpec("client -> host: dump this host's (+ adopted) OpRecords"),
    "records": FrameSpec("host -> client: the collect answer (+ errors)"),
    "metrics": FrameSpec("client <-> host: metrics summary request/answer"),
    # live membership
    "join": FrameSpec("joining host -> coordinator: reserve a host_index + fresh pids", HELD),
    "join_ok": FrameSpec("coordinator -> joining host: reservation + deployment config"),
    "join_commit": FrameSpec(
        "joining host -> coordinator: listening; publish me + route JOINs", HELD),
    "join_done": FrameSpec("coordinator -> joining host: map published, JOINs routed"),
    "leave": FrameSpec("operator -> host: drain this host and retire it", HELD),
    "leaving": FrameSpec("host -> operator: drain started"),
    "forwards": FrameSpec("draining host -> coordinator: incremental vid forwards"),
    "retire": FrameSpec("drained host -> coordinator: records/forwards handoff", HELD),
    "retired": FrameSpec("coordinator -> drained host: handoff accepted, safe to stop"),
    "map": FrameSpec("any -> host: pull the current cluster map"),
    "host_map": FrameSpec("host -> peers/clients: versioned cluster map (push or pull answer)"),
    "update_over": FrameSpec("host -> clients: an update phase finished (epoch, members)"),
    # crash-stop fault tolerance + ops plane
    "heartbeat": FrameSpec("host -> host: periodic liveness beacon over the peer link"),
    "suspect": FrameSpec("host -> coordinator: peer silent past threshold (corroboration)"),
    "recover_dump": FrameSpec("host -> coordinator: all record facts held, for the rebuild"),
    "rebuild": FrameSpec("coordinator -> hosts: merged records + deterministic rebuild plan"),
    "replica_put": FrameSpec(
        "host -> successor: mirror record facts (submit/value/completion)", FENCED),
    "replica_ack": FrameSpec("successor -> host: completion replica durably held"),
    "health": FrameSpec("any -> host: ops-plane health/status snapshot request/answer"),
}

_HEADER = struct.Struct(">I")


class FrameError(ValueError):
    """A malformed or oversized frame arrived (or was about to be sent)."""


class FrameDecodeError(FrameError):
    """A frame *body* failed to decode (garbage bytes behind a valid
    header).  Unlike a bad header this leaves the stream correctly
    framed — the bytes were consumed — so a receiver may drop the frame
    and keep the connection serviceable."""


# -- payload codec -------------------------------------------------------------


def encode_payload(obj: object) -> object:
    """Encode ``obj`` into the JSON-safe tagged form."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if obj is BOTTOM:
        return {"b": 0}
    if isinstance(obj, OpRecord):
        return {"r": record_to_wire(obj)}
    if isinstance(obj, tuple):
        return {"t": [encode_payload(item) for item in obj]}
    if isinstance(obj, list):
        return [encode_payload(item) for item in obj]
    if isinstance(obj, dict):
        return {"d": [[encode_payload(k), encode_payload(v)] for k, v in obj.items()]}
    raise FrameError(f"cannot encode {type(obj).__name__} value {obj!r}")


def decode_payload(obj: object) -> object:
    """Inverse of :func:`encode_payload`."""
    if isinstance(obj, list):
        return [decode_payload(item) for item in obj]
    if isinstance(obj, dict):
        if "t" in obj:
            return tuple(decode_payload(item) for item in obj["t"])
        if "d" in obj:
            return {decode_payload(k): decode_payload(v) for k, v in obj["d"]}
        if "b" in obj:
            return BOTTOM
        if "r" in obj:
            return record_from_wire(obj["r"])
        raise FrameError(f"unknown tagged object {obj!r}")
    return obj


# -- OpRecord <-> wire ---------------------------------------------------------


def record_to_wire(rec: OpRecord) -> dict:
    """Flatten an :class:`OpRecord` for a COLLECT reply (client-side
    consistency checking needs every field the checker reads)."""
    return {
        "req_id": rec.req_id,
        "pid": rec.pid,
        "idx": rec.idx,
        "kind": rec.kind,
        "item": encode_payload(rec.item),
        "gen": rec.gen,
        "pri": rec.priority,
        "value": rec.value,
        "result": encode_payload(rec.result),
        "completed": rec.completed,
        "local_match": rec.local_match,
    }


def record_from_wire(data: dict) -> OpRecord:
    rec = OpRecord(
        data["req_id"],
        data["pid"],
        data["idx"],
        data["kind"],
        decode_payload(data["item"]),
        data["gen"],
        priority=data.get("pri", 0),
    )
    rec.value = data["value"]
    rec.result = decode_payload(data["result"])
    rec.completed = data["completed"]
    rec.local_match = data["local_match"]
    return rec


# -- binary body codec ---------------------------------------------------------
#
# One type byte per value; all lengths/counts big-endian.  The domain is
# the protocol's own values: JSON's scalars, lists and dicts (keys of any
# packable type) plus tuples, ⊥ and OpRecords, each under its own type
# byte, so a value is packed in one walk and unpacked in one walk.  A
# tagged dict (`encode_payload`'s form) is a plain map here and round-trips
# as one.

_B_NONE = 0x00
_B_TRUE = 0x01
_B_FALSE = 0x02
_B_INT8 = 0x03       # 1-byte signed
_B_INT32 = 0x04      # 4-byte signed
_B_INT64 = 0x05      # 8-byte signed
_B_BIGINT = 0x06     # u8 byte-count + signed big-endian two's complement
_B_FLOAT = 0x07      # IEEE-754 double
_B_STR8 = 0x08       # u8 byte-length + UTF-8
_B_STR32 = 0x09      # u32 byte-length + UTF-8
_B_LIST8 = 0x0A      # u8 count + items
_B_LIST32 = 0x0B     # u32 count + items
_B_MAP8 = 0x0C       # u8 count + key/value pairs
_B_MAP32 = 0x0D      # u32 count + key/value pairs
_B_TUPLE32 = 0x0E    # u32 count + items
_B_BOTTOM = 0x0F     # (no body): the ⊥ singleton
_B_FRAME = 0x11      # u8 schema id + u16 presence bits + packed fields
_B_RECORD = 0x12     # a record_to_wire dict: its 11 fields, positionally
_B_OPRECORD = 0x13   # an OpRecord: its 11 slots, positionally
_B_TUPLE8 = 0x14     # u8 count + items

_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

#: positional field order for the hot, fixed-shape frames.  A schema
#: frame packs `0x11, schema id, u16 presence bitmask, fields-present`
#: instead of a generic keyed map — no key strings on the wire and half
#: the pack calls, exactly where the frame rate lives.  A frame with a
#: key outside its schema falls back to the generic map encoding, so
#: the schema list is an optimisation surface, never a compatibility
#: constraint (both peers run the same checkout).
#: ``tr`` is the optional per-op trace tag (see docs/PROTOCOL.md,
#: "Telemetry"): a sampled submit carries it, hosts echo it on the
#: ``msg``/``complete``/``done`` frames that move the op, and every
#: receiver stamps its trace spans.  It rides the presence bitmask, so
#: the 99%+ untraced frames pay zero bytes for it on either codec.
_FRAME_SCHEMAS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("msg", ("dest", "action", "payload", "gen", "src", "seq", "tr")),
    ("complete", ("req", "value", "result", "local_match", "done",
                  "gen", "src", "seq", "tr")),
    ("heartbeat", ("host", "gen", "src", "seq")),
    ("replica_put", ("gen", "origin", "record", "ack", "src", "seq")),
    ("replica_ack", ("req", "gen", "src", "seq")),
    ("done", ("req", "kind", "result", "tr")),
    ("done_batch", ("dones",)),
    ("submit", ("req", "pid", "kind", "item", "pri", "tr")),
    ("submit_batch", ("subs",)),
    ("batch", ("frames",)),
)
#: op -> (schema id, field order, field set)
_SCHEMA_BY_OP = {
    op: (sid, fields, frozenset(fields))
    for sid, (op, fields) in enumerate(_FRAME_SCHEMAS)
}

#: record_to_wire's fixed field order (always all present)
_RECORD_FIELDS = ("req_id", "pid", "idx", "kind", "item", "gen", "pri",
                  "value", "result", "completed", "local_match")
_RECORD_FIELDSET = frozenset(_RECORD_FIELDS)
#: an OpRecord's slots in the same order (``priority`` is ``pri``)
_record_slots = attrgetter(*OpRecord.__slots__)


def _pack_value(obj, out: bytearray) -> None:
    # the scalars inline, the commonest first; bool is not `type() is int`
    kind = type(obj)
    if kind is int:
        if -128 <= obj <= 127:
            out.append(_B_INT8)
            out.append(obj & 0xFF)
        elif -(2**31) <= obj < 2**31:
            out.append(_B_INT32)
            out += _I32.pack(obj)
        elif -(2**63) <= obj < 2**63:
            out.append(_B_INT64)
            out += _I64.pack(obj)
        else:
            raw = obj.to_bytes((obj.bit_length() + 8) // 8, "big", signed=True)
            if len(raw) > 255:
                raise FrameError(f"int of {len(raw)} bytes exceeds the codec")
            out.append(_B_BIGINT)
            out.append(len(raw))
            out += raw
    elif obj is None:
        out.append(_B_NONE)
    elif obj is True:
        out.append(_B_TRUE)
    elif obj is False:
        out.append(_B_FALSE)
    elif kind is float:
        out.append(_B_FLOAT)
        out += _F64.pack(obj)
    else:
        packer = _PACKERS.get(kind)
        if packer is None:
            packer = _base_packer(kind)
        packer(obj, out)


def _pack_str(obj: str, out: bytearray) -> None:
    raw = obj.encode()
    if len(raw) <= 255:
        out.append(_B_STR8)
        out.append(len(raw))
    else:
        out.append(_B_STR32)
        out += _U32.pack(len(raw))
    out += raw


def _items_packer(short: int, long: int):
    """The packer of a list or a tuple: count, then each item."""

    def pack(items, out: bytearray) -> None:
        if len(items) <= 255:
            out.append(short)
            out.append(len(items))
        else:
            out.append(long)
            out += _U32.pack(len(items))
        for item in items:
            _pack_value(item, out)

    return pack


def _pack_dict(obj: dict, out: bytearray) -> None:
    if "op" in obj:
        op = obj["op"]
        schema = _SCHEMA_BY_OP.get(op) if type(op) is str else None
        if schema is not None:
            sid, fields, _ = schema
            bits = 0
            present = 0
            for i, field in enumerate(fields):
                if field in obj:
                    bits |= 1 << i
                    present += 1
            if present == len(obj) - 1:
                # every non-op key is in the schema — pack positionally
                out.append(_B_FRAME)
                out.append(sid)
                out.append(bits >> 8)
                out.append(bits & 0xFF)
                for i, field in enumerate(fields):
                    if bits >> i & 1:
                        _pack_value(obj[field], out)
                return
    elif len(obj) == 11 and "req_id" in obj and obj.keys() == _RECORD_FIELDSET:
        out.append(_B_RECORD)
        for field in _RECORD_FIELDS:
            _pack_value(obj[field], out)
        return
    if len(obj) <= 255:
        out.append(_B_MAP8)
        out.append(len(obj))
    else:
        out.append(_B_MAP32)
        out += _U32.pack(len(obj))
    for key, value in obj.items():
        _pack_value(key, out)
        _pack_value(value, out)


def _pack_bottom(obj, out: bytearray) -> None:
    out.append(_B_BOTTOM)


def _pack_oprecord(rec: OpRecord, out: bytearray) -> None:
    out.append(_B_OPRECORD)
    for value in _record_slots(rec):
        _pack_value(value, out)


#: type -> packer for everything but the inline scalars; a subclass
#: (``NetOpRecord``, a NumPy float) takes its nearest base's
_PACKERS = {
    str: _pack_str,
    tuple: _items_packer(_B_TUPLE8, _B_TUPLE32),
    list: _items_packer(_B_LIST8, _B_LIST32),
    dict: _pack_dict,
    type(BOTTOM): _pack_bottom,
    OpRecord: _pack_oprecord,
    int: lambda obj, out: _pack_value(int(obj), out),
    float: lambda obj, out: _pack_value(float(obj), out),
}


def _base_packer(kind: type):
    for base in kind.__mro__[1:]:
        packer = _PACKERS.get(base)
        if packer is not None:
            return packer
    raise FrameError(f"cannot binary-encode a {kind.__name__}")


def check_packable(obj: object) -> None:
    """Raise :class:`FrameError` now if ``obj`` cannot ride a binary
    frame, rather than when the frame is written."""
    _pack_value(obj, bytearray())


def _unpack_value(buf: bytes, pos: int):
    try:
        tag = buf[pos]
    except IndexError:
        raise FrameDecodeError("truncated binary frame") from None
    pos += 1
    try:  # the commonest type bytes first
        if tag == _B_INT8:
            value = buf[pos]
            return (value - 256 if value > 127 else value), pos + 1
        if tag == _B_INT64:
            return _I64.unpack_from(buf, pos)[0], pos + 8
        if tag == _B_NONE:
            return None, pos
        if tag == _B_TRUE:
            return True, pos
        if tag == _B_FALSE:
            return False, pos
        if tag == _B_TUPLE8:
            items, pos = _unpack_items(buf, pos + 1, buf[pos])
            return tuple(items), pos
        if tag == _B_LIST8:
            return _unpack_items(buf, pos + 1, buf[pos])
        if tag == _B_INT32:
            return _I32.unpack_from(buf, pos)[0], pos + 4
        if tag == _B_BOTTOM:
            return BOTTOM, pos
        if tag == _B_FRAME:
            sid = buf[pos]
            bits = (buf[pos + 1] << 8) | buf[pos + 2]
            pos += 3
            if sid >= len(_FRAME_SCHEMAS):
                raise FrameDecodeError(f"unknown frame schema id {sid}")
            op, fields = _FRAME_SCHEMAS[sid]
            if bits >> len(fields):
                raise FrameDecodeError(
                    f"presence bits beyond the {op!r} schema: 0x{bits:04x}"
                )
            message = {"op": op}
            for i, field in enumerate(fields):
                if bits >> i & 1:
                    message[field], pos = _unpack_value(buf, pos)
            return message, pos
        if tag == _B_LIST32:
            return _unpack_items(buf, pos + 4, _U32.unpack_from(buf, pos)[0])
        if tag == _B_TUPLE32:
            items, pos = _unpack_items(buf, pos + 4, _U32.unpack_from(buf, pos)[0])
            return tuple(items), pos
        if tag == _B_FLOAT:
            return _F64.unpack_from(buf, pos)[0], pos + 8
        if tag in (_B_STR8, _B_STR32):
            if tag == _B_STR8:
                n = buf[pos]
                pos += 1
            else:
                n = _U32.unpack_from(buf, pos)[0]
                pos += 4
            raw = bytes(buf[pos : pos + n])
            if len(raw) != n:
                raise FrameDecodeError("truncated string")
            return raw.decode(), pos + n
        if tag in (_B_MAP8, _B_MAP32):
            if tag == _B_MAP8:
                n = buf[pos]
                pos += 1
            else:
                n = _U32.unpack_from(buf, pos)[0]
                pos += 4
            mapping = {}
            for _ in range(n):
                key, pos = _unpack_value(buf, pos)
                value, pos = _unpack_value(buf, pos)
                mapping[key] = value  # TypeError: an unhashable key
            return mapping, pos
        if tag == _B_OPRECORD:
            fields, pos = _unpack_items(buf, pos, len(OpRecord.__slots__))
            rec = OpRecord(*fields[:6], priority=fields[6])
            rec.value, rec.result, rec.completed, rec.local_match = fields[7:]
            return rec, pos
        if tag == _B_RECORD:
            record = {}
            for field in _RECORD_FIELDS:
                record[field], pos = _unpack_value(buf, pos)
            return record, pos
        if tag == _B_BIGINT:
            n = buf[pos]
            pos += 1
            raw = bytes(buf[pos : pos + n])
            if len(raw) != n:
                raise FrameDecodeError("truncated big int")
            return int.from_bytes(raw, "big", signed=True), pos + n
    except (struct.error, IndexError, UnicodeDecodeError, TypeError) as exc:
        raise FrameDecodeError(f"malformed binary frame: {exc}") from None
    raise FrameDecodeError(f"unknown binary type byte 0x{tag:02x}")


def _unpack_items(buf: bytes, pos: int, n: int) -> tuple[list, int]:
    items = []
    for _ in range(n):
        item, pos = _unpack_value(buf, pos)
        items.append(item)
    return items, pos


# -- framing -------------------------------------------------------------------


def _encode_body(message: dict, codec: str) -> bytes:
    if codec == CODEC_JSON:
        return json.dumps(message, separators=(",", ":")).encode()
    if codec == CODEC_BINARY:
        out = bytearray()
        _pack_value(message, out)
        return bytes(out)
    raise FrameError(f"unknown wire codec {codec!r}")


def decode_frame_body(codec_tag: int, body: bytes) -> dict:
    """Decode one frame body; raises :class:`FrameDecodeError` on
    garbage (the stream itself stays correctly framed)."""
    if _TAG_CODECS[codec_tag] == CODEC_JSON:  # a tag `_parse_header` passed
        try:
            message = json.loads(body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise FrameDecodeError(f"malformed JSON frame: {exc}") from None
    else:
        message, end = _unpack_value(body, 0)
        if end != len(body):
            raise FrameDecodeError(
                f"{len(body) - end} trailing bytes behind a binary frame"
            )
    if not isinstance(message, dict):
        raise FrameDecodeError(
            f"frame body decodes to {type(message).__name__}, not an object"
        )
    return message


def encode_frame(message: dict, codec: str | None = None) -> bytes:
    """Serialise one control/actor message into a self-describing frame,
    in :func:`codec_for`'s codec unless one is named."""
    if codec is None:
        codec = codec_for(message)
    body = _encode_body(message, codec)
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack((CODEC_TAGS[codec] << 24) | len(body)) + body


def _parse_header(header, max_frame: int) -> tuple[int, int]:
    """``(codec tag, body length)`` of a frame header — the one place a
    stream is judged unframeable (:class:`FrameError`): both the
    incremental :class:`FrameReader` and :func:`read_frame` come here."""
    (word,) = _HEADER.unpack_from(header)
    codec_tag, length = word >> 24, word & MAX_FRAME_BYTES
    if codec_tag not in _TAG_CODECS:
        raise FrameError(f"unknown codec tag 0x{codec_tag:02x}")
    if length > max_frame:
        raise FrameError(f"incoming frame of {length} bytes exceeds {max_frame}")
    return codec_tag, length


class FrameReader:
    """Incremental frame decoder tolerating arbitrary packet boundaries.

    Feed it whatever ``recv`` produced; it yields every complete message
    and buffers the tail.  Frames of either codec interleave freely (the
    header names the codec).  The blocking helpers and the tests use it;
    the event-loop side reads with :func:`read_frame`.
    """

    __slots__ = ("_buffer", "max_frame")

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self.max_frame = max_frame

    def feed(self, data: bytes) -> Iterator[dict]:
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _HEADER.size:
                return
            codec_tag, length = _parse_header(self._buffer, self.max_frame)
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return
            body = bytes(self._buffer[_HEADER.size : end])
            del self._buffer[:end]
            yield decode_frame_body(codec_tag, body)

    @property
    def buffered(self) -> int:
        return len(self._buffer)


# -- asyncio stream helpers ----------------------------------------------------


async def read_frame(reader, max_frame: int = MAX_FRAME_BYTES) -> dict | None:
    """Read one frame from an ``asyncio.StreamReader``; ``None`` on EOF.

    Raises :class:`FrameError` for an unframeable stream (unknown codec
    tag, oversized announcement) and the :class:`FrameDecodeError`
    subclass for a garbage *body* — in the latter case the bytes were
    consumed and the caller may keep reading frames.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
        codec_tag, length = _parse_header(header, max_frame)
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError):
        return None
    return decode_frame_body(codec_tag, body)


# -- one-shot request/response -------------------------------------------------


def request(
    address: tuple[str, int], message: dict, expect_op: str, timeout: float = 10.0
) -> dict:
    """One blocking request/response round-trip on a throwaway socket
    (the launcher's and the ops CLI's way to talk to a host).

    Frames other than ``expect_op`` are skipped; an ``error`` answer
    raises.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(encode_frame(message))
        sock.settimeout(timeout)
        frames = FrameReader()
        while True:
            data = sock.recv(65536)
            if not data:
                raise ConnectionError(f"host at {address} closed the connection")
            for reply in frames.feed(data):
                if reply.get("op") == expect_op:
                    return reply
                if reply.get("op") == "error":
                    raise RuntimeError(reply.get("message"))


async def request_async(
    address: tuple[str, int], message: dict, expect_op: str,
    timeout: float | None = 10.0,
) -> dict:
    """:func:`request` for callers already on an event loop: a joining
    and a retiring host (``timeout=None`` waits indefinitely)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(*address), timeout
    )
    try:
        writer.write(encode_frame(message))
        await writer.drain()
        while True:
            reply = await asyncio.wait_for(read_frame(reader), timeout)
            if reply is None:
                raise ConnectionError(f"host at {address} closed the connection")
            if reply.get("op") == expect_op:
                return reply
            if reply.get("op") == "error":
                raise RuntimeError(reply.get("message"))
    finally:
        try:
            writer.close()
        except Exception:
            pass
