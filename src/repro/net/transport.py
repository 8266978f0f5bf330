"""Wire format of the TCP runtime: framing + the binary payload codec.

Every frame is **self-describing**: a 4-byte header whose first byte
names the codec that serialised the body and whose remaining 3 bytes are
the big-endian body length.  There is one codec, the compact
struct-packed binary codec below, under tag ``0x01`` (:data:`CODEC_TAGS`);
a header with any other tag is a framing error.  Frames above
:data:`MAX_FRAME_BYTES` are rejected on both ends — a peer that sends one
is buggy or malicious, and accepting it would let a single connection
exhaust host memory.

The codec carries the protocol's own values: besides JSON's scalars,
lists and string-keyed objects it has type bytes for *tuples* (batches,
position intervals and element tags are tuples, compared by value in the
sequential-consistency checker), dicts with keys of any packable type
(DHT handover slices key by float, forwards by vid), the ⊥ sentinel
``BOTTOM``, :class:`~repro.core.requests.OpRecord` and the cluster map,
:class:`~repro.net.membership.ClusterMap`, whose slots a receiver
type-checks as it decodes them.  A record crosses
the wire only as an ``OpRecord`` — in ``replica_put``, ``records``,
``retire``, ``recover_dump``, ``rebuild`` and a LEAVE's ``DEPART_DUMP``
alike; a ``replica_put`` carries a record once, at its first mirror,
and the later mirrors as fact rows ``[req, value, result, local_match,
completed]``.  A value is packed in one walk and unpacked in one walk,
so every frame carries and receives its payload as built.  A frame is
encoded when its link next writes, not when it is sent, so a sender
hands over a snapshot, never a record or a map it goes on changing.  Replica
rows wait one step longer: the record table queues them and sends one
``replica_put`` per successor from the link's pre-write hook, so they
join the write they would have ridden as one frame each.

Floats are packed as IEEE-754 doubles, so LDB labels and DHT keys
survive the wire bit-for-bit.  Ints are arbitrary precision (a
length-prefixed big-int past 64 bits), which is what lets packed request
ids (:func:`repro.core.requests.pack_req_id` — nonce and sequence in the
high bits) travel in plain ``req`` fields.
"""

from __future__ import annotations

import asyncio
import socket
import struct
from operator import attrgetter
from typing import Iterator, NamedTuple

from repro.core.requests import BOTTOM, OpRecord
from repro.net.membership import ClusterMap

__all__ = [
    "CLIENT",
    "CODEC_BINARY",
    "CODEC_TAGS",
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
    "decode_frame_body",
    "encode_frame",
    "encode_payload",
    "pack_record",
    "pack_record_into",
    "packed_size",
    "record_to_wire",
    "request",
    "request_async",
    "unpack_record",
]

#: Upper bound on one frame's body (16 MiB - 1: the length rides in the
#: low 3 bytes of the header, the top byte names the codec).
MAX_FRAME_BYTES = 0xFFFFFF

#: The wire codec's name, and its header tag byte (the first of the 4
#: header bytes).
CODEC_BINARY = "binary"
CODEC_TAGS = {CODEC_BINARY: 0x01}


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
    "wire": FrameSpec("launcher -> host: genesis cluster map; spawn and kick"),
    "wired": FrameSpec("host -> launcher: wire acknowledged"),
    "shutdown": FrameSpec("any -> host: orderly stop"),
    "bye": FrameSpec("host -> any: shutdown acknowledged"),
    "error": FrameSpec("host -> any: request could not be processed"),
    # host <-> host data plane
    "msg": FrameSpec("host -> host: one actor message (dest, action, payload)", FENCED_DEDUP),
    "complete": FrameSpec("host -> host: value/result/completion sync for a req_id", FENCED_DEDUP),
    "batch": FrameSpec("host -> host: coalesced data-plane frames, one write per flush"),
    # client session
    "hello": FrameSpec("client -> host: request a submission nonce + cluster map"),
    "welcome": FrameSpec("host -> client: nonce + cluster map"),
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
    "suspect": FrameSpec("host -> coordinator: peer refused a dial or fell silent (corroboration)"),
    "recover_dump": FrameSpec("host -> coordinator: all record facts held, for the rebuild"),
    "rebuild": FrameSpec("coordinator -> hosts: merged records + deterministic rebuild plan"),
    "replica_put": FrameSpec(
        "host -> successor: mirrored records and fact rows (submit/value/completion)",
        FENCED),
    "replica_ack": FrameSpec("successor -> host: completion replicas durably held"),
    "health": FrameSpec("any -> host: the host's one status payload, request/answer"),
}

_HEADER = struct.Struct(">I")
_HEADER_TAG = CODEC_TAGS[CODEC_BINARY] << 24


class FrameError(ValueError):
    """A malformed or oversized frame arrived (or was about to be sent)."""


class FrameDecodeError(FrameError):
    """A frame *body* failed to decode (garbage bytes behind a valid
    header).  Unlike a bad header this leaves the stream correctly
    framed — the bytes were consumed — so a receiver may drop the frame
    and keep the connection serviceable."""


# -- the tagged JSON-safe form -------------------------------------------------
#
# No module of the runtime calls these two: a record rides the wire as an
# ``OpRecord``.  They stay for one user, the codec corpus of
# ``perfbench/frames.py``, whose frames carry the tagged form (to the
# binary codec it is plain maps and lists).


def encode_payload(obj: object) -> object:
    """``obj`` in the tagged JSON-safe form: ``{"t": [...]}`` a tuple,
    ``{"d": [[k, v], ...]}`` a dict, ``{"b": 0}`` ⊥, ``{"r": {...}}``
    an ``OpRecord``; scalars and lists pass through."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
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


def record_to_wire(rec: OpRecord) -> dict:
    """An :class:`OpRecord` flattened into a tagged dict."""
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


# -- packed records --------------------------------------------------------------


def pack_record(rec: OpRecord) -> bytes:
    """``rec`` as the binary codec's ``OpRecord`` bytes: the compact form
    a host holds a finished record in."""
    out = bytearray()
    pack_record_into(rec, out)
    return bytes(out)


def unpack_record(data: bytes) -> OpRecord:
    """Inverse of :func:`pack_record`: a fresh plain :class:`OpRecord`."""
    rec, end = _unpack_value(data, 0)
    if type(rec) is not OpRecord or end != len(data):
        raise FrameDecodeError("not a packed record")
    return rec


# -- binary body codec ---------------------------------------------------------
#
# One type byte per value; all lengths/counts big-endian.  The domain is
# the protocol's own values: JSON's scalars, lists and dicts (keys of any
# packable type) plus tuples, ⊥, OpRecords and ClusterMaps, each under its
# own type byte, so a value is packed in one walk and unpacked in one walk.

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
_B_OPRECORD = 0x13   # an OpRecord: its 11 slots, positionally
_B_TUPLE8 = 0x14     # u8 count + items
_B_CLUSTER_MAP = 0x15  # a ClusterMap: its 11 slots, positionally

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
#: the 99%+ untraced frames pay zero bytes for it.
_FRAME_SCHEMAS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("msg", ("dest", "action", "payload", "gen", "src", "seq", "tr")),
    ("complete", ("req", "value", "result", "local_match", "done",
                  "gen", "src", "seq", "tr")),
    ("heartbeat", ("host", "gen", "src", "seq")),
    ("replica_put", ("gen", "origin", "records", "facts", "acks", "src", "seq")),
    ("replica_ack", ("reqs", "src", "seq")),
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

#: an OpRecord's slots, in the order they are packed
_record_slots = attrgetter(*OpRecord.__slots__)
#: a ClusterMap's slots, in the order they are packed
_map_slots = attrgetter(*ClusterMap.__slots__)


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


def pack_record_into(rec: OpRecord, out: bytearray) -> None:
    """Append :func:`pack_record`'s bytes for ``rec`` to ``out`` (also
    the packer of a record inside a frame)."""
    out.append(_B_OPRECORD)
    for value in _record_slots(rec):
        _pack_value(value, out)


def _pack_cluster_map(cluster: ClusterMap, out: bytearray) -> None:
    out.append(_B_CLUSTER_MAP)
    for value in _map_slots(cluster):
        # `leaving`, the one set, rides as a sorted list
        _pack_value(sorted(value) if type(value) is set else value, out)


#: type -> packer for everything but the inline scalars; a subclass
#: (``NetOpRecord``, a NumPy float) takes its nearest base's
_PACKERS = {
    str: _pack_str,
    tuple: _items_packer(_B_TUPLE8, _B_TUPLE32),
    list: _items_packer(_B_LIST8, _B_LIST32),
    dict: _pack_dict,
    type(BOTTOM): _pack_bottom,
    OpRecord: pack_record_into,
    ClusterMap: _pack_cluster_map,
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


def packed_size(obj: object) -> int:
    """At least the bytes ``obj`` takes in a binary frame, without
    packing an int, a str, a tuple or a list: a str is counted at its
    UTF-8 bound, and anything else is packed to count it."""
    kind = type(obj)
    if kind is str:
        return 5 + (len(obj) if obj.isascii() else 4 * len(obj))
    if kind is tuple or kind is list:
        return 5 + sum(map(packed_size, obj))
    if kind is int:
        bits = obj.bit_length()  # int8, int32, int64, else length-prefixed
        return 2 if bits < 8 else 5 if bits < 32 else 9 if bits < 64 else 3 + bits // 8
    if obj is None:
        return 1
    out = bytearray()
    _pack_value(obj, out)
    return len(out)


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
        if tag == _B_CLUSTER_MAP:
            fields, pos = _unpack_items(buf, pos, len(ClusterMap.__slots__))
            return _cluster_map(fields), pos
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


def _is_int(value) -> bool:
    return type(value) is int


def _int_keyed(check):
    """A dict keyed by ints whose values pass ``check``."""
    return lambda value: (type(value) is dict and all(map(_is_int, value))
                          and all(map(check, value.values())))


#: what each ClusterMap slot must decode to (a slot not named: an int)
_MAP_SLOT_CHECKS = {
    "hosts": _int_keyed(lambda address: type(address) is tuple
                        and tuple(map(type, address)) == (str, int)),
    "pid_owner": _int_keyed(_is_int),
    "leaving": lambda value: type(value) is list and all(map(_is_int, value)),
    "departed": _int_keyed(_is_int),
    "forwards": _int_keyed(_is_int),
}


def _cluster_map(fields: list) -> ClusterMap:
    slots = dict(zip(ClusterMap.__slots__, fields))
    for name, value in slots.items():
        if not _MAP_SLOT_CHECKS.get(name, _is_int)(value):
            raise FrameDecodeError(
                f"cluster map slot {name!r}: a malformed {type(value).__name__}")
    return ClusterMap(**slots)


# -- framing -------------------------------------------------------------------


def decode_frame_body(body: bytes) -> dict:
    """Decode one frame body; raises :class:`FrameDecodeError` on
    garbage (the stream itself stays correctly framed)."""
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


def encode_frame(message: dict, codec: str = CODEC_BINARY) -> bytes:
    """Serialise one control/actor message into a self-describing frame.
    ``codec`` may only name the one codec there is."""
    if codec != CODEC_BINARY:
        raise FrameError(f"unknown wire codec {codec!r}")
    out = bytearray()
    _pack_value(message, out)
    if len(out) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(out)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(_HEADER_TAG | len(out)) + out


def _parse_header(header, max_frame: int) -> int:
    """The body length a frame header announces — the one place a stream
    is judged unframeable (:class:`FrameError`)."""
    (word,) = _HEADER.unpack_from(header)
    codec_tag, length = word >> 24, word & MAX_FRAME_BYTES
    if codec_tag != CODEC_TAGS[CODEC_BINARY]:
        raise FrameError(f"unknown codec tag 0x{codec_tag:02x}")
    if length > max_frame:
        raise FrameError(f"incoming frame of {length} bytes exceeds {max_frame}")
    return length


class FrameReader:
    """Incremental frame decoder tolerating arbitrary packet boundaries:
    every stream, blocking or event-loop, is read by one.

    Feed it whatever a socket read produced; it yields every complete
    message and buffers the tail.  A garbage body raises once its frame
    was consumed: feeding ``b""`` goes on behind it."""

    __slots__ = ("_buffer", "max_frame")

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self.max_frame = max_frame

    def feed(self, data: bytes) -> Iterator[dict]:
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _HEADER.size:
                return
            end = _HEADER.size + _parse_header(self._buffer, self.max_frame)
            if len(self._buffer) < end:
                return
            body = bytes(self._buffer[_HEADER.size : end])
            del self._buffer[:end]
            yield decode_frame_body(body)

    @property
    def buffered(self) -> int:
        return len(self._buffer)


# -- one-shot request/response -------------------------------------------------


def _answer(replies: Iterator[dict], expect_op: str) -> dict | None:
    """The first of ``replies`` that is ``expect_op``; an ``error`` raises."""
    for reply in replies:
        if reply.get("op") == expect_op:
            return reply
        if reply.get("op") == "error":
            raise RuntimeError(reply.get("message"))
    return None


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
            reply = _answer(frames.feed(data), expect_op)
            if reply is not None:
                return reply


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
        frames = FrameReader()
        while True:
            data = await asyncio.wait_for(reader.read(65536), timeout)
            if not data:
                raise ConnectionError(f"host at {address} closed the connection")
            reply = _answer(frames.feed(data), expect_op)
            if reply is not None:
                return reply
    finally:
        try:
            writer.close()
        except Exception:
            pass
