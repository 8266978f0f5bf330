"""The record plane: how a request's facts merge, travel and are held.

After submission a request's whole life is four facts that only ever
grow: the ``value`` the anchor's virtual counter assigns once in stage 3
(the witness order; the sequential-consistency proof orders by nothing
else), the ``result``, ``local_match`` and ``completed``.  Everything
that has to agree on what "grow" means is here:

* :func:`learn` — the one merge: ``value``/``result`` fill once, the
  flags only rise, ``completed`` is assigned last.  A ``complete`` frame,
  a ``replica_put``, the retire handoff, the rebuild fold and
  :func:`repro.ops.recovery.merge_records` all call it, so the order
  facts arrive in never matters.
* :class:`NetOpRecord` — the one record class with hooks (valued,
  completed); what the hooks do depends on who holds the record.
* :class:`RecordTable` — the one store: ``ctx.records`` for the protocol,
  and every other copy of a record this host holds.

A host's *own* records are canonical while it lives.  Two kinds of
stand-in exist for records owned elsewhere, both plain
:class:`NetOpRecord` instances that tell the origin what they learn.  A
*stub* is what ``ctx.records[req_id]`` answers for a request submitted on
another host (the protocol completes an INSERT at the DHT node storing
the element, a REMOVE where the GET reply lands): it is looked up once,
given its facts and finished with, so nothing remembers it, and the
origin ignores a fact it already holds.  A *wave proxy* is the copy of a
draining host's unflushed request (``DEPART_DUMP``) riding the adopting
node's next wave; it is remembered, because the GET reply looks it up
again.  *Custody* is something else: the archive of a host that retired
or was evicted, kept by the host the cluster map names for it
(:meth:`~repro.net.membership.ClusterMap.complete_target`) — canonical
from then on, served by ``collect``, and where ``complete`` frames land.

Each store is a :class:`RecordStore`: live records in a plain dict,
finished ones packed where they finish — an own one as its DONE goes
out, a replica or custody copy as it completes — their
:func:`~repro.net.transport.pack_record` bytes appended to the
``bytearray`` of a page of 256 seqs of one (origin, nonce) and found
through an ``array('I')`` of offsets indexed by seq.  A finished record
has nothing left to learn, so a holder of the object loses nothing; a
late fact still lands, on a repacked copy.  A record then costs about
57 B on a long-lived connection, and about 147 B (one dict entry of
``bytes``, as a page's first seqs are held) on one that carries one to
three ops, against 320 B live.  Only :class:`RecordTable` packs, and a
store answers a packed record as an unpacked copy.

Mirrors travel in batches, like the wave.  The table queues each
mirror as a row and :meth:`RecordTable.flush` sends one ``replica_put``
per successor for everything queued since the last flush.  A record's
first mirror is its ``OpRecord`` clone; its valuation and completion
mirrors are fact rows ``[req, value, result, local_match, completed]``,
and a completion also asks for an ack.  The host calls ``flush`` from
each peer link's write step, so the rows leave in the write that would
have carried one frame per mirror.

Nothing here opens a socket or touches the event loop: the table is
handed ``send(host, frame)``, which is what lets
``tests/unit/test_records.py`` drive every path without one.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from typing import Callable, Iterable

from repro.core.requests import OpRecord
from repro.net.transport import (
    MAX_FRAME_BYTES,
    pack_record,
    pack_record_into,
    packed_size,
    unpack_record,
)

__all__ = [
    "MIRROR_BYTES",
    "MIRROR_ROWS",
    "NetOpRecord",
    "RecordStore",
    "RecordTable",
    "clone",
    "decode_complete",
    "encode_complete",
    "facts",
    "learn",
]


def learn(rec, value=None, result=None, local_match=False,
          completed=False) -> bool:
    """Add facts to ``rec``; returns whether it learned anything.

    Idempotent, commutative and associative over fact sets that do not
    contradict each other, and it never lowers a fact.
    """
    changed = False
    if value is not None and rec.value is None:
        rec.value = value
        changed = True
    if result is not None and rec.result is None:
        rec.result = result
        changed = True
    if local_match and not rec.local_match:
        rec.local_match = True
        changed = True
    if completed and not rec.completed:
        rec.completed = True  # last: the hook reads the other three
        changed = True
    return changed


def facts(rec) -> tuple:
    """What ``rec`` knows, in :func:`learn`'s argument order."""
    return rec.value, rec.result, rec.local_match, rec.completed


def clone(rec: OpRecord, cls: type = OpRecord) -> OpRecord:
    """A fresh ``cls`` record with ``rec``'s identity and facts."""
    out = cls(rec.req_id, rec.pid, rec.idx, rec.kind, rec.item, rec.gen,
              priority=rec.priority)
    learn(out, *facts(rec))
    return out


def encode_complete(req_id: int, known: tuple) -> dict:
    """The ``complete`` frame carrying ``known`` (a :func:`facts` tuple)."""
    value, result, local_match, completed = known
    frame = {"op": "complete", "req": req_id}
    if value is not None:
        frame["value"] = value
    if result is not None:
        frame["result"] = result
    if local_match:
        frame["local_match"] = True
    if completed:
        frame["done"] = True
    return frame


def decode_complete(frame: dict) -> tuple:
    """Inverse of :func:`encode_complete`: the frame's facts tuple."""
    return (
        frame.get("value"),
        frame.get("result"),
        bool(frame.get("local_match")),
        bool(frame.get("done")),
    )


class NetOpRecord(OpRecord):
    """An :class:`OpRecord` that calls back when it learns its value and
    when it completes — each once, on the first assignment.

    The protocol assigns both from deep inside a message handler; the
    hooks are how the host hears of it without polling.  What they do
    depends on who holds the record: :meth:`RecordTable.open` binds an
    own record's, :meth:`RecordTable.adopt` a wave proxy's.
    """

    __slots__ = ("_net_completed", "_net_value", "on_completed", "on_valued")

    def __init__(self, *args, **kwargs) -> None:
        self._net_completed = False
        self._net_value = None
        self.on_completed: Callable[[NetOpRecord], None] | None = None
        self.on_valued: Callable[[NetOpRecord], None] | None = None
        super().__init__(*args, **kwargs)

    @property
    def completed(self) -> bool:
        return self._net_completed

    @completed.setter
    def completed(self, value: bool) -> None:
        was = self._net_completed
        self._net_completed = value
        if value and not was and self.on_completed is not None:
            self.on_completed(self)

    @property
    def value(self):
        return self._net_value

    @value.setter
    def value(self, value) -> None:
        was = self._net_value
        self._net_value = value
        if value is not None and was is None and self.on_valued is not None:
            self.on_valued(self)


#: seqs one page of offsets spans: a page's array is at most this long,
#: so a lone record at a hand-picked seq costs at most one page, never
#: an array up to its seq
PAGE_SEQS = 256
_PAGE_MASK = PAGE_SEQS - 1

#: a page's first seqs are held loose, as ``bytes`` in a dict, until a
#: later seq of the page is packed.  A page costs about 280 B before its
#: first record (its key, dict slot, tuple, arena and offsets), so a
#: connection that carries one to three ops holds each as one dict entry
#: (about 147 B), and one that carries more opens a page that costs less
#: than the entries it takes in
LOOSE_SEQS = 3

#: an entry's first byte: its length if below this, else this and a u32
_LONG = 0xFF

#: what a page that is not open reads as
_NO_PAGE = (bytearray(), array("I"))


def _extent(arena: bytearray, at: int) -> tuple[int, int]:
    """Where the packed record of the entry at ``at`` starts and ends."""
    size = arena[at]
    if size < _LONG:
        return at + 1, at + 1 + size
    return at + 5, at + 5 + int.from_bytes(arena[at + 1:at + 5], "big")


class RecordStore:
    """One store of a :class:`RecordTable`: the records it holds, by
    req_id.

    A live record sits in :attr:`live`, a plain dict the table reads and
    writes directly.  A finished one is :meth:`pack`-ed into a page: the
    :data:`PAGE_SEQS` seqs of one (origin, nonce) group that
    :func:`~repro.core.requests.unpack_req_id` puts in one block, keyed
    by the req_id of the block's first seq.  A page is a ``bytearray``
    arena of entries, each a length byte (``0xFF``: a u32 length
    follows) and the record's :func:`~repro.net.transport.pack_record`
    bytes, and an ``array('I')`` of entry offsets indexed by seq (0:
    none; an arena opens with a pad byte).  A page's entries are a few
    versions of at most 256 records, so its offsets fit a u32 unless
    those records average megabytes each.  Until a page opens, its first
    :data:`LOOSE_SEQS` seqs are held loose, as ``bytes``; the page takes
    their bytes in when it opens.  Packing a record again appends a new
    entry and re-points its offset.

    It answers records: :meth:`get` and :meth:`copies` unpack a packed
    one into a fresh :class:`~repro.core.requests.OpRecord`.
    """

    __slots__ = ("live", "packed_bytes", "_loose", "_pages", "_packed",
                 "_slots")

    def __init__(self, id_slots: int) -> None:
        #: records not finished yet
        self.live: dict[int, OpRecord] = {}
        #: bytes of packed records held, superseded entries included
        self.packed_bytes = 0
        # req_id -> packed record, at the first seqs of a page not open
        self._loose: dict[int, bytes] = {}
        # page key -> (arena, offsets)
        self._pages: dict[int, tuple[bytearray, array]] = {}
        self._packed = 0
        self._slots = id_slots

    def pack(self, rec: OpRecord) -> None:
        """Hold ``rec`` packed, superseding a packed copy of it; its live
        entry, if any, is the caller's to drop."""
        req_id = rec.req_id
        slots = self._slots
        index = req_id // slots & _PAGE_MASK
        key = req_id - index * slots
        page = self._pages.get(key)
        if page is None:
            if index < LOOSE_SEQS:
                held = self._loose.get(req_id)
                if held is None:
                    self._packed += 1
                else:
                    self.packed_bytes -= len(held)
                held = self._loose[req_id] = pack_record(rec)
                self.packed_bytes += len(held)
                return
            page = self._pages[key] = (bytearray(1), array("I"))
            self.packed_bytes += 1
            for seq in range(LOOSE_SEQS):  # the page takes its loose seqs in
                held = self._loose.pop(key + seq * slots, None)
                if held is not None:
                    self.packed_bytes -= len(held)
                    self._put(page, seq, held)
        if not self._put(page, index, rec):
            self._packed += 1

    def _put(self, page: tuple[bytearray, array], index: int,
             rec: OpRecord | bytes) -> int:
        """Append ``rec`` (or its packed bytes) to ``page``'s arena as the
        entry at ``index``; answers the offset it superseded (0: none)."""
        arena, offsets = page
        at = len(arena)
        arena.append(0)
        if type(rec) is bytes:
            arena += rec
        else:
            pack_record_into(rec, arena)
        size = len(arena) - at - 1
        if size < _LONG:
            arena[at] = size
        else:
            arena[at] = _LONG
            arena[at + 1:at + 1] = size.to_bytes(4, "big")
        self.packed_bytes += len(arena) - at
        if index == len(offsets):  # the common case: seqs finish in order
            offsets.append(at)
            return 0
        if index > len(offsets):
            offsets.frombytes(bytes(offsets.itemsize * (index - len(offsets))))
            offsets.append(at)
            return 0
        old = offsets[index]
        offsets[index] = at
        return old

    def get(self, req_id: int) -> OpRecord | None:
        """The live record for ``req_id``, an unpacked copy of its packed
        one, or None if this store holds neither."""
        rec = self.live.get(req_id)
        if rec is not None:
            return rec
        index = req_id // self._slots & _PAGE_MASK
        arena, offsets = self._pages.get(req_id - index * self._slots,
                                         _NO_PAGE)
        at = offsets[index] if index < len(offsets) else 0
        if not at:
            held = self._loose.get(req_id)
            return None if held is None else unpack_record(held)
        start, end = _extent(arena, at)
        return unpack_record(arena[start:end])

    def __contains__(self, req_id: int) -> bool:
        if req_id in self.live or req_id in self._loose:
            return True
        index = req_id // self._slots & _PAGE_MASK
        page = self._pages.get(req_id - index * self._slots)
        return page is not None and index < len(page[1]) and page[1][index] != 0

    def __len__(self) -> int:
        return len(self.live) + self._packed

    def copies(self) -> Iterator[OpRecord]:
        """A fresh copy of each held record, in no particular order,
        without a lookup each (a ``recover_dump`` or a resync walks the
        whole history)."""
        for held in self._loose.values():
            yield unpack_record(held)
        for arena, offsets in self._pages.values():
            for at in offsets:
                if at:
                    start, end = _extent(arena, at)
                    yield unpack_record(arena[start:end])
        for rec in self.live.values():
            yield clone(rec)

    def clear(self) -> None:
        self.live.clear()
        self._loose.clear()
        self._pages.clear()
        self._packed = 0
        self.packed_bytes = 0


#: rows (records plus fact rows) one ``replica_put`` carries at most: a
#: resync of a long history leaves in many frames
MIRROR_ROWS = 256

#: bytes one ``replica_put``'s rows add up to at most, unless one row
#: alone is larger: a link drops a frame over ``MAX_FRAME_BYTES``, and a
#: record may carry an item nearly that large
MIRROR_BYTES = MAX_FRAME_BYTES // 2

#: a row's bytes besides its item and result (ids, counters, flags, its
#: ack), at most
_ROW_BYTES = 64


class _Mirror:
    """The ``replica_put`` being filled: the targets and the ``gen`` in
    force when its first row was queued, its three row lists and their
    bytes so far."""

    __slots__ = ("targets", "gen", "records", "facts", "acks", "size")

    def __init__(self, targets: list[int], gen: int) -> None:
        self.targets = targets
        self.gen = gen
        self.size = 0
        self.records: list[OpRecord] = []
        self.facts: list[list] = []
        self.acks: list[int] = []


def _blank(req_id: int, cls: type = OpRecord) -> OpRecord:
    """A record known only by its id (``gen`` None: latency is observed
    where the generation time is known, at the origin)."""
    return cls(req_id, None, None, None, None, None)


class RecordTable:
    """Every record this host holds, by req_id (see the module docstring),
    in three stores (:class:`RecordStore`): ``local``, ``custody`` and
    ``replicas``.  A record is packed where it finishes: an own one in
    :meth:`_release`, a replica or custody copy in :meth:`_hold` or
    :meth:`_learn`; the hot path otherwise reads and writes a store's
    ``live`` dict directly.

    As ``ctx.records`` it is a mapping: own ids resolve to the canonical
    record, adopted ids to their wave proxy, any other remote id to a
    fresh stub.  (The simulators use a plain list there, req_id == index.)

    ``send(host, frame)`` ships one frame to a live host and answers
    whether a link existed; ``holder_of(origin)`` names the host keeping
    an origin's records today (the origin while it lives, its custodian
    afterwards); ``gen()`` is the recovery generation every frame the
    table makes is stamped with; ``on_done(rec)`` is called when an own
    record's completion may be shown to the client; ``wake(targets)``
    when a ``replica_put`` opens, so the links to ``targets`` run a
    write step (and with it :meth:`flush`) soon.  ``id_slots`` is the
    genesis-fixed residue modulus, not the current host count.
    """

    __slots__ = (
        "host_index", "id_slots", "local", "custody", "replicas", "targets",
        "holder_of", "gen", "on_done", "wake", "uncompleted", "_send",
        "_proxies", "_parked", "_pending", "_mirror", "_closed",
        "_valued_hook", "_completed_hook",
    )

    def __init__(self, host_index: int, id_slots: int,
                 send: Callable[[int, dict], bool]) -> None:
        self.host_index = host_index
        self.id_slots = id_slots
        # each store holds a finished record packed
        #: records submitted here (canonical while this host lives)
        self.local = RecordStore(id_slots)
        #: archives of retired or evicted hosts this host answers for
        self.custody = RecordStore(id_slots)
        #: records mirrored here by ring predecessors
        self.replicas = RecordStore(id_slots)
        #: the ring successors mirroring this host's records
        self.targets: list[int] = []
        self.holder_of: Callable[[int], int | None] = lambda origin: origin
        self.gen: Callable[[], int] = lambda: 0
        self.on_done: Callable[[NetOpRecord], None] = lambda rec: None
        self.wake: Callable[[list[int]], None] = lambda targets: None
        self._send = send
        self._proxies: dict[int, NetOpRecord] = {}
        # facts whose record is not here (yet): a `complete` racing a
        # retire handoff, or one whose holder the map does not name yet
        self._parked: dict[int, OpRecord] = {}
        # completed own records whose DONE awaits the first replica ack
        self._pending: dict[int, NetOpRecord] = {}
        #: own records opened and not completed yet (a drain waits for 0)
        self.uncompleted = 0
        # the replica_put being filled, and those filled before it that
        # the next flush sends (a changed gen or target set closes one)
        self._mirror: _Mirror | None = None
        self._closed: list[_Mirror] = []
        # every own record's hooks: one bound method each, not two per record
        self._valued_hook = self._replicate
        self._completed_hook = self._completed

    # -- ctx.records ---------------------------------------------------------
    def origin_of(self, req_id: int) -> int:
        return req_id % self.id_slots

    def refusal(self, req_id) -> str | None:
        """Why :meth:`add_local` would refuse ``req_id`` (a client's, off
        the wire); None if it would not."""
        if type(req_id) is not int or req_id < 0:
            return f"req_id {req_id!r} is not a non-negative int"
        if self.origin_of(req_id) != self.host_index:
            return f"req_id {req_id} does not belong to host {self.host_index}"
        if req_id in self.local:
            return f"duplicate req_id {req_id}"
        return None

    def add_local(self, rec: NetOpRecord) -> None:
        reason = self.refusal(rec.req_id)
        if reason is not None:
            raise ValueError(reason)
        self.local.live[rec.req_id] = rec

    def adopt(self, rec: OpRecord) -> OpRecord:
        """Entry point for records arriving in a ``DEPART_DUMP``: the
        canonical record if it was submitted here (the dump was delivered
        in-process), else its wave proxy."""
        local = self.local.get(rec.req_id)
        if local is not None:
            return local
        proxy = self._proxies.get(rec.req_id)
        if proxy is None:
            proxy = self._proxies[rec.req_id] = clone(rec, NetOpRecord)
            # the value at once: an INSERT completes at a third host,
            # the DHT node, which never sees the value
            proxy.on_valued = proxy.on_completed = self._tell_origin
        return proxy

    def __getitem__(self, req_id: int):
        rec = self.local.live.get(req_id)
        if rec is not None:
            return rec
        rec = self._proxies.get(req_id)
        if rec is not None:
            return rec
        if self.origin_of(req_id) == self.host_index:
            rec = self.local.get(req_id)  # a packed one is finished: no hooks
            if rec is None:
                raise KeyError(f"unknown local req_id {req_id}")
            return rec
        stub = _blank(req_id, NetOpRecord)
        stub.on_completed = self._tell_origin
        return stub

    def get(self, req_id: int) -> OpRecord | None:
        """The canonical record for ``req_id`` if this host keeps it (a
        copy, if it is held packed)."""
        rec = self.local.get(req_id)
        return rec if rec is not None else self.custody.get(req_id)

    # -- own records: replication and the DONE gate --------------------------
    def open(self, rec: NetOpRecord) -> None:
        """Register a fresh submission, one :meth:`refusal` let through
        (the submit path checks its id once), and mirror it before its
        wave starts: should this host die mid-protocol, the successors
        still hold the request."""
        # valued: replicate at once.  A crash between valuation and
        # completion would otherwise re-run an *ordered* op with a fresh
        # value, and a later same-pid op that already completed could
        # overtake it (Definition 1, property 4).
        rec.on_valued = self._valued_hook
        rec.on_completed = self._completed_hook
        self.local.live[rec.req_id] = rec
        self.uncompleted += 1
        if self.targets:
            self._rows(_ROW_BYTES + packed_size(rec.item)).records.append(
                clone(rec))

    def _replicate(self, rec: OpRecord, ack: bool = False) -> None:
        """A later mirror: a fact row with the facts as they are now; a
        completion's also asks for an ack."""
        if not self.targets:
            return
        mirror = self._rows(_ROW_BYTES + packed_size(rec.result))
        mirror.facts.append([rec.req_id, *facts(rec)])
        if ack:
            mirror.acks.append(rec.req_id)

    def _rows(self, size: int) -> _Mirror:
        """The open ``replica_put``, for one more row of about ``size``
        bytes.  It is closed first if the gen or the target set moved
        since it opened, or if the row would not fit: a row rides a
        frame stamped with the gen in force when it was queued, to the
        targets named then, and a frame holds at most
        :data:`MIRROR_ROWS` rows and :data:`MIRROR_BYTES` bytes (a row
        larger than that rides alone)."""
        mirror = self._mirror
        if mirror is not None and (
            mirror.targets is not self.targets or mirror.gen != self.gen()
            or len(mirror.records) + len(mirror.facts) >= MIRROR_ROWS
            or mirror.size + size > MIRROR_BYTES
        ):
            self._closed.append(mirror)
            mirror = None
        if mirror is None:
            mirror = self._mirror = _Mirror(self.targets, self.gen())
            self.wake(self.targets)
        mirror.size += size
        return mirror

    def flush(self) -> None:
        """Send what is queued: one ``replica_put`` per target for each
        frame filled since the last flush, in the order they filled."""
        mirror = self._mirror
        if mirror is None:
            return
        self._mirror = None
        closed, self._closed = self._closed, []
        closed.append(mirror)
        for mirror in closed:
            frame = {"op": "replica_put", "origin": self.host_index,
                     "gen": mirror.gen}
            if mirror.records:
                frame["records"] = mirror.records
            if mirror.facts:
                frame["facts"] = mirror.facts
            if mirror.acks:
                frame["acks"] = mirror.acks
            for target in mirror.targets:
                self._send(target, frame)

    def _completed(self, rec: NetOpRecord) -> None:
        self.uncompleted -= 1
        if self.targets:
            # gate the client's DONE on the first replica ack: an
            # acknowledged op then survives any single host crash
            self._pending[rec.req_id] = rec
            self._replicate(rec, ack=True)
        else:
            self._release(rec)

    def acked(self, reqs: Iterable[int]) -> None:
        """A replica holder confirmed these completions."""
        for req_id in reqs:
            rec = self._pending.pop(req_id, None)
            if rec is not None:
                self._release(rec)

    def _release(self, rec: NetOpRecord) -> None:
        """The DONE may be shown: the own record is finished, and packed
        (a caller still holding it sees nothing learned after)."""
        self.on_done(rec)
        del self.local.live[rec.req_id]
        self.local.pack(rec)

    def set_targets(self, targets: list[int]) -> None:
        if targets != self.targets:
            self.targets = targets
            self.resync()

    def resync(self) -> None:
        """Full-history snapshot to the (changed) successor set: every
        record goes as a record, in frames of at most
        :data:`MIRROR_ROWS` rows and :data:`MIRROR_BYTES` bytes.

        O(history) per membership change — acceptable at the deployment
        sizes this runtime targets (see DESIGN.md)."""
        if not self.targets:
            # nobody to wait for: release every gated DONE
            self.acked(list(self._pending))
            return
        pending = self._pending
        for store in (self.local, self.custody):
            for rec in store.copies():
                mirror = self._rows(_ROW_BYTES + packed_size(rec.item)
                                    + packed_size(rec.result))
                mirror.records.append(rec)
                if rec.req_id in pending:
                    mirror.acks.append(rec.req_id)

    def put_mirror(self, frame: dict) -> tuple[dict | None, list[int]]:
        """Take a predecessor's ``replica_put``: its records first, then
        its fact rows.  Answers the ``replica_ack`` owed for it (None if
        it asked for none) and the req ids of fact rows whose record is
        not held here — those are not acknowledged, and the frame's
        other rows still apply."""
        replicas = self.replicas
        for rec in frame.get("records", ()):
            self._hold(replicas, rec)
        unheld = []
        for req_id, *known in frame.get("facts", ()):
            if not self._learn(replicas, req_id, known):
                unheld.append(req_id)
        acks = frame.get("acks")
        if acks and unheld:
            acks = [req_id for req_id in acks if req_id not in unheld]
        ack = {"op": "replica_ack", "reqs": acks} if acks else None
        return ack, unheld

    # -- the stores: one merge, finished records packed ------------------------
    def _hold(self, store: RecordStore, rec: OpRecord) -> None:
        """Keep ``rec`` in ``store`` (custody or replicas), packed if it
        is completed, or add its facts to the copy held."""
        if rec.req_id in store:
            self._learn(store, rec.req_id, facts(rec))
        elif rec.completed:
            store.pack(rec)
        else:
            store.live[rec.req_id] = rec

    def _learn(self, store: RecordStore, req_id: int, known: tuple) -> bool:
        """:func:`learn` into the record ``store`` holds for ``req_id``:
        a custody or replica copy it completes is packed, and a packed
        one is unpacked, taught and packed again.  False if ``store``
        holds no such record."""
        held = store.live.get(req_id)
        if held is not None:
            if (learn(held, *known) and held.completed
                    and store is not self.local):
                # an own record is finished once its DONE is out (`_release`)
                del store.live[req_id]
                store.pack(held)
            return True
        rec = store.get(req_id)
        if rec is None:
            return False
        if learn(rec, *known):
            store.pack(rec)
        return True

    # -- facts learned away from the record ----------------------------------
    def _tell_origin(self, rec: NetOpRecord) -> None:
        self.deliver(rec.req_id, facts(rec))

    def deliver(self, req_id: int, known: tuple) -> None:
        """Get ``known`` to whoever keeps ``req_id``'s record today."""
        holder = self.holder_of(self.origin_of(req_id))
        if holder == self.host_index:
            self.apply(req_id, known)
        elif holder is None or not self._send(
            holder, {**encode_complete(req_id, known), "gen": self.gen()}
        ):
            # map lag (a join broadcast still in flight): `replay_parked`
            # retries on the next map
            self._park(req_id, known)

    def apply(self, req_id: int, known: tuple) -> None:
        """Facts for a record this host should keep (a ``complete`` frame
        arrived, or :meth:`deliver` found the holder is us)."""
        for store in (self.local, self.custody):
            if self._learn(store, req_id, known):
                return
        # racing a retire handoff: held for the archive
        self._park(req_id, known)

    def _park(self, req_id: int, known: tuple) -> None:
        parked = self._parked.get(req_id)
        if parked is None:
            parked = self._parked[req_id] = _blank(req_id)
        learn(parked, *known)

    def replay_parked(self) -> None:
        """Retry parked facts after a map change; what still has no
        reachable holder, or no record here yet, parks itself again."""
        parked, self._parked = self._parked, {}
        for rec in parked.values():
            self.deliver(rec.req_id, facts(rec))

    # -- custody --------------------------------------------------------------
    def archive(self, recs: Iterable[OpRecord]) -> None:
        """Take custody of a retiring host's records (its ``retire``
        frame, fresh off the wire); facts that raced the handoff land on
        the archived copy."""
        for rec in recs:
            parked = self._parked.pop(rec.req_id, None)
            if parked is not None:
                learn(rec, *facts(parked))
            self._hold(self.custody, rec)

    def fold(self, merged: Iterable[OpRecord], custody_of,
             targets: list[int]) -> None:
        """Adopt a rebuild's merged truth, in the order that keeps the
        DONE gate honest: ``targets`` (the successors under the rebuilt
        map) first, so a completion learned here waits for a holder that
        is alive; then records of the origins in ``custody_of`` are kept
        here from now on; then the replicas — which described the old
        world — go; then the whole history is mirrored again, every
        holder having just purged its own; and last own records learn
        what the cluster knew (completions fire the gate through their
        hooks), so each fact row that learning queues follows its
        record.  A record kept is a copy: ``merged`` is also the
        ``rebuild`` frame the acting coordinator may push again."""
        self.targets = targets
        own = []
        for rec in merged:
            origin = self.origin_of(rec.req_id)
            if origin == self.host_index:
                if rec.req_id in self.local:
                    own.append(rec)
            elif origin in custody_of:
                self._hold(self.custody, clone(rec))
        self.replicas.clear()
        self.resync()
        for rec in own:
            self._learn(self.local, rec.req_id, facts(rec))

    def reset_epoch(self) -> None:
        """Forget what belongs to a dead recovery epoch: wave proxies
        (their waves are gone) and parked facts (the rebuild's merged
        record set supersedes them).  Canonical records stay."""
        self._proxies.clear()
        self._parked.clear()

    # -- read-outs -----------------------------------------------------------
    def dump(self, replicas: bool = False) -> list[OpRecord]:
        """Copies of the records this host answers for — own and custody,
        what ``collect`` serves and ``retire`` hands over — plus, for
        ``recover_dump``, the replicas."""
        stores = [self.local, self.custody]
        if replicas:
            stores.append(self.replicas)
        return [rec for store in stores for rec in store.copies()]

    def counts(self) -> dict:
        """The record lines of the ``/health`` payload."""
        return {
            "records": len(self.local),
            "adopted_records": len(self.custody),
            "replicas": len(self.replicas),
            "replica_targets": list(self.targets),
            "pending_done": len(self._pending),
        }
