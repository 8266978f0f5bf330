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

Nothing here opens a socket or touches the event loop: the table is
handed ``send(host, frame)``, which is what lets
``tests/unit/test_records.py`` drive every path without one.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.requests import OpRecord
from repro.net.transport import record_from_wire, record_to_wire

__all__ = [
    "NetOpRecord",
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


def _keep(table: dict, rec: OpRecord) -> None:
    """Hold ``rec`` in ``table``, or add its facts to the copy held."""
    have = table.get(rec.req_id)
    if have is None:
        table[rec.req_id] = rec
    else:
        learn(have, *facts(rec))


def _blank(req_id: int, cls: type = OpRecord) -> OpRecord:
    """A record known only by its id (``gen`` None: latency is observed
    where the generation time is known, at the origin)."""
    return cls(req_id, None, None, None, None, None)


class RecordTable:
    """Every record this host holds, by req_id (see the module docstring).

    As ``ctx.records`` it is a mapping: own ids resolve to the canonical
    record, adopted ids to their wave proxy, any other remote id to a
    fresh stub.  (The simulators use a plain list there, req_id == index.)

    ``send(host, frame)`` ships one frame to a live host and answers
    whether a link existed; ``holder_of(origin)`` names the host keeping
    an origin's records today (the origin while it lives, its custodian
    afterwards); ``on_done(rec)`` is called when an own record's
    completion may be shown to the client.  ``id_slots`` is the
    genesis-fixed residue modulus, not the current host count.
    """

    __slots__ = (
        "host_index", "id_slots", "local", "custody", "replicas", "targets",
        "holder_of", "on_done", "_send", "_proxies", "_parked", "_pending",
    )

    def __init__(self, host_index: int, id_slots: int,
                 send: Callable[[int, dict], bool]) -> None:
        self.host_index = host_index
        self.id_slots = id_slots
        #: records submitted here (canonical while this host lives)
        self.local: dict[int, NetOpRecord] = {}
        #: archives of retired or evicted hosts this host answers for
        self.custody: dict[int, OpRecord] = {}
        #: records mirrored here by ring predecessors
        self.replicas: dict[int, OpRecord] = {}
        #: the ring successors mirroring this host's records
        self.targets: list[int] = []
        self.holder_of: Callable[[int], int | None] = lambda origin: origin
        self.on_done: Callable[[NetOpRecord], None] = lambda rec: None
        self._send = send
        self._proxies: dict[int, NetOpRecord] = {}
        # facts whose record is not here (yet): a `complete` racing a
        # retire handoff, or one whose holder the map does not name yet
        self._parked: dict[int, OpRecord] = {}
        # completed own records whose DONE awaits the first replica ack
        self._pending: dict[int, NetOpRecord] = {}

    # -- ctx.records ---------------------------------------------------------
    def origin_of(self, req_id: int) -> int:
        return req_id % self.id_slots

    def add_local(self, rec: NetOpRecord) -> None:
        if rec.req_id in self.local:
            raise ValueError(f"duplicate req_id {rec.req_id}")
        if self.origin_of(rec.req_id) != self.host_index:
            raise ValueError(
                f"req_id {rec.req_id} does not belong to host {self.host_index}"
            )
        self.local[rec.req_id] = rec

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
        rec = self.local.get(req_id)
        if rec is not None:
            return rec
        rec = self._proxies.get(req_id)
        if rec is not None:
            return rec
        if self.origin_of(req_id) == self.host_index:
            raise KeyError(f"unknown local req_id {req_id}")
        stub = _blank(req_id, NetOpRecord)
        stub.on_completed = self._tell_origin
        return stub

    def get(self, req_id: int) -> OpRecord | None:
        """The canonical record for ``req_id`` if this host keeps it."""
        rec = self.local.get(req_id)
        return rec if rec is not None else self.custody.get(req_id)

    # -- own records: replication and the DONE gate --------------------------
    def open(self, rec: NetOpRecord) -> None:
        """Register a fresh submission and mirror it before its wave
        starts: should this host die mid-protocol, the successors still
        hold the request."""
        # valued: replicate at once.  A crash between valuation and
        # completion would otherwise re-run an *ordered* op with a fresh
        # value, and a later same-pid op that already completed could
        # overtake it (Definition 1, property 4).
        rec.on_valued = self._replicate
        rec.on_completed = self._completed
        self.add_local(rec)
        self._replicate(rec)

    def _replicate(self, rec: OpRecord, ack: bool = False) -> None:
        if not self.targets:
            return
        frame = {
            "op": "replica_put",
            "origin": self.host_index,
            "ack": ack,
            "record": record_to_wire(rec),
        }
        for target in self.targets:
            self._send(target, frame)

    def _completed(self, rec: NetOpRecord) -> None:
        if self.targets:
            # gate the client's DONE on the first replica ack: an
            # acknowledged op then survives any single host crash
            self._pending[rec.req_id] = rec
            self._replicate(rec, ack=True)
        else:
            self.on_done(rec)

    def acked(self, req_id: int) -> None:
        """A replica holder confirmed ``req_id``'s completion."""
        rec = self._pending.pop(req_id, None)
        if rec is not None:
            self.on_done(rec)

    def set_targets(self, targets: list[int]) -> None:
        if targets != self.targets:
            self.targets = targets
            self.resync()

    def resync(self) -> None:
        """Full-history snapshot to the (changed) successor set.

        O(history) per membership change — acceptable at the deployment
        sizes this runtime targets (see DESIGN.md)."""
        if not self.targets:
            # nobody to wait for: release every gated DONE
            for req_id in list(self._pending):
                self.acked(req_id)
            return
        for rec in self.local.values():
            self._replicate(rec, ack=rec.req_id in self._pending)
        for rec in self.custody.values():
            self._replicate(rec)

    def put_replica(self, wire: dict) -> int:
        """Hold (or add to) a predecessor's record; returns its req_id."""
        rec = record_from_wire(wire)
        _keep(self.replicas, rec)
        return rec.req_id

    # -- facts learned away from the record ----------------------------------
    def _tell_origin(self, rec: NetOpRecord) -> None:
        self.deliver(rec.req_id, facts(rec))

    def deliver(self, req_id: int, known: tuple) -> None:
        """Get ``known`` to whoever keeps ``req_id``'s record today."""
        holder = self.holder_of(self.origin_of(req_id))
        if holder == self.host_index:
            self.apply(req_id, known)
        elif holder is None or not self._send(
            holder, encode_complete(req_id, known)
        ):
            # map lag (a join broadcast still in flight): `replay_parked`
            # retries on the next map
            self._park(req_id, known)

    def apply(self, req_id: int, known: tuple) -> None:
        """Facts for a record this host should keep (a ``complete`` frame
        arrived, or :meth:`deliver` found the holder is us)."""
        rec = self.get(req_id)
        if rec is None:
            # racing a retire handoff: held for the archive
            self._park(req_id, known)
        else:
            learn(rec, *known)

    def _park(self, req_id: int, known: tuple) -> None:
        parked = _blank(req_id)
        learn(parked, *known)
        _keep(self._parked, parked)

    def replay_parked(self) -> None:
        """Retry parked facts after a map change; what still has no
        reachable holder, or no record here yet, parks itself again."""
        parked, self._parked = self._parked, {}
        for rec in parked.values():
            self.deliver(rec.req_id, facts(rec))

    # -- custody --------------------------------------------------------------
    def archive(self, wires: Iterable[dict]) -> None:
        """Take custody of a retiring host's records (its ``retire``
        frame); facts that raced the handoff land on the archived copy."""
        for data in wires:
            rec = record_from_wire(data)
            parked = self._parked.pop(rec.req_id, None)
            if parked is not None:
                learn(rec, *facts(parked))
            _keep(self.custody, rec)

    def fold(self, merged: Iterable[OpRecord], custody_of,
             targets: list[int]) -> None:
        """Adopt a rebuild's merged truth, in the order that keeps the
        DONE gate honest: ``targets`` (the successors under the rebuilt
        map) first, so a completion learned here waits for a holder that
        is alive; then own records learn what the cluster knew
        (completions fire the gate through their hooks) and records of
        the origins in ``custody_of`` are kept here from now on; then
        the replicas — which described the old world — go; and last the
        whole history is mirrored again, every holder having just
        purged its own."""
        self.targets = targets
        for rec in merged:
            origin = self.origin_of(rec.req_id)
            if origin == self.host_index:
                mine = self.local.get(rec.req_id)
                if mine is not None:
                    learn(mine, *facts(rec))
            elif origin in custody_of:
                _keep(self.custody, rec)
        self.replicas.clear()
        self.resync()

    def reset_epoch(self) -> None:
        """Forget what belongs to a dead recovery epoch: wave proxies
        (their waves are gone) and parked facts (the rebuild's merged
        record set supersedes them).  Canonical records stay."""
        self._proxies.clear()
        self._parked.clear()

    # -- read-outs -----------------------------------------------------------
    def dump(self, replicas: bool = False) -> list[dict]:
        """Wire copies of the records this host answers for — own and
        custody, what ``collect`` serves and ``retire`` hands over — plus,
        for ``recover_dump``, the replicas."""
        held = [self.local, self.custody]
        if replicas:
            held.append(self.replicas)
        return [record_to_wire(rec) for table in held for rec in table.values()]

    def counts(self) -> dict:
        """The record lines of the ``/health`` payload."""
        return {
            "records": len(self.local),
            "adopted_records": len(self.custody),
            "replicas": len(self.replicas),
            "replica_targets": list(self.targets),
            "pending_done": len(self._pending),
        }
