"""The record plane without a socket: ``repro.net.records`` driven by
hand-delivered frames.

Everything here used to run only under ``-m net`` (inside ``NodeHost``):
the one merge, completion forwarding, replication and the ack-gated
DONE, the retire handoff, the rebuild fold.  ``Wire`` stands in for the
peer links: frames wait in a queue the test delivers when (and in the
order) it wants, and go through the real binary codec on delivery — as a
link encodes a frame when it writes, not when it is sent.
"""

from __future__ import annotations

import ast
import gc
import itertools
import tracemalloc
from pathlib import Path

import pytest

import repro.net.records as records_module
from repro.net.link import unfold
from repro.core.requests import (
    BOTTOM,
    INSERT,
    MAX_REQ_SEQ,
    REMOVE,
    OpRecord,
    pack_req_id,
)
from repro.net.records import (
    LOOSE_SEQS,
    PAGE_SEQS,
    NetOpRecord,
    RecordStore,
    RecordTable,
    clone,
    decode_complete,
    encode_complete,
    facts,
    learn,
)
from repro.net.transport import (
    MAX_FRAME_BYTES,
    FrameReader,
    encode_frame,
    pack_record,
)
from repro.ops.recovery import merge_records

SLOTS = 4  # req_id % SLOTS is the origin host


def rid(origin: int, n: int = 1) -> int:
    return n * SLOTS + origin


def blank(req_id: int, kind: int = REMOVE, cls=OpRecord) -> OpRecord:
    return cls(req_id, 0, 0, kind, None, 0.0)


def held_ids(store: RecordStore) -> set[int]:
    return {rec.req_id for rec in store.copies()}


def check_packed(store: RecordStore, req_id: int, packed: bool) -> None:
    """With ``packed``, check that the record is held packed exactly when
    it is completed: it packs where it finishes."""
    if packed:
        assert (req_id not in store.live) == store.get(req_id).completed


class Wire:
    """Hosts' record tables joined by a frame queue (no sockets).

    Replica rows wait in their table until :meth:`flush`, which
    :meth:`pump` runs before each delivery round, as a host's peer link
    runs it before each write."""

    def __init__(self, hosts=(0, 1, 2)) -> None:
        self.queue: list[tuple[int, dict]] = []
        self.down: set[int] = set()  # hosts no link leads to
        self.holder: dict[int, int] = {}  # origin -> custodian overrides
        self.done: dict[int, list[int]] = {h: [] for h in hosts}
        # host -> req ids of fact rows it got for records it did not hold
        self.unheld: dict[int, list[int]] = {h: [] for h in hosts}
        self.tables = {h: self._table(h) for h in hosts}

    def _table(self, host: int) -> RecordTable:
        table = RecordTable(host, SLOTS, self._send)
        table.holder_of = lambda origin: self.holder.get(origin, origin)
        table.on_done = lambda rec: self.done[host].append(rec.req_id)
        return table

    def _send(self, host: int, frame: dict) -> bool:
        if host in self.down:
            return False
        self.queue.append((host, dict(frame)))
        return True

    def flush(self) -> None:
        for table in self.tables.values():
            table.flush()

    def pump(self, only: str | None = None) -> int:
        """Deliver queued frames the way ``NodeHost`` dispatches them."""
        delivered = 0
        while True:
            self.flush()
            batch = [(h, f) for h, f in self.queue
                     if only is None or f["op"] == only]
            if not batch:
                return delivered
            self.queue = [hf for hf in self.queue if hf not in batch]
            for host, frame in batch:
                (frame,) = FrameReader().feed(encode_frame(frame))
                delivered += 1
                table = self.tables[host]
                if frame["op"] == "complete":
                    table.apply(frame["req"], decode_complete(frame))
                elif frame["op"] == "replica_put":
                    ack, unheld = table.put_mirror(frame)
                    self.unheld[host] += unheld
                    if ack is not None:
                        self.queue.append((frame["origin"], ack))
                else:
                    table.acked(frame["reqs"])

    def submit(self, host: int, n: int = 1, kind: int = REMOVE) -> NetOpRecord:
        rec = blank(rid(host, n), kind, NetOpRecord)
        self.tables[host].open(rec)
        return rec


# -- the one merge -------------------------------------------------------------

FACT_SETS = [
    (None, None, False, False),
    (7, None, False, False),
    (None, (3, "x"), False, False),
    (None, BOTTOM, False, True),
    (7, (3, "x"), False, True),
    (None, None, True, True),
]


class TestLearn:
    def test_fills_once_and_never_lowers(self):
        rec = blank(1)
        assert learn(rec, value=5)
        assert not learn(rec, value=9)  # the anchor assigns a value once
        assert rec.value == 5
        assert learn(rec, result=BOTTOM, completed=True)
        assert not learn(rec)  # no facts: nothing lowered
        assert facts(rec) == (5, BOTTOM, False, True)
        assert not learn(rec, result=(1, "late"), local_match=False,
                         completed=False)
        assert facts(rec) == (5, BOTTOM, False, True)

    @pytest.mark.parametrize("known", FACT_SETS)
    def test_idempotent(self, known):
        rec = blank(1)
        learn(rec, *known)
        before = facts(rec)
        assert not learn(rec, *known)
        assert facts(rec) == before

    def test_any_order_of_compatible_fact_sets_gives_the_same_record(self):
        compatible = [FACT_SETS[0], FACT_SETS[1], FACT_SETS[2], FACT_SETS[4]]
        outcomes = set()
        for order in itertools.permutations(compatible):
            rec = blank(1)
            for known in order:
                learn(rec, *known)
            outcomes.add(facts(rec))
        assert outcomes == {(7, (3, "x"), False, True)}

    def test_completed_is_assigned_last_so_the_hook_sees_every_fact(self):
        seen = []
        rec = blank(1, cls=NetOpRecord)
        rec.on_completed = lambda r: seen.append(facts(r))
        learn(rec, 7, (3, "x"), True, True)
        assert seen == [(7, (3, "x"), True, True)]

    def test_complete_frame_round_trip(self):
        for known in FACT_SETS:
            frame = encode_complete(9, known)
            assert frame["op"] == "complete" and frame["req"] == 9
            assert decode_complete(frame) == known
        # an empty fact set costs no fields
        assert encode_complete(9, FACT_SETS[0]) == {"op": "complete", "req": 9}

    def test_clone_copies_identity_and_facts_without_aliasing(self):
        rec = OpRecord(5, 3, 1, INSERT, "x", 0.25, priority=2)
        learn(rec, 4, None, False, True)
        copy = clone(rec, NetOpRecord)
        assert type(copy) is NetOpRecord and copy.on_completed is None
        assert [getattr(copy, slot) for slot in OpRecord.__slots__] == [
            getattr(rec, slot) for slot in OpRecord.__slots__]
        copy.local_match = True
        assert not rec.local_match


# -- the five paths agree ------------------------------------------------------

VALUE = (11, None, False, False)
DONE = (None, (rid(2), "e"), False, True)


def via_complete(order, packed=False):
    wire = Wire()
    table = wire.tables[0]
    req_id = wire.submit(0).req_id
    first, *rest = order
    table.apply(req_id, first)
    check_packed(table.local, req_id, packed)
    for known in rest:
        table.apply(req_id, known)
    return table.get(req_id)


def via_replica_put(order, packed=False):
    """The first mirror arrives as the record, the later ones as fact
    rows."""
    wire = Wire()
    table = wire.tables[1]
    first, *rest = order
    copy = blank(rid(0))
    learn(copy, *first)
    table.put_mirror({"records": [copy]})
    for known in rest:
        check_packed(table.replicas, rid(0), packed)
        table.put_mirror({"facts": [[rid(0), *known]]})
    return table.replicas.get(rid(0))


def via_retire_handoff(order, packed=False):
    wire = Wire()
    coordinator = wire.tables[0]
    first, *late = order
    # `complete` frames racing the retire frame, or (packed) arriving
    # after it, at the archive
    racing, after = ([], late) if packed else (late, [])
    for known in racing:
        coordinator.apply(rid(1), known)
    archived = blank(rid(1))
    learn(archived, *first)
    coordinator.archive([archived])
    check_packed(coordinator.custody, rid(1), packed)
    for known in after:
        coordinator.apply(rid(1), known)
    return coordinator.get(rid(1))


def via_rebuild_fold(order, packed=False):
    wire = Wire()
    table = wire.tables[0]
    req_id = wire.submit(0).req_id
    table.apply(req_id, order[0])
    check_packed(table.local, req_id, packed)
    merged = blank(rid(0))
    for known in order[1:]:
        learn(merged, *known)
    table.fold([merged], set(), [])
    return table.get(req_id)


def via_merge_records(order):
    dumps = []
    for known in order:
        copy = blank(rid(0))
        learn(copy, *known)
        dumps.append([copy])
    return merge_records(dumps)[rid(0)]


TABLE_PATHS = [via_complete, via_replica_put, via_retire_handoff,
               via_rebuild_fold]
PATHS = [*TABLE_PATHS, via_merge_records]
ORDERS = pytest.mark.parametrize(
    "order",
    [(VALUE, DONE), (DONE, VALUE), (DONE, VALUE, DONE)],
    ids=["value-then-completion", "completion-then-value",
         "completed-copy-meets-uncompleted"],
)


class TestFivePathsOneRecord:
    @pytest.mark.parametrize("path", PATHS, ids=lambda f: f.__name__)
    @ORDERS
    def test_same_facts_any_arrival_order(self, path, order):
        assert facts(path(order)) == (11, (rid(2), "e"), False, True)

    @pytest.mark.parametrize("path", TABLE_PATHS, ids=lambda f: f.__name__)
    @ORDERS
    def test_same_facts_with_the_record_packed_between_arrivals(self, path,
                                                                order):
        assert facts(path(order, packed=True)) == (11, (rid(2), "e"), False, True)

    def test_replica_of_a_completed_record_is_not_lowered_by_a_stale_one(self):
        table = Wire().tables[1]
        done = blank(rid(0))
        learn(done, 3, BOTTOM, False, True)
        table.put_mirror({"records": [clone(done)]})  # fresh off the wire
        assert rid(0) not in table.replicas.live  # completed: packed at once
        table.put_mirror({"records": [blank(rid(0))]})  # the submit copy
        assert rid(0) not in table.replicas.live
        assert facts(table.replicas.get(rid(0))) == (3, BOTTOM, False, True)
        assert type(table.replicas.get(rid(0))) is OpRecord


# -- stubs, wave proxies and the origin ----------------------------------------


class TestRemoteCompletion:
    def test_thousand_remote_completions_leave_nothing_behind(self):
        wire = Wire()
        recs = [wire.submit(1, n) for n in range(1, 1001)]
        wire.tables[1].targets = []  # no replicas: DONE at completion
        gc.collect()
        before = sum(type(o) is NetOpRecord for o in gc.get_objects())
        dht_host = wire.tables[0]
        for rec in recs:
            dht_host[rec.req_id].completed = True  # the DHT node's lookup
        wire.pump()
        assert all(rec.completed for rec in recs)
        assert wire.done[1] == [rec.req_id for rec in recs]
        assert not dht_host._proxies and not dht_host._parked
        gc.collect()
        after = sum(type(o) is NetOpRecord for o in gc.get_objects())
        assert after == before

    def test_each_lookup_is_a_fresh_stub_and_the_origin_is_idempotent(self):
        wire = Wire()
        rec = wire.submit(1)
        wire.tables[1].targets = []
        remote = wire.tables[0]
        assert remote[rec.req_id] is not remote[rec.req_id]
        for _ in range(2):  # two lookups, two `complete` frames
            stub = remote[rec.req_id]
            stub.result = BOTTOM
            stub.completed = True
        assert wire.pump() == 2
        assert wire.done[1] == [rec.req_id]  # one DONE
        assert facts(rec) == (None, BOTTOM, False, True)

    def test_wave_proxy_tells_the_origin_the_value_at_once(self):
        wire = Wire()
        rec = wire.submit(1, kind=INSERT)
        proxy = wire.tables[2].adopt(clone(rec))
        assert wire.tables[2][rec.req_id] is proxy  # remembered
        proxy.value = 42  # stage 3 on the adopter
        wire.pump("complete")
        assert rec.value == 42 and not rec.completed
        wire.tables[0][rec.req_id].completed = True  # the DHT node, a third host
        wire.pump("complete")
        assert facts(rec) == (42, None, False, True)

    def test_unreachable_holder_parks_the_facts_until_the_map_names_it(self):
        wire = Wire(hosts=(0, 1, 3))
        wire.down.add(3)  # joined, but the map broadcast is still in flight
        rec = wire.submit(3)
        wire.tables[0][rec.req_id].completed = True
        assert not wire.queue and rid(3) in wire.tables[0]._parked
        wire.tables[0].replay_parked()  # a map change that changes nothing
        assert rid(3) in wire.tables[0]._parked
        wire.down.clear()
        wire.tables[0].replay_parked()
        wire.pump("complete")
        assert rec.completed and not wire.tables[0]._parked


# -- replication and the DONE gate ---------------------------------------------


class TestReplicationGate:
    def test_done_waits_for_the_first_replica_ack(self):
        wire = Wire()
        wire.tables[0].set_targets([1, 2])
        rec = wire.submit(0)
        rec.value = 5  # mirrored the moment it is assigned
        assert wire.pump("replica_put") == 2  # submit + value, two targets
        assert facts(wire.tables[1].replicas.get(rec.req_id)) == (
            5, None, False, False)
        learn(rec, None, BOTTOM, False, True)
        assert wire.done[0] == [] and wire.tables[0].counts()["pending_done"] == 1
        wire.pump("replica_put")
        assert wire.done[0] == []  # put delivered, ack still in flight
        wire.pump()
        assert wire.done[0] == [rec.req_id]  # first ack releases, second is a no-op
        assert wire.tables[0].counts()["pending_done"] == 0
        assert wire.tables[2].replicas.get(rec.req_id).completed

    def test_a_replica_put_carries_the_facts_of_its_send(self):
        """Later mirrors are fact rows with the facts of their queueing:
        the first mirror is a copy of the record taken at ``open``; the
        valuation and completion mirrors are fact rows taken as they are
        queued, not at the flush that sends them."""
        wire = Wire()
        wire.tables[0].set_targets([1])
        rec = wire.submit(0)  # the submit copy: no facts yet
        rec.value = 5  # the valuation row
        learn(rec, None, BOTTOM, False, True)  # the completion row
        rec.local_match = True  # learned after both: no row carries it
        wire.flush()
        ((host, frame),) = wire.queue
        assert host == 1 and frame["op"] == "replica_put"
        (copy,) = frame["records"]
        assert type(copy) is OpRecord and facts(copy) == (None, None, False, False)
        assert frame["facts"] == [[rec.req_id, 5, None, False, False],
                                  [rec.req_id, 5, BOTTOM, False, True]]
        assert frame["acks"] == [rec.req_id]  # only the completion asks

    def test_n_submits_of_one_batch_leave_as_one_put_per_target(self):
        """The submits ``link.unfold`` makes of one ``submit_batch`` are
        opened in one read callback: their records ride one
        ``replica_put`` per target."""
        wire = Wire()
        table = wire.tables[0]
        table.set_targets([1, 2])
        batch = {"op": "submit_batch",
                 "subs": [[rid(0, n), 0, INSERT, f"e{n}", 0]
                          for n in range(1, 17)]}
        recs = []
        for sub in unfold(batch):  # one read callback: NodeHost._on_submit each
            rec = NetOpRecord(sub["req"], sub["pid"], 0, sub["kind"],
                              sub["item"], 0.0)
            table.open(rec)
            recs.append(rec)
        wire.flush()
        assert [host for host, _frame in wire.queue] == [1, 2]
        for _host, frame in wire.queue:
            assert [r.req_id for r in frame["records"]] == [
                rec.req_id for rec in recs]
            assert "facts" not in frame and "acks" not in frame
        assert wire.pump() == 2
        assert held_ids(wire.tables[2].replicas) == {rec.req_id for rec in recs}

    def test_put_and_ack_pack_by_their_schema_rows(self):
        """No key string on the wire: every key a flush or a holder
        writes is in the frame's schema row (a stray one would fall back
        to the generic map)."""
        wire = Wire()
        wire.tables[0].set_targets([1])
        rec = wire.submit(0)
        learn(rec, 3, BOTTOM, False, True)
        wire.flush()
        ((_host, put),) = wire.queue
        ack, _unheld = wire.tables[1].put_mirror(put)
        for frame in (put, ack):
            blob = encode_frame({**frame, "src": 0, "seq": 1})
            for key in (*frame, "src", "seq"):
                assert key.encode() not in blob[4:], (frame["op"], key)

    def test_rows_ride_a_frame_stamped_with_the_gen_they_were_queued_at(self):
        wire = Wire()
        table = wire.tables[0]
        gen = [4]
        table.gen = lambda: gen[0]
        table.set_targets([1])
        first = wire.submit(0, 1)
        first.value = 9
        gen[0] = 5  # a rebuild moved the generation before the flush
        second = wire.submit(0, 2)  # closes the gen-4 frame, opens another
        wire.flush()
        assert [(frame["gen"], [r.req_id for r in frame["records"]],
                 frame.get("facts"))
                for _host, frame in wire.queue] == [
            (4, [first.req_id], [[first.req_id, 9, None, False, False]]),
            (5, [second.req_id], None),
        ]

    def test_a_ten_thousand_record_resync_leaves_in_capped_frames(self):
        n = 10_000
        wire = Wire()
        table = wire.tables[0]
        for seq in range(1, n + 1):
            rec = wire.submit(0, seq, INSERT)
            rec.item = f"element-{seq}"
            learn(rec, seq, None, False, True)  # no targets: DONE at once
        table.set_targets([1])
        wire.flush()
        frames = [frame for _host, frame in wire.queue]
        assert len(frames) == -(-n // records_module.MIRROR_ROWS)
        assert all(len(frame["records"]) <= records_module.MIRROR_ROWS
                   for frame in frames)
        assert max(len(encode_frame(frame)) for frame in frames) < (
            MAX_FRAME_BYTES // 100)
        wire.pump()
        assert len(wire.tables[1].replicas) == n

    @staticmethod
    def _writable(frames: list[dict]) -> None:
        """Each frame encodes under the cap a link drops a frame over,
        and the rows did not fit one frame."""
        assert len(frames) > 1
        assert all(len(encode_frame(frame)) <= MAX_FRAME_BYTES
                   for frame in frames)

    def test_a_burst_of_large_items_leaves_in_frames_a_link_can_write(self):
        """Twenty 1 MiB inserts and twenty removes that dequeue 1 MiB,
        opened and completed in one callback: the records and the fact
        rows are split by bytes, and the holder acks every one."""
        big = "x" * (1 << 20)
        wire = Wire()
        table = wire.tables[0]
        table.set_targets([1])
        recs = []
        for seq in range(1, 41):
            kind = INSERT if seq <= 20 else REMOVE
            rec = NetOpRecord(rid(0, seq), 0, seq, kind,
                              big if kind == INSERT else None, 0.0)
            table.open(rec)
            recs.append(rec)
        for rec in recs:
            result = None if rec.kind == INSERT else (rid(0, rec.idx - 20), big)
            learn(rec, rec.idx, result, False, True)
        wire.flush()
        self._writable([frame for _host, frame in wire.queue])
        wire.pump()
        assert wire.unheld[1] == []
        assert wire.done[0] == [rec.req_id for rec in recs]

    def test_a_resync_of_large_items_leaves_in_frames_a_link_can_write(self):
        """256 gated records of 100 KiB each, resent whole to a new
        successor: capped by bytes, not only by the 256 rows, and every
        gated DONE is released by the new holder's acks."""
        mid = "y" * (100 << 10)
        wire = Wire()
        table = wire.tables[0]
        wire.down.add(1)  # host 1 never gets a frame: every DONE stays gated
        table.set_targets([1])
        recs = []
        for seq in range(1, records_module.MIRROR_ROWS + 1):
            rec = NetOpRecord(rid(0, seq), 0, seq, INSERT, mid, 0.0)
            table.open(rec)
            learn(rec, seq, None, False, True)
            recs.append(rec)
        wire.flush()
        assert wire.queue == [] and wire.done[0] == []
        table.set_targets([2])
        wire.flush()
        self._writable([frame for _host, frame in wire.queue])
        wire.pump()
        assert wire.unheld[2] == []
        assert sorted(wire.done[0]) == [rec.req_id for rec in recs]

    def test_a_fact_row_for_an_unheld_record_is_noted_and_the_rest_apply(self):
        wire = Wire()
        holder = wire.tables[1]
        held_rec = blank(rid(0, 1))
        holder.put_mirror({"records": [clone(held_rec)]})
        fresh = blank(rid(0, 2))
        frame = {"op": "replica_put", "origin": 0, "gen": 0,
                 "records": [fresh],
                 "facts": [[rid(0, 3), 7, None, False, True],
                           [rid(0, 1), 8, BOTTOM, False, True]],
                 "acks": [rid(0, 3), rid(0, 1)]}
        ack, unheld = holder.put_mirror(frame)
        assert unheld == [rid(0, 3)]
        assert rid(0, 3) not in holder.replicas
        assert facts(holder.replicas.get(rid(0, 1))) == (8, BOTTOM, False, True)
        assert rid(0, 2) in holder.replicas
        # only what is held is acknowledged
        assert ack == {"op": "replica_ack", "reqs": [rid(0, 1)]}

    def test_a_lost_record_frame_shows_as_unheld_rows_not_an_ack(self):
        wire = Wire()
        wire.tables[0].set_targets([1])
        rec = wire.submit(0)
        wire.flush()
        wire.queue.clear()  # the put with the record never arrives
        learn(rec, 3, BOTTOM, False, True)  # a valuation and a completion row
        wire.pump()
        assert wire.unheld[1] == [rec.req_id, rec.req_id]
        assert wire.done[0] == []  # not released on a replica nobody holds

    def test_done_is_released_at_once_when_no_target_is_left(self):
        wire = Wire()
        wire.tables[0].set_targets([1])
        rec = wire.submit(0)
        rec.completed = True
        assert wire.done[0] == []
        wire.tables[0].set_targets([])  # the last successor left the map
        assert wire.done[0] == [rec.req_id]
        late = wire.submit(0, 2)
        late.completed = True
        assert wire.done[0] == [rec.req_id, late.req_id]  # ungated

    def test_a_changed_target_set_is_sent_the_whole_history(self):
        wire = Wire()
        table = wire.tables[0]
        table.set_targets([1])
        done, open_ = wire.submit(0, 1), wire.submit(0, 2)
        done.completed = True
        table.archive([blank(rid(3))])
        wire.flush()
        wire.queue.clear()  # what went to host 1 never arrives
        table.set_targets([2])
        wire.pump("replica_put")
        assert held_ids(wire.tables[2].replicas) == {
            done.req_id, open_.req_id, rid(3)}
        wire.pump()  # the gated DONE rides the new target's ack
        assert wire.done[0] == [done.req_id]


# -- custody -------------------------------------------------------------------


class TestCustody:
    def test_complete_racing_a_retire_handoff_lands_on_the_archive(self):
        wire = Wire()
        coordinator = wire.tables[0]
        wire.holder[1] = 0  # host 1 retired; the map names host 0
        stub = wire.tables[2][rid(1)]
        stub.result = (rid(2), "e")
        stub.completed = True
        wire.pump("complete")  # arrives before the `retire` frame
        assert coordinator.get(rid(1)) is None
        assert coordinator.counts()["adopted_records"] == 0
        coordinator.archive([blank(rid(1))])
        assert facts(coordinator.get(rid(1))) == (None, (rid(2), "e"), False, True)
        assert not coordinator._parked
        wire.tables[2][rid(1)].completed = True  # and later ones apply directly
        wire.pump("complete")
        assert coordinator.counts()["adopted_records"] == 1

    def test_dump_serves_own_and_custody_and_replicas_on_request(self):
        table = Wire().tables[0]
        table.open(blank(rid(0), cls=NetOpRecord))
        table.archive([blank(rid(1))])
        table.put_mirror({"records": [blank(rid(2))]})
        def ids(recs):
            return sorted(rec.req_id for rec in recs)

        assert ids(table.dump()) == [rid(0), rid(1)]  # collect, retire
        assert ids(table.dump(replicas=True)) == [rid(0), rid(1), rid(2)]

    def test_dump_hands_out_copies(self):
        """A frame is encoded when its link writes: what ``dump`` hands a
        ``recover_dump``/``retire``/``records`` frame must not change
        after."""
        wire = Wire()
        table = wire.tables[0]
        live = wire.submit(0)
        table.archive([blank(rid(1))])
        dumped = table.dump()
        assert all(type(rec) is OpRecord for rec in dumped)
        assert live not in dumped and table.custody.get(rid(1)) not in dumped
        live.value = 7
        table.apply(rid(1), (8, None, False, False))
        assert [rec.value for rec in dumped] == [None, None]

    def test_rebuild_fold_fires_each_completion_once(self):
        wire = Wire()
        table = wire.tables[0]
        table.set_targets([1])
        mine = [wire.submit(0, n) for n in (1, 2, 3)]
        mine[0].completed = True  # already completed before the crash
        wire.pump()
        assert wire.done[0] == [mine[0].req_id]
        table.put_mirror({"records": [blank(rid(3, 9))]})  # pre-crash replica
        merged = []
        for rec in mine:
            copy = clone(rec)
            learn(copy, 10 + rec.req_id, BOTTOM, False, True)
            merged += [copy, clone(copy)]  # a duplicate in the merged set
        merged.append(blank(rid(2, 5)))  # evicted origin: ours from now on
        merged.append(blank(rid(1, 5)))  # live origin: not ours
        fired = []
        for rec in mine:
            hook = rec.on_completed
            rec.on_completed = lambda r, hook=hook: (fired.append(r.req_id), hook(r))
        table.reset_epoch()
        table.fold(merged, {2}, [1])
        assert fired == [mine[1].req_id, mine[2].req_id]
        # mine[0] was packed as its DONE went out: the fold taught the
        # table's copy, not the object
        assert all(facts(table.get(rec.req_id))[1:] == (BOTTOM, False, True)
                   for rec in mine)
        assert held_ids(table.custody) == {rid(2, 5)} and not table.replicas
        assert table.custody.get(rid(2, 5)) is not merged[-2]  # a copy is kept
        wire.pump()
        assert wire.done[0] == [rec.req_id for rec in mine]


    def test_a_fold_mirrors_each_record_before_the_facts_it_learns(self):
        """A rebuild's history leaves in several capped frames; the
        completions the fold learns must not ride ahead of their
        records, which the holders purged."""
        n = records_module.MIRROR_ROWS + 50
        wire = Wire()
        table = wire.tables[0]
        table.set_targets([1])
        mine = [wire.submit(0, seq) for seq in range(1, n + 1)]
        wire.pump()
        merged = []
        for rec in mine:
            copy = clone(rec)
            learn(copy, rec.req_id, BOTTOM, False, True)
            merged.append(copy)
        wire.tables[1].fold([], set(), [2])  # the holder purges first
        table.fold(merged, set(), [1])
        wire.pump()
        assert wire.unheld[1] == []
        assert wire.done[0] == [rec.req_id for rec in mine]
        assert all(wire.tables[1].replicas.get(rec.req_id).completed
                   for rec in mine)


# -- finished records are held packed -------------------------------------------


class TestPackedRecords:
    def test_a_packed_own_id_answers_an_unpacked_copy_with_no_hooks(self):
        wire = Wire()
        table = wire.tables[0]
        req_id = wire.submit(0).req_id
        table.apply(req_id, (4, BOTTOM, False, True))
        assert wire.done[0] == [req_id]
        assert req_id not in table.local.live
        first, second = table[req_id], table[req_id]
        assert type(first) is OpRecord and first is not second
        assert facts(first) == (4, BOTTOM, False, True)
        first.value = 99  # what the protocol writes on it is lost: it is done
        assert facts(table.get(req_id)) == (4, BOTTOM, False, True)
        assert table.adopt(first) is not first  # the adopter gets a copy too
        assert wire.done[0] == [req_id] and not wire.queue

    def test_an_own_record_is_packed_as_its_done_is_released(self):
        """Packed where it finishes, though the caller still holds the
        object: ``get`` answers an equal copy, and a late fact lands on
        the table's copy."""
        wire = Wire()
        table = wire.tables[0]
        table.set_targets([1])
        rec = wire.submit(0)
        learn(rec, 4, BOTTOM, False, True)
        assert rec.req_id in table.local.live  # gated on the replica ack
        wire.pump()
        assert wire.done[0] == [rec.req_id]
        assert rec.req_id not in table.local.live and len(table.local) == 1
        copy = table.get(rec.req_id)
        assert copy is not rec and slots_of(copy) == slots_of(rec)
        table.apply(rec.req_id, (None, None, True, False))
        assert table.get(rec.req_id).local_match and not rec.local_match

    def test_a_replica_completed_by_a_fact_row_is_packed_at_once(self):
        wire = Wire()
        table = wire.tables[1]
        copy = blank(rid(0))
        table.put_mirror({"records": [copy]})
        assert table.replicas.live == {rid(0): copy}
        table.put_mirror({"facts": [[rid(0), 3, BOTTOM, False, True]]})
        assert not table.replicas.live and len(table.replicas) == 1
        assert facts(table.replicas.get(rid(0))) == (3, BOTTOM, False, True)

    def test_own_records_share_their_hooks(self):
        wire = Wire()
        first, second = wire.submit(0, 1), wire.submit(0, 2)
        assert first.on_valued is second.on_valued
        assert first.on_completed is second.on_completed

    def test_uncompleted_counts_open_own_records(self):
        wire = Wire()
        table = wire.tables[0]
        table.set_targets([1])
        recs = [wire.submit(0, n) for n in (1, 2, 3)]
        assert table.uncompleted == 3
        recs[0].completed = True  # gated on the replica ack, but completed
        table.apply(recs[1].req_id, (None, BOTTOM, False, True))
        assert table.uncompleted == 1
        table.apply(recs[1].req_id, (None, BOTTOM, False, True))  # a duplicate
        merged = clone(recs[2])
        learn(merged, 7, BOTTOM, False, True)
        table.fold([merged, clone(merged)], set(), [1])
        assert table.uncompleted == 0

    def test_a_recover_dump_of_110_000_finished_records_fits_one_frame(self):
        """A host dumps the whole history it holds (own records and two
        predecessors' replicas) into one ``recover_dump``.  Records ride
        the wire packed as ``OpRecord``s, about 50 bytes each, so 110 000
        of them stay well under ``MAX_FRAME_BYTES``; a frame over it is
        dropped at every re-offer and the recovery never completes."""
        n = 110_000
        table = RecordTable(0, SLOTS, lambda host, frame: True)
        for seq in range(n):
            req_id = pack_req_id(7, seq, seq % 3, SLOTS)
            kind = INSERT if seq % 2 == 0 else REMOVE
            rec = OpRecord(req_id, seq % 8, seq // 8, kind,
                           seq if kind == INSERT else None, 1000.0 + seq / 1000)
            result = None if kind == INSERT else (req_id - SLOTS, seq - 1)
            learn(rec, seq + 1, result, False, True)
            table.put_mirror({"records": [rec]})
        last_id = rec.req_id
        frame = {"op": "recover_dump", "gen": 1, "host": 0, "epoch": 9,
                 "records": table.dump(replicas=True)}
        wire = encode_frame(frame)
        assert len(wire) < MAX_FRAME_BYTES // 2
        (decoded,) = FrameReader().feed(wire)
        assert len(decoded["records"]) == n
        (last,) = [rec for rec in decoded["records"] if rec.req_id == last_id]
        assert type(last) is OpRecord and facts(last) == (
            n, (last.req_id - SLOTS, n - 2), False, True)

    def test_ten_thousand_finished_records_take_at_most_200_bytes_each(self):
        n = 10_000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = RecordTable(0, SLOTS, lambda host, frame: True)
            for seq in range(n):
                req_id = pack_req_id(1, seq, 0, SLOTS)
                kind = INSERT if seq % 2 == 0 else REMOVE
                rec = NetOpRecord(req_id, seq % 8, seq // 8, kind,
                                  seq if kind == INSERT else None, seq / 1000)
                table.open(rec)
                result = None if kind == INSERT else (req_id - SLOTS, seq - 1)
                learn(rec, seq, result, False, True)
            del rec
            gc.collect()
            per_record = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert not table.local.live and len(table.local) == n
        assert per_record <= 200, f"{per_record:.0f} B per finished record"


# -- the packed history: pages by (origin, nonce) and seq --------------------------


def finished(req_id: int, item=None) -> OpRecord:
    rec = OpRecord(req_id, 1, 2, INSERT, item, 0.5)
    learn(rec, 3, None, False, True)
    return rec


def slots_of(rec: OpRecord) -> list:
    return [getattr(rec, slot) for slot in OpRecord.__slots__]


class TestPackedHistory:
    def test_packed_records_round_trip(self):
        store = RecordStore(SLOTS)
        recs = [finished(pack_req_id(nonce, seq, origin, SLOTS), (seq, "x"))
                for nonce in (1, 2) for origin in (0, 3) for seq in range(40)]
        for rec in recs:
            store.pack(rec)
        assert len(store) == len(recs) and not store.live
        for rec in recs:
            copy = store.get(rec.req_id)
            assert type(copy) is OpRecord and slots_of(copy) == slots_of(rec)
        # four groups, each a pad byte, and one length byte per record
        assert store.packed_bytes == 4 + sum(
            1 + len(pack_record(rec)) for rec in recs)

    @pytest.mark.parametrize("seq", [1, LOOSE_SEQS], ids=["loose", "paged"])
    def test_a_late_fact_repacks_and_a_read_returns_the_newest_facts(self, seq):
        table = Wire().tables[1]
        req_id = pack_req_id(1, seq, 0, SLOTS)
        table.put_mirror({"records": [finished(req_id)]})
        store = table.replicas
        first = pack_record(store.get(req_id))
        assert not store.live
        table.put_mirror({"facts": [[req_id, None, None, True, True]]})
        newest = store.get(req_id)
        assert facts(newest) == (3, None, True, True)
        # a page keeps the superseded entry; a loose one is let go
        paged = seq >= LOOSE_SEQS
        size = len(pack_record(newest))
        assert store.packed_bytes == (
            1 + 1 + len(first) + 1 + size if paged else size)
        table.put_mirror({"facts": [[req_id, 3, None, True, True]]})
        assert store.packed_bytes == (  # nothing new: no re-pack
            1 + 1 + len(first) + 1 + size if paged else size)
        assert len(store) == 1
        assert facts(table.dump(replicas=True)[0]) == (3, None, True, True)

    def test_len_in_get_copies_and_clear(self):
        store = RecordStore(SLOTS)
        live = finished(rid(1, 7))
        store.live[live.req_id] = live
        packed = [*(pack_req_id(0, seq, 2, SLOTS) for seq in (3, 9)),
                  pack_req_id(5, 4, 0, SLOTS),
                  pack_req_id(0, PAGE_SEQS + 1, 2, SLOTS)]
        for req_id in packed:
            store.pack(finished(req_id))
        assert len(store) == 5 and all(req_id in store for req_id in packed)
        assert store.get(live.req_id) is live
        copies = list(store.copies())
        assert sorted(rec.req_id for rec in copies) == sorted(
            [*packed, live.req_id])
        assert live not in copies  # a live record is copied too
        for absent in (pack_req_id(0, 4, 2, SLOTS),     # a hole in a page
                       pack_req_id(0, 100, 2, SLOTS),   # past its offsets
                       pack_req_id(0, 3, 1, SLOTS),     # another origin
                       pack_req_id(1, 3, 2, SLOTS)):    # another nonce
            assert absent not in store and store.get(absent) is None
        store.clear()
        assert len(store) == 0 and list(store.copies()) == []
        assert store.packed_bytes == 0

    def test_a_page_takes_in_its_loose_seqs_when_it_opens(self):
        store = RecordStore(SLOTS)
        loose = [finished(pack_req_id(2, seq, 1, SLOTS), seq)
                 for seq in (PAGE_SEQS + 2, PAGE_SEQS)]
        for rec in loose:
            store.pack(rec)
        assert store.packed_bytes == sum(len(pack_record(rec)) for rec in loose)
        opener = finished(pack_req_id(2, PAGE_SEQS + LOOSE_SEQS, 1, SLOTS))
        store.pack(opener)
        late = finished(pack_req_id(2, PAGE_SEQS + 1, 1, SLOTS))
        store.pack(late)  # its page is open: it goes in, not loose
        recs = [loose[1], late, loose[0], opener]
        assert len(store) == 4
        assert all(slots_of(store.get(rec.req_id)) == slots_of(rec)
                   for rec in recs)
        # one page: a pad byte, then a length byte and the bytes of each
        assert store.packed_bytes == 1 + sum(
            1 + len(pack_record(rec)) for rec in recs)

    def test_sparse_seqs_and_a_record_over_64_kib(self):
        store = RecordStore(SLOTS)
        seqs = [0, 5, PAGE_SEQS - 1, PAGE_SEQS, 70_000, MAX_REQ_SEQ]
        recs = [finished(pack_req_id(3, seq, 1, SLOTS),
                         "x" * 70_000 if seq == 5 else seq) for seq in seqs]
        for rec in recs:
            store.pack(rec)
        assert held_ids(store) == {rec.req_id for rec in recs}
        for rec in recs:
            assert slots_of(store.get(rec.req_id)) == slots_of(rec)
        # seq 0 rides loose until seq 5 opens its page; PAGE_SEQS rides
        # loose; three pages, each a pad byte; a u32 length for the big one
        assert store.packed_bytes == 3 + 4 + len(pack_record(recs[3])) + sum(
            1 + len(pack_record(rec)) for i, rec in enumerate(recs) if i != 3)
        big = recs[1]
        assert len(pack_record(big)) > 1 << 16
        before = store.packed_bytes
        learn(big, local_match=True)
        store.pack(big)  # a long entry appended again: u32 length and all
        assert store.packed_bytes == before + 5 + len(pack_record(big))
        assert store.get(big.req_id).local_match
        assert len(store) == len(seqs)

    def test_ten_thousand_finished_replicas_take_at_most_80_bytes_each(self):
        """Two predecessors' mirrored histories, packed: a record's bytes,
        its length byte and its offset, and little else."""
        n = 10_000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = RecordTable(0, SLOTS, lambda host, frame: True)
            for seq in range(n):
                req_id = pack_req_id(7, seq // 2, 1 + seq % 2, SLOTS)
                kind = INSERT if seq % 2 == 0 else REMOVE
                rec = OpRecord(req_id, seq % 8, seq // 8, kind,
                               seq if kind == INSERT else None, seq / 1000)
                result = None if kind == INSERT else (req_id - SLOTS, seq - 1)
                learn(rec, seq + 1, result, False, True)
                table.put_mirror({"records": [rec]})
            del rec
            gc.collect()
            per_record = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert len(table.replicas) == n and not table.replicas.live
        assert per_record <= 80, f"{per_record:.0f} B per finished record"


    @pytest.mark.parametrize("per_nonce", [1, 2, 3, 4, 8])
    def test_a_short_session_costs_no_more_than_a_dict_entry(self, per_nonce):
        """Clients that reconnect often carry a few ops per connection,
        so per (origin, nonce): its records cost at most what the same
        records cost as one dict entry of ``bytes`` each (about 147 B),
        and less once a page opens."""

        def traced(fill) -> float:
            """Bytes per record that what ``fill`` returns holds."""
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                kept = fill()
                gc.collect()
                return (tracemalloc.get_traced_memory()[0] - before) / len(kept)
            finally:
                tracemalloc.stop()

        def recs():
            # made while traced: each held id is an int of its own
            for i in range(10_000):
                req_id = pack_req_id(1 + i // per_nonce, i % per_nonce, 0,
                                     SLOTS)
                kind = INSERT if i % 2 == 0 else REMOVE
                rec = OpRecord(req_id, i % 8, i // 8, kind,
                               i if kind == INSERT else None, i / 1000)
                result = None if kind == INSERT else (req_id - SLOTS, i - 1)
                learn(rec, i + 1, result, False, True)
                yield rec

        def packed() -> RecordStore:
            store = RecordStore(SLOTS)
            for rec in recs():
                store.pack(rec)
            return store

        store_bytes = traced(packed)
        dict_bytes = traced(
            lambda: {rec.req_id: pack_record(rec) for rec in recs()})
        if per_nonce <= LOOSE_SEQS:
            assert store_bytes <= dict_bytes + 1
        else:
            assert store_bytes < dict_bytes, (store_bytes, dict_bytes)


# -- structure, pinned ----------------------------------------------------------

NET = Path(records_module.__file__).parent
FACT_NAMES = {"value", "result", "local_match", "completed"}


def _fact_writers(path: Path) -> set[str]:
    """Functions in ``path`` assigning a fact on anything but ``self``."""
    writers = set()
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                else []
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in FACT_NAMES
                    and not (isinstance(target.value, ast.Name)
                             and target.value.id == "self")
                ):
                    writers.add(f"{path.name}:{func.name}")
    return writers


class TestStructure:
    def test_one_function_merges_facts(self):
        writers = set()
        for path in sorted(NET.glob("*.py")):
            writers |= _fact_writers(path)
        # every merge into an existing record is `learn` (the codec fills
        # a fresh one in a tuple assignment)
        assert writers == {"records.py:learn"}
        # the planner in ops.recovery writes replay results onto its merged
        # copies; `merge_records` itself only clones and learns
        recovery = NET.parent / "ops" / "recovery.py"
        assert "recovery.py:merge_records" not in _fact_writers(recovery)
        assert "recovery.py:_replay" in _fact_writers(recovery)  # the walk sees it

    def test_records_module_has_no_socket_and_no_loop(self):
        imported = set()
        for node in ast.walk(ast.parse((NET / "records.py").read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert not {"asyncio", "socket", "repro.net.server"} & imported

    def test_one_record_subclass_and_no_record_state_on_the_host(self):
        subclasses = [
            f"{path.name}:{node.name}"
            for path in sorted(NET.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)
            and any(getattr(base, "id", None) == "OpRecord" for base in node.bases)
        ]
        assert subclasses == ["records.py:NetOpRecord"]
        server = (NET / "server.py").read_text()
        for name in ("replica_store", "adopted_records", "_pending_done",
                     "_orphan_completes", "dict(wire)"):
            assert name not in server
