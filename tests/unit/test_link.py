"""The link plane without a socket: ``repro.net.link`` over in-memory
streams, and the client's sessions on top of it.

``MemoryWriter`` is the write side of a stream (what it is handed goes
to a ``StreamReader`` or just piles up, its ``drain`` can be held or made
to fail), ``Dialer`` stands in for :func:`repro.net.link.dial` (it can
refuse, accept and hand out writers that reset), and ``Receiver`` is the
far end of a peer link: frames decoded per socket, ``batch`` unwrapped,
duplicates dropped by the real :class:`~repro.net.link.ResendFilter`.
"""

from __future__ import annotations

import ast
import asyncio
import time
from pathlib import Path

import pytest

import repro.net.link as link
from repro.core.requests import INSERT, REMOVE
from repro.net.client import SkueueClient, _Session
from repro.net.link import (
    FOLD_DONES,
    FOLD_PEER,
    FOLD_SUBMITS,
    Connection,
    PeerLink,
    Pipe,
    ResendFilter,
)
from repro.net.membership import ClusterMap
from repro.net.server import HostConfig, NodeHost
from repro.net.transport import (
    MAX_FRAME_BYTES,
    FrameReader,
    encode_frame,
)

# a socket (or a coroutine) a test leaves behind is a failure here
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


class MemoryWriter:
    """The write side of an in-memory stream."""

    def __init__(self, peer: asyncio.StreamReader | None = None) -> None:
        self.peer = peer  # the far end's read side, if anyone reads
        self.writes: list[bytes] = []
        self.drains = 0
        self.closed = False
        self.error: Exception | None = None  # what the next drain raises
        self.gate: asyncio.Event | None = None  # holds drain until set

    def write(self, data: bytes) -> None:
        self.writes.append(bytes(data))
        if self.peer is not None:
            self.peer.feed_data(bytes(data))

    async def drain(self) -> None:
        if self.gate is not None:
            await self.gate.wait()
        if self.error is not None:
            raise self.error
        self.drains += 1

    def close(self) -> None:
        if not self.closed and self.peer is not None:
            self.peer.feed_eof()
        self.closed = True

    def frames(self) -> list[dict]:
        return list(FrameReader().feed(b"".join(self.writes)))


class Dialer:
    """Stands in for ``link.dial``: refuses while ``refuse`` is positive,
    otherwise hands out the next prepared writer (or a fresh one)."""

    def __init__(self) -> None:
        self.refuse = 0
        self.calls = 0
        self.prepared: list[MemoryWriter] = []
        self.handed: list[MemoryWriter] = []

    async def __call__(self, address):
        self.calls += 1
        if self.refuse:
            self.refuse -= 1
            raise ConnectionRefusedError(f"refused by {address}")
        writer = self.prepared.pop(0) if self.prepared else MemoryWriter()
        self.handed.append(writer)
        return asyncio.StreamReader(), writer


class Receiver:
    """The accepting host's side of peer links, as ``NodeHost.handle_frame``
    does it: unwrap ``batch``, drop what the resend filter has seen."""

    def __init__(self) -> None:
        self.filter = ResendFilter()
        self.delivered: list[dict] = []

    def socket(self, writer: MemoryWriter) -> None:
        """Everything one socket carried arrives, in order."""
        for frame in writer.frames():
            for sub in frame["frames"] if frame["op"] == "batch" else [frame]:
                if self.filter.fresh(sub["src"], sub["seq"]):
                    self.delivered.append(sub)


@pytest.fixture()
def dialer(monkeypatch):
    dialer = Dialer()
    monkeypatch.setattr(link, "dial", dialer)
    return dialer


_real_sleep = asyncio.sleep


@pytest.fixture()
def sleeps(monkeypatch):
    """The link's backoff sleeps take no time and are written down."""
    taken: list[float] = []

    async def sleep(delay, result=None):
        taken.append(delay)
        await _real_sleep(0)

    monkeypatch.setattr(link.asyncio, "sleep", sleep)
    return taken


async def settle(rounds: int = 20) -> None:
    for _ in range(rounds):
        await _real_sleep(0)


def make_pipe(fold, cap=None, notes=None):
    class Folding(Pipe):
        FOLD = fold
        MAX_BATCH = cap

    return Folding(on_error=None if notes is None else
                   lambda where, detail: notes.append((where, detail)))


def decode(blob: bytes) -> list[dict]:
    return list(FrameReader().feed(blob))


def done(req: int) -> dict:
    return {"op": "done", "req": req, "kind": INSERT, "result": None}


def submit(req: int, **extra) -> dict:
    return {"op": "submit", "req": req, "pid": req % 4, "kind": INSERT,
            "item": req, **extra}


def hot(seq: int) -> dict:
    return {"op": "complete", "req": seq, "src": 0, "seq": seq, "value": seq}


# -- the fold ------------------------------------------------------------------------


class TestFold:
    def test_adjacent_dones_merge_in_order(self):
        (wrapper,) = decode(make_pipe(FOLD_DONES).encode(
            [done(1), done(2), done(3)]))
        assert wrapper == {"op": "done_batch",
                           "dones": [[1, INSERT, None], [2, INSERT, None],
                                     [3, INSERT, None]]}

    def test_a_non_member_breaks_the_run_and_keeps_its_place(self):
        other = {"op": "host_map", "map": {"version": 2}}
        out = decode(make_pipe(FOLD_DONES).encode(
            [done(1), done(2), other, done(3)]))
        assert out[0] == {"op": "done_batch",
                          "dones": [[1, INSERT, None], [2, INSERT, None]]}
        assert out[1] == other      # ordering across the boundary
        assert out[2] == done(3)    # a lone member ships raw

    def test_no_members_pass_through_untouched(self):
        frames = [{"op": "error", "message": "x"}, {"op": "pong", "host": 0}]
        assert decode(make_pipe(FOLD_DONES).encode(frames)) == frames

    def test_nothing_in_nothing_out(self):
        for fold in (FOLD_DONES, FOLD_SUBMITS, FOLD_PEER):
            assert make_pipe(fold).encode([]) == b""

    def test_submits_fold_to_rows_and_a_traced_one_stays_standalone(self):
        frames = [submit(1), submit(2, pri=2), submit(3, tr=3), submit(4)]
        out = decode(make_pipe(FOLD_SUBMITS).encode(frames))
        assert out == [
            {"op": "submit_batch",
             "subs": [[1, 1, INSERT, 1, 0], [2, 2, INSERT, 2, 2]]},
            submit(3, tr=3),
            submit(4),
        ]

    def test_a_lone_peer_frame_ships_raw_not_wrapped(self):
        assert decode(make_pipe(FOLD_PEER).encode([hot(1)])) == [hot(1)]

    def test_a_run_of_peer_frames_rides_one_batch_wrapper(self):
        frames = [hot(i) for i in range(5)]
        (wrapper,) = decode(make_pipe(FOLD_PEER).encode(frames))
        assert wrapper == {"op": "batch", "frames": frames}

    def test_bulk_frames_break_the_run_and_ride_json(self):
        pipe = make_pipe(FOLD_PEER)
        bulk = {"op": "retire", "host": 2, "records": [], "forwards": {}}
        blob = pipe.encode([hot(1), hot(2), bulk, hot(3)])
        out = decode(blob)
        assert [f["op"] for f in out] == ["batch", "retire", "complete"]
        assert out[0]["frames"] == [hot(1), hot(2)] and out[2] == hot(3)
        # the codec tag is the first byte of each frame's header
        assert blob[0] == 0x01
        assert blob[len(pipe.encode([hot(1), hot(2)]))] == 0x00

    @pytest.mark.parametrize("fold, make", [
        (FOLD_PEER, lambda i, big: {"op": "msg", "dest": i, "action": 1,
                                    "payload": big}),
        (FOLD_DONES, lambda i, big: {"op": "done", "req": i, "kind": REMOVE,
                                     "result": big}),
    ])
    def test_oversized_wrapper_falls_back_to_single_frames(self, fold, make):
        big = "x" * (MAX_FRAME_BYTES // 2 - 1024)
        frames = [make(i, big) for i in range(3)]
        notes = []
        out = decode(make_pipe(fold, notes=notes).encode(frames))
        assert out == frames and not notes  # nothing wrapped, nothing dropped

    def test_one_unencodable_frame_is_dropped_and_the_rest_written(self):
        notes = []
        pipe = make_pipe(FOLD_DONES, notes=notes)
        poisoned = {"op": "done", "req": 2, "kind": INSERT, "result": object()}
        out = decode(pipe.encode(
            [done(1), poisoned, done(3), {"op": "pong", "host": 0}]))
        assert out == [done(1), done(3), {"op": "pong", "host": 0}]
        assert [where for where, _detail in notes] == ["write"]


# -- the pipe: one write loop --------------------------------------------------------


def joined(notes=None):
    """Two connections joined by in-memory streams; returns them with
    their writers and what each side received."""
    got_a, got_b, lost = [], [], []
    reader_a, reader_b = asyncio.StreamReader(), asyncio.StreamReader()
    writer_a, writer_b = MemoryWriter(reader_b), MemoryWriter(reader_a)
    note = None if notes is None else (lambda *entry: notes.append(entry))
    a = Connection(lambda conn, frame: got_a.append(frame), lost.append,
                   on_error=note)
    b = Connection(lambda conn, frame: got_b.append(frame), lost.append,
                   on_error=note)
    a.start(reader_a, writer_a)
    b.start(reader_b, writer_b)
    return a, b, writer_a, writer_b, got_a, got_b, lost


class TestPipe:
    def test_one_tick_is_one_write_one_drain_in_order(self):
        async def scenario():
            a, b, writer_a, _wb, _ga, got_b, _lost = joined()
            counted = []
            a.on_write = lambda frames, nbytes: counted.append((frames, nbytes))
            sent = [done(1), done(2), {"op": "pong", "host": 0}, done(3)]
            for frame in sent:
                a.send(frame)
            await a.flushed()
            first = (len(writer_a.writes), writer_a.drains)
            a.send(done(4))
            a.send(done(5))
            await a.flushed()
            await settle()
            a.close()
            b.close()
            return first, writer_a, counted, got_b

        first, writer, counted, got_b = asyncio.run(scenario())
        assert first == (1, 1)
        assert (len(writer.writes), writer.drains) == (2, 2)
        # the owner is told frames as sent, not as folded, and the bytes
        assert counted == [(4, len(writer.writes[0])),
                           (2, len(writer.writes[1]))]
        # FIFO within a write and across the two
        reqs = [row[0] if isinstance(row, list) else row
                for frame in got_b
                for row in (frame["dones"] if frame["op"] == "done_batch"
                            else [frame.get("req", "pong")])]
        assert reqs == [1, 2, "pong", 3, 4, 5]

    def test_the_cap_bounds_one_write_not_the_order(self):
        async def scenario():
            pipe = make_pipe(FOLD_PEER, cap=4)
            writer = MemoryWriter()
            for seq in range(10):
                pipe.send(hot(seq))
            for _ in range(3):
                await pipe._flush(writer)
            return writer, len(pipe.outbox)

        writer, left = asyncio.run(scenario())
        assert [len(f.get("frames", [f])) for f in writer.frames()] == [4, 4, 2]
        assert left == 0
        assert [s["seq"] for f in writer.frames() for s in f["frames"]] == \
            list(range(10))

    def test_flushed_resolves_only_after_the_drain(self):
        async def scenario():
            a, b, writer_a, *_ = joined()
            writer_a.gate = asyncio.Event()
            a.send(done(1))
            waiting = asyncio.ensure_future(a.flushed())
            await settle()
            written_but_held = (len(writer_a.writes), waiting.done(),
                                len(a.outbox))
            writer_a.gate.set()
            await asyncio.wait_for(waiting, 1.0)
            idle = await asyncio.wait_for(a.flushed(), 1.0)  # nothing queued
            a.close()
            b.close()
            return written_but_held, len(a.outbox), idle

        held, left, idle = asyncio.run(scenario())
        assert held == (1, False, 1)  # on the wire, not yet acknowledged
        assert left == 0 and idle is None

    def test_a_write_error_ends_the_connection_and_later_sends_drop(self):
        async def scenario():
            a, b, writer_a, _wb, _ga, _gb, lost = joined()
            writer_a.error = ConnectionResetError("reset by peer")
            a.send(done(1))
            with pytest.raises(ConnectionError):
                await a.flushed()
            await settle()
            a.send(done(2))  # nobody reads the outbox any more
            with pytest.raises(ConnectionError):
                await a.flushed()
            b.close()
            return a, writer_a, lost

        a, writer, lost = asyncio.run(scenario())
        assert lost[0] is a and a.closed and writer.closed
        assert not a.outbox and all(task.done() for task in a.tasks)

    def test_eof_ends_both_sides_once_and_close_does_not_call_back(self):
        async def scenario():
            a, b, writer_a, writer_b, _ga, _gb, lost = joined()
            a.close()  # explicit: no callback; b reads EOF: one callback
            await settle()
            return a, b, writer_a, writer_b, lost

        a, b, writer_a, writer_b, lost = asyncio.run(scenario())
        assert lost == [b]
        assert a.closed and b.closed and writer_a.closed and writer_b.closed

    def test_garbage_behind_a_valid_header_drops_that_frame_only(self):
        async def scenario():
            notes = []
            a, b, _wa, _wb, got_a, _gb, lost = joined(notes)
            reader = asyncio.StreamReader()
            a.close()
            a = Connection(lambda conn, frame: got_a.append(frame),
                           lost.append,
                           on_error=lambda *entry: notes.append(entry))
            a.start(reader, MemoryWriter())
            good = encode_frame({"op": "ping"})
            poisoned = good[:4] + b"\xff" * (len(good) - 4)
            reader.feed_data(good + poisoned + good)
            await settle()
            alive = not a.closed
            a.close()
            b.close()
            return got_a, notes, alive

        got, notes, alive = asyncio.run(scenario())
        assert got == [{"op": "ping"}, {"op": "ping"}] and alive
        assert [where for where, _detail in notes] == ["read"]

    def test_an_unframeable_stream_is_noted_and_lost(self):
        async def scenario():
            notes = []
            a, b, _wa, writer_b, _ga, _gb, lost = joined(notes)
            writer_b.write(b"\x7f\x00\x00\x01x")  # no such codec tag
            await settle()
            return a, b, lost, notes

        a, b, lost, notes = asyncio.run(scenario())
        assert lost == [a, b] and a.closed  # b then read a's EOF
        assert notes[0][0] == "connection" and "codec tag" in notes[0][1]


# -- the peer link -------------------------------------------------------------------


class TestPeerLink:
    def test_a_link_never_mutates_the_frame_it_is_handed(self):
        a = PeerLink(("127.0.0.1", 1), 7)
        b = PeerLink(("127.0.0.1", 1), 7)
        frame = {"op": "replica_put", "origin": 7, "ack": False, "record": {}}
        a.send(frame)
        a.send(frame)
        b.send(frame)
        assert frame == {"op": "replica_put", "origin": 7, "ack": False,
                         "record": {}}
        assert [f["seq"] for f in a.drain_pending()] == [1, 2]
        (only,) = b.drain_pending()
        assert only["seq"] == 1 and only["src"] == 7

    def test_frames_sent_before_the_dial_completes_go_out_in_order(
            self, dialer):
        async def scenario():
            peer = PeerLink(("10.0.0.1", 9), 3)
            peer.send({"op": "heartbeat", "host": 3})
            peer.start()
            peer.send({"op": "heartbeat", "host": 3})
            await settle()
            peer.send({"op": "heartbeat", "host": 3})
            await settle()
            peer.close()
            return peer

        peer = asyncio.run(scenario())
        receiver = Receiver()
        receiver.socket(dialer.handed[0])
        assert [f["seq"] for f in receiver.delivered] == [1, 2, 3]
        assert peer.idle and peer.stats()["queued"] == 0

    def test_a_reset_mid_write_redials_resends_and_dedup_delivers_once(
            self, dialer, sleeps):
        async def scenario():
            first = MemoryWriter()
            first.gate = asyncio.Event()
            dialer.prepared.append(first)
            dialer.refuse = 0
            peer = PeerLink(("10.0.0.1", 9), 3)
            peer.start()
            for _ in range(3):
                peer.send({"op": "msg", "dest": 1, "action": 2, "payload": 0})
            await settle()                       # 1..3 written, drain held
            peer.send({"op": "msg", "dest": 1, "action": 2, "payload": 0})
            in_flight = peer.stats()["queued"]
            first.error = ConnectionResetError("reset mid-write")
            dialer.refuse = 2                    # the peer is briefly away
            first.gate.set()
            await settle(60)
            peer.close()
            return peer, first, in_flight

        peer, first, in_flight = asyncio.run(scenario())
        assert in_flight == 4  # written-not-drained frames still count
        assert dialer.calls == 4 and len(dialer.handed) == 2
        assert first.closed  # the redial closed the socket it abandoned
        # jittered exponential backoff: 0.05 then 0.1, each x [0.5, 1.5)
        assert len(sleeps) == 2
        assert 0.025 <= sleeps[0] < 0.075 and 0.05 <= sleeps[1] < 0.15
        # the new socket's head arrives first, the old socket's tail
        # (frames the peer's kernel had taken after all) late
        receiver = Receiver()
        receiver.socket(dialer.handed[1])
        receiver.socket(first)
        assert [f["seq"] for f in receiver.delivered] == [1, 2, 3, 4]
        # and the other way round: old socket complete, then the resend
        receiver = Receiver()
        receiver.socket(first)
        receiver.socket(dialer.handed[1])
        assert [f["seq"] for f in receiver.delivered] == [1, 2, 3, 4]
        assert peer.stats()["last_error"] is None  # the redial succeeded

    def test_max_attempts_parks_the_link_and_the_next_send_rearms_it(
            self, dialer, sleeps):
        async def scenario():
            dialer.refuse = 10 ** 6
            peer = PeerLink(("10.0.0.1", 9), 3)
            peer.start()
            peer.send({"op": "heartbeat", "host": 3})
            await settle(4 * PeerLink.MAX_ATTEMPTS)
            parked = dict(peer.stats()), dialer.calls
            dialer.refuse = 0  # the peer is back
            peer.send({"op": "heartbeat", "host": 3})
            await settle()
            stats = peer.stats()
            peer.close()
            return parked, stats

        (parked, calls), stats = asyncio.run(scenario())
        assert parked["gave_up"] and parked["attempts"] == PeerLink.MAX_ATTEMPTS
        assert calls == PeerLink.MAX_ATTEMPTS and parked["queued"] == 1
        assert "refused" in parked["last_error"]
        assert max(sleeps) < 1.5  # the backoff is capped at 1 s (x jitter)
        assert stats == {"address": ["10.0.0.1", 9], "attempts": 0,
                         "last_error": None, "gave_up": False, "queued": 0}
        receiver = Receiver()
        receiver.socket(dialer.handed[0])
        assert [f["seq"] for f in receiver.delivered] == [1, 2]

    def test_drain_pending_returns_in_flight_then_queued_in_order(
            self, dialer):
        async def scenario():
            held = MemoryWriter()
            held.gate = asyncio.Event()
            dialer.prepared.append(held)
            peer = PeerLink(("10.0.0.1", 9), 3)
            peer.start()
            peer.send({"op": "complete", "req": 1})
            peer.send({"op": "complete", "req": 2})
            await settle()  # both written, the drain is held
            peer.send({"op": "complete", "req": 3})
            pending = peer.drain_pending()
            peer.close()
            peer.send({"op": "complete", "req": 4})  # dropped: link is gone
            await settle()
            return pending, peer, held

        pending, peer, held = asyncio.run(scenario())
        assert [(f["req"], f["seq"]) for f in pending] == [(1, 1), (2, 2), (3, 3)]
        assert peer.idle and held.closed

    def test_closing_a_link_closes_every_socket_it_was_handed(
            self, dialer, sleeps):
        async def scenario():
            links = [PeerLink(("10.0.0.1", port), 0) for port in range(20)]
            for peer in links:
                peer.start()
                peer.send({"op": "heartbeat", "host": 0})
            await settle()
            for writer in dialer.handed[::2]:  # every other peer resets
                writer.error = ConnectionResetError("reset")
            for peer in links:
                peer.send({"op": "heartbeat", "host": 0})
            await settle()
            for peer in links:
                peer.close()
            await settle()
            return links

        links = asyncio.run(scenario())
        assert len(dialer.handed) == 30  # 20 dials + 10 redials
        assert all(writer.closed for writer in dialer.handed)
        assert all(task.done() for peer in links for task in peer.tasks)


class TestResendFilter:
    def test_a_sliding_set_not_a_high_water_mark(self):
        seen = ResendFilter()
        assert seen.fresh(1, 5) and seen.fresh(1, 3)  # a late tail is new
        assert not seen.fresh(1, 5) and not seen.fresh(1, 3)
        assert seen.fresh(2, 5)  # per source

    def test_the_window_slides_and_a_source_can_be_forgotten(self):
        seen = ResendFilter()
        for seq in range(ResendFilter.WINDOW + 1):
            assert seen.fresh(1, seq)
        assert len(seen.seen[1][0]) == ResendFilter.WINDOW
        assert seen.fresh(1, 0) and not seen.fresh(1, ResendFilter.WINDOW)
        seen.forget(1)
        assert 1 not in seen.seen and seen.fresh(1, ResendFilter.WINDOW)


# -- the host's side -----------------------------------------------------------------


class TestHostConnections:
    def test_a_lost_connection_is_forgotten_with_its_outstanding_requests(self):
        async def scenario():
            host = NodeHost(HostConfig(host_index=0, n_hosts=1, n_processes=2))
            host.wire_genesis(ClusterMap.genesis({0: ("127.0.0.1", 1)}, 2))
            reader, writer = asyncio.StreamReader(), MemoryWriter()
            await host._accept(reader, writer)
            (conn,) = host.connections
            reader.feed_data(encode_frame({"op": "hello"}))
            await settle()
            for req in (8, 16):
                reader.feed_data(encode_frame(
                    {"op": "submit", "req": req, "pid": 0, "kind": INSERT,
                     "item": req}))
            await settle()
            outstanding = dict(host._submitters)
            writer.error = BrokenPipeError("client hung up")
            conn.send({"op": "pong", "host": 0})
            await settle()
            conn.send({"op": "done", "req": 8, "kind": INSERT, "result": None})
            state = (set(host.connections), set(host.clients),
                     dict(host._submitters), len(conn.outbox))
            await asyncio.sleep(0.1)  # the wave completes both requests
            done = all(rec.completed for rec in host.records.local.values())
            await host._async_stop()
            return conn, outstanding, state, done, writer, host.errors

        conn, outstanding, state, done, writer, errors = asyncio.run(scenario())
        assert outstanding == {8: conn, 16: conn}
        assert state == (set(), set(), {}, 0)
        assert done and conn.closed and writer.closed and not errors
        assert [f["op"] for f in writer.frames()] == ["welcome", "pong"]

    def test_a_hello_is_answered_in_binary_and_names_no_codec(self):
        async def scenario():
            host = NodeHost(HostConfig(host_index=0, n_hosts=1, n_processes=2))
            host.wire_genesis(ClusterMap.genesis({0: ("127.0.0.1", 1)}, 2))
            reader, writer = asyncio.StreamReader(), MemoryWriter()
            await host._accept(reader, writer)
            reader.feed_data(encode_frame({"op": "hello"}))
            await settle()
            await host._async_stop()
            return writer

        writer = asyncio.run(scenario())
        welcome = writer.frames()[0]
        assert welcome["op"] == "welcome" and welcome["nonce"] == 1
        assert "codec" not in welcome
        assert writer.writes[0][0] == 0x01  # the binary tag


# -- the client's sessions -----------------------------------------------------------


@pytest.fixture()
def client():
    """A client with one greeted session over an in-memory stream."""
    client = SkueueClient({0: ("127.0.0.1", 1)})
    client.host_for = lambda pid: 0
    return client


def greeted(client: SkueueClient) -> tuple[_Session, asyncio.StreamReader,
                                           MemoryWriter]:
    reader, writer = asyncio.StreamReader(), MemoryWriter()
    session = client._sessions[0] = _Session(
        0, client._on_frame, client._on_lost, client._note_error)
    session.start(reader, writer)
    session.nonce = 1
    return session, reader, writer


def metrics_reply(n: int) -> bytes:
    return encode_frame({"op": "metrics", "host": 0, "summary": {"n": n},
                         "phases": {}, "registry": {}})


class TestClientSessions:
    def test_one_tick_of_submits_is_one_frame_in_order(self, client):
        async def run():
            _session, _reader, writer = greeted(client)
            req_ids = await asyncio.gather(*[
                client._submit(pid, INSERT, ("item", pid)) for pid in range(6)
            ])
            await client.close()
            return req_ids, writer

        req_ids, writer = asyncio.run(run())
        (frame,) = writer.frames()
        assert frame["op"] == "submit_batch"
        # within the batch: exactly the per-client submission order
        assert [sub[0] for sub in frame["subs"]] == req_ids
        assert [sub[3] for sub in frame["subs"]] == [
            ("item", pid) for pid in range(6)
        ]
        assert len(writer.writes) == 1 and writer.drains == 1

    def test_enqueue_returns_once_its_frame_was_drained(self, client):
        async def run():
            _session, _reader, writer = greeted(client)
            writer.gate = asyncio.Event()
            submitting = asyncio.ensure_future(client.enqueue(0, "x"))
            await settle()
            held = (len(writer.writes), submitting.done())
            writer.gate.set()
            await asyncio.wait_for(submitting, 1.0)
            await client.close()
            return held

        assert asyncio.run(run()) == (1, False)

    def test_partial_flush_never_reorders(self, client):
        async def run():
            session, _reader, writer = greeted(client)
            first = [client._queue_submit(session, pid, INSERT, pid)
                     for pid in range(3)]
            await settle()  # the pipe wrote: a partial flush
            second = [client._queue_submit(session, pid, REMOVE, None)
                      for pid in range(2)]
            await session.flushed()
            await client.close()
            return first + second, writer

        req_ids, writer = asyncio.run(run())
        frames = writer.frames()
        assert [f["op"] for f in frames] == ["submit_batch", "submit_batch"]
        flushed = [sub[0] for f in frames for sub in f["subs"]]
        assert flushed == req_ids  # FIFO across the flush boundary too

    def test_submit_many_is_one_write_however_long(self, client):
        async def run():
            _session, _reader, writer = greeted(client)
            req_ids = await client.submit_many(
                [(pid % 4, INSERT, pid) for pid in range(600)])
            await client.close()
            return req_ids, writer

        req_ids, writer = asyncio.run(run())
        (frame,) = writer.frames()
        assert [sub[0] for sub in frame["subs"]] == req_ids
        assert len(writer.writes) == 1 and writer.drains == 1

    def test_single_staged_submit_flushes_as_plain_submit(self, client):
        async def run():
            _session, _reader, writer = greeted(client)
            req_id = await client._submit(0, INSERT, "only")
            await client.close()
            return req_id, writer

        req_id, writer = asyncio.run(run())
        assert writer.frames() == [
            {"op": "submit", "req": req_id, "pid": 0, "kind": INSERT,
             "item": "only"}]

    def test_a_traced_submit_keeps_its_place_and_its_tag(self, client):
        async def run():
            session, _reader, writer = greeted(client)
            client.trace_sample = 1.0
            traced = client._queue_submit(session, 0, INSERT, "t")
            client.trace_sample = 0.0
            plain = [client._queue_submit(session, 0, INSERT, i)
                     for i in range(2)]
            await session.flushed()
            await client.close()
            return traced, plain, writer

        traced, plain, writer = asyncio.run(run())
        first, second = writer.frames()
        assert first["op"] == "submit" and first["tr"] == first["req"] == traced
        assert [sub[0] for sub in second["subs"]] == plain
        assert len(writer.writes) == 1  # still one buffered write

    def test_nothing_staged_writes_nothing(self, client):
        async def run():
            session, _reader, writer = greeted(client)
            await session.flushed()
            await client.wait_all(timeout=1.0)
            await settle()
            await client.close()
            return writer

        writer = asyncio.run(run())
        assert writer.writes == [] and writer.drains == 0

    def test_submits_staged_for_an_ended_session_are_dropped_not_written(
            self, client):
        # the lost-host path resubmits pending requests; writing the
        # stale outbox as well would submit them twice
        async def run():
            session, _reader, writer = greeted(client)
            client._queue_submit(session, 0, INSERT, "staged")
            client._end_session(session)
            await settle()
            with pytest.raises(ConnectionError):
                client._queue_submit(session, 0, INSERT, "late")
            return session, writer

        session, writer = asyncio.run(run())
        assert writer.writes == [] and writer.closed
        assert not session.outbox and client._sessions == {}

    def test_two_overlapping_queries_each_get_their_own_reply(self, client):
        async def run():
            _session, reader, writer = greeted(client)
            first = asyncio.ensure_future(client.host_telemetry(timeout=1.0))
            await asyncio.sleep(0)  # first has sent and is waiting
            second = asyncio.ensure_future(client.host_telemetry(timeout=1.0))
            await asyncio.sleep(0)
            reader.feed_data(metrics_reply(1) + metrics_reply(2))
            answers = await asyncio.gather(first, second)
            await client.close()
            return answers, writer

        (first, second), writer = asyncio.run(run())
        assert [f["op"] for f in writer.frames()] == ["metrics", "metrics"]
        assert first[0]["summary"] == {"n": 1}  # oldest waiter, first reply
        assert second[0]["summary"] == {"n": 2}

    @pytest.mark.parametrize("how", ["drop", "eof", "close"])
    def test_an_ended_session_fails_its_queued_queries_at_once(
            self, client, how):
        async def run():
            session, reader, _writer = greeted(client)
            query = asyncio.ensure_future(client.host_telemetry(timeout=5.0))
            await settle()
            started = time.monotonic()
            if how == "drop":
                client._end_session(session)
            elif how == "eof":
                client._closed = True  # no resubmission: nothing to dial
                reader.feed_eof()
            else:
                await client.close()  # from another task than the query's
            with pytest.raises(ConnectionError):
                await query
            return time.monotonic() - started, session

        waited, session = asyncio.run(run())
        assert waited < 0.1  # not the query's 5 s timeout
        assert session.closed and client._sessions == {}

    def test_a_handshake_in_flight_fails_at_once_on_close(
            self, client, dialer):
        async def run():
            greeting = asyncio.ensure_future(client._ensure_host(0))
            second = asyncio.ensure_future(client._ensure_host(0))
            await settle()  # hello written, no welcome coming
            started = time.monotonic()
            await client.close()
            results = await asyncio.gather(greeting, second,
                                           return_exceptions=True)
            return time.monotonic() - started, results

        waited, results = asyncio.run(run())
        assert waited < 0.1 and dialer.calls == 1  # one dial, shared fate
        assert all(isinstance(r, ConnectionError) for r in results)
        assert [f["op"] for f in dialer.handed[0].frames()] == ["hello"]
        assert dialer.handed[0].closed

    def test_a_hello_answered_by_an_error_fails_at_once_with_the_reason(
            self, client, monkeypatch):
        # an unwired host answers the hello with `error`: the handshake
        # fails on that answer, not on the hello's 15 s patience
        async def dial(address):
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame(
                {"op": "error", "message": "host not wired yet"}))
            return reader, MemoryWriter()

        monkeypatch.setattr(link, "dial", dial)

        async def run():
            started = time.monotonic()
            with pytest.raises(ConnectionError) as refused:
                await client.connect(timeout=2.0)
            return time.monotonic() - started, refused.value

        waited, refused = asyncio.run(run())
        assert waited < 0.5
        assert "not wired" in str(refused)
        assert client._sessions == {} and client.errors == []

    def test_a_lost_session_resubmits_what_was_in_limbo(self, client, dialer):
        async def run():
            client.cluster = ClusterMap.genesis({0: ("127.0.0.1", 1)}, 2)
            client.id_slots = client.cluster.id_slots
            session, reader, _writer = greeted(client)
            limbo = await client.enqueue(0, "in limbo")
            reader.feed_eof()  # the host retired: our submit went nowhere
            await settle()
            fresh = client._sessions[0]  # redialled at the application level
            fresh.on_frame(fresh, {
                "op": "welcome", "host": 0, "nonce": 9, "map": None})
            await settle()
            (hello, resubmit) = dialer.handed[0].frames()
            fresh.on_frame(fresh, {"op": "done", "req": resubmit["req"],
                                   "kind": INSERT, "result": None})
            result = await client.wait(limbo, timeout=1.0)
            await client.close()
            return session, fresh, hello, resubmit, result

        session, fresh, hello, resubmit, result = asyncio.run(run())
        assert session.closed and fresh is not session
        assert hello["op"] == "hello" and resubmit["op"] == "submit"
        assert resubmit["item"] == "in limbo"
        assert result is True and client.rejected_resubmits == 1


# -- structure, pinned ---------------------------------------------------------------

NET = Path(link.__file__).parent


def _tree(name: str) -> ast.Module:
    return ast.parse((NET / name).read_text())


def _functions_calling(tree: ast.Module, wanted) -> set[str]:
    """Names of the functions whose body holds a call ``wanted`` accepts."""
    return {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and wanted(node.func)
    }


class TestStructure:
    def test_the_link_module_knows_no_host_client_or_record(self):
        imported = set()
        for node in ast.walk(_tree("link.py")):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert {name for name in imported if name.startswith("repro")} == {
            "repro.net.transport"}

    def test_sockets_are_dialled_and_drained_in_one_place(self):
        def dials(func):
            return isinstance(func, ast.Attribute) and \
                func.attr == "open_connection"

        def drains(func):
            return isinstance(func, ast.Attribute) and func.attr == "drain"

        sites = set()
        for path in sorted(NET.glob("*.py")):
            tree = ast.parse(path.read_text())
            for kind, wanted in (("dial", dials), ("drain", drains)):
                sites |= {(path.name, name, kind)
                          for name in _functions_calling(tree, wanted)}
        assert sites == {
            ("link.py", "dial", "dial"),
            ("link.py", "_flush", "drain"),
            ("transport.py", "request_async", "dial"),
            ("transport.py", "request_async", "drain"),
        }

    def test_the_server_module_defines_the_host_and_its_config_only(self):
        classes = {node.name for node in ast.walk(_tree("server.py"))
                   if isinstance(node, ast.ClassDef)}
        assert classes == {"HostConfig", "NodeHost"}
        source = (NET / "server.py").read_text()
        for gone in ("_Connection", "_PeerLink", "_peer_seen"):
            assert gone not in source

    def test_one_write_loop_one_fold_one_header_check(self):
        everything = "".join(path.read_text() for path in NET.glob("*.py"))
        for gone in ("coalesce_frames", "encode_batch", "_flush_later",
                     "_flush_submits", "_drain_submits", "write_frame"):
            assert gone not in everything
        assert (NET / "transport.py").read_text().count("unknown codec tag") == 1

    def test_the_client_keeps_one_table_and_one_teardown(self):
        source = (NET / "client.py").read_text()
        for gone in ("_send_codecs", "_offered", "_submit_buf", "_flush_tasks",
                     "_writers", "_readers", "_counters", "_nonces",
                     "_welcome_futures", "_host_locks", "_reply_waiters"):
            assert gone not in source

        def closes_something_else(func):
            return (isinstance(func, ast.Attribute) and func.attr == "close"
                    and not (isinstance(func.value, ast.Name)
                             and func.value.id == "self"))

        assert _functions_calling(_tree("client.py"), closes_something_else) \
            == {"_end_session"}
