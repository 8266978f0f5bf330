"""Unit tests for wave coalescing: flush boundaries must never reorder.

Three coalescing sites exist (client submit buffer, server connection
outbox, peer links); each promises FIFO within and across flushes.
These tests pin the promises without sockets: frames are captured from
fake writers and decoded with :class:`FrameReader`.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.requests import INSERT, REMOVE
from repro.net.client import SkueueClient
from repro.net.server import _PeerLink, coalesce_frames
from repro.net.transport import (
    CODEC_BINARY,
    CODEC_JSON,
    MAX_FRAME_BYTES,
    FrameReader,
    decode_payload,
    encode_frame,
)


def _done(req: int) -> dict:
    return {"op": "done", "req": req, "kind": INSERT, "result": None}


class TestCoalesceFrames:
    def test_adjacent_dones_merge_in_order(self):
        out = coalesce_frames([_done(1), _done(2), _done(3)])
        assert out == [{"op": "done_batch",
                        "dones": [[1, INSERT, None], [2, INSERT, None],
                                  [3, INSERT, None]]}]

    def test_interleaved_frames_break_the_run_and_keep_their_place(self):
        other = {"op": "host_map", "map": {"version": 2}}
        out = coalesce_frames([_done(1), _done(2), other, _done(3)])
        assert out[0]["op"] == "done_batch"
        assert out[0]["dones"] == [[1, INSERT, None], [2, INSERT, None]]
        assert out[1] is other          # ordering across the boundary
        assert out[2] == _done(3)       # a lone done stays a plain done

    def test_no_dones_passes_through_untouched(self):
        frames = [{"op": "error", "message": "x"}, {"op": "pong", "host": 0}]
        assert coalesce_frames(list(frames)) == frames

    def test_empty_input_emits_nothing(self):
        assert coalesce_frames([]) == []


class TestPeerLinkEncodeBatch:
    def _decode(self, blob: bytes) -> list[dict]:
        return list(FrameReader().feed(blob))

    def _hot(self, seq: int) -> dict:
        return {"op": "complete", "req": seq, "src": 0, "seq": seq,
                "value": seq}

    def test_single_frame_ships_raw_not_wrapped(self):
        link = _PeerLink(("127.0.0.1", 1), 0, codec=CODEC_BINARY)
        assert self._decode(link.encode_batch([self._hot(1)])) == [self._hot(1)]

    def test_run_of_hot_frames_rides_one_batch_wrapper(self):
        link = _PeerLink(("127.0.0.1", 1), 0, codec=CODEC_BINARY)
        frames = [self._hot(i) for i in range(5)]
        (wrapper,) = self._decode(link.encode_batch(frames))
        assert wrapper["op"] == "batch"
        assert wrapper["frames"] == frames  # order preserved inside

    def test_bulk_frames_break_the_run_and_ride_json(self):
        link = _PeerLink(("127.0.0.1", 1), 0, codec=CODEC_BINARY)
        bulk = {"op": "retire", "host": 2, "records": [], "forwards": {}}
        blob = link.encode_batch([self._hot(1), self._hot(2), bulk,
                                  self._hot(3)])
        decoded = self._decode(blob)
        assert [f["op"] for f in decoded] == ["batch", "retire", "complete"]
        assert decoded[0]["frames"] == [self._hot(1), self._hot(2)]
        assert decoded[2] == self._hot(3)
        # the bulk frame must be the JSON section of the blob: find its
        # header and check the codec tag byte is 0x00
        batch_len = len(link.encode_batch([self._hot(1), self._hot(2)]))
        assert blob[batch_len] == 0x00  # JSON tag on the retire frame
        assert blob[0] == 0x01          # binary tag on the batch wrapper

    def test_oversized_wrapper_falls_back_to_individual_frames(self):
        link = _PeerLink(("127.0.0.1", 1), 0, codec=CODEC_JSON)
        big = "x" * (MAX_FRAME_BYTES // 2 - 1024)
        frames = [{"op": "msg", "dest": i, "action": "a", "payload": big}
                  for i in range(3)]
        decoded = self._decode(link.encode_batch(frames))
        assert decoded == frames  # no wrapper, nothing dropped, in order


@pytest.fixture()
def fake_client(monkeypatch):
    """A coalescing client wired to a byte-capturing fake writer."""

    class FakeWriter:
        def __init__(self):
            self.chunks: list[bytes] = []
            self.drains = 0

        def write(self, data: bytes) -> None:
            self.chunks.append(bytes(data))

        async def drain(self) -> None:
            self.drains += 1

    client = SkueueClient({0: ("127.0.0.1", 1)}, codec="binary")
    writer = FakeWriter()
    client._writers[0] = writer
    client._send_codecs[0] = CODEC_BINARY
    client._nonces[0] = 1
    client.host_for = lambda pid: 0

    async def _noop(host):
        return None

    monkeypatch.setattr(client, "_ensure_host", _noop)
    return client, writer


def _frames(writer) -> list[dict]:
    return list(FrameReader().feed(b"".join(writer.chunks)))


class TestClientSubmitCoalescing:
    def test_one_tick_of_submits_is_one_frame_in_order(self, fake_client):
        client, writer = fake_client

        async def run():
            return await asyncio.gather(*[
                client._submit(pid, INSERT, ("item", pid))
                for pid in range(6)
            ])

        req_ids = asyncio.run(run())
        (frame,) = _frames(writer)
        assert frame["op"] == "submit_batch"
        # within the batch: exactly the per-client submission order
        assert [sub[0] for sub in frame["subs"]] == req_ids
        assert [decode_payload(sub[3]) for sub in frame["subs"]] == [
            ("item", pid) for pid in range(6)
        ]
        assert writer.drains == 1  # one buffered write, one drain

    def test_partial_flush_never_reorders(self, fake_client):
        client, writer = fake_client

        async def run():
            first = [client._queue_submit(pid, INSERT, pid)
                     for pid in range(3)]
            await asyncio.sleep(0.1)  # next tick fired: partial flush
            second = [client._queue_submit(pid, REMOVE, None)
                      for pid in range(2)]
            await asyncio.sleep(0.1)
            return first + second

        req_ids = asyncio.run(run())
        frames = _frames(writer)
        assert [f["op"] for f in frames] == ["submit_batch", "submit_batch"]
        flushed = [sub[0] for f in frames for sub in f["subs"]]
        assert flushed == req_ids  # FIFO across the flush boundary too

    def test_single_staged_submit_flushes_as_plain_submit(self, fake_client):
        client, writer = fake_client
        req_id = asyncio.run(client._submit(0, INSERT, "only"))
        (frame,) = _frames(writer)
        assert frame["op"] == "submit"
        assert frame["req"] == req_id

    def test_empty_buffer_flush_sends_nothing(self, fake_client):
        client, writer = fake_client

        async def run():
            await client._flush_submits(0)
            await client._flush_all()

        asyncio.run(run())
        assert writer.chunks == []
        assert writer.drains == 0

    def test_staged_submits_for_a_dead_host_are_dropped_not_written(
            self, fake_client):
        # the recover path resubmits pending requests; flushing the
        # stale buffer as well would submit them twice
        client, writer = fake_client

        async def run():
            client._queue_submit(0, INSERT, "staged")
            del client._writers[0]
            for task in list(client._flush_tasks.values()):
                await task

        asyncio.run(run())
        assert writer.chunks == []
        assert client._submit_buf == {}


def _metrics_reply(n: int) -> bytes:
    return encode_frame({"op": "metrics", "host": 0, "summary": {"n": n},
                         "phases": {}, "registry": {}})


class TestOverlappingHostQueries:
    """Replies on one connection are FIFO: every overlapping
    ``host_telemetry``/``host_metrics``/``collect_records`` call gets
    its own answer instead of overwriting the previous waiter."""

    def test_two_overlapping_calls_each_get_their_own_reply(self, fake_client):
        client, writer = fake_client

        async def run():
            reader = asyncio.StreamReader()
            read_loop = asyncio.ensure_future(client._read_loop(0, reader))
            first = asyncio.ensure_future(client.host_telemetry(timeout=1.0))
            await asyncio.sleep(0)  # first has sent and is waiting
            second = asyncio.ensure_future(client.host_metrics(timeout=1.0))
            await asyncio.sleep(0)
            reader.feed_data(_metrics_reply(1) + _metrics_reply(2))
            try:
                return await asyncio.gather(first, second)
            finally:
                read_loop.cancel()

        first, second = asyncio.run(run())
        assert [f["op"] for f in _frames(writer)] == ["metrics", "metrics"]
        assert first[0]["summary"] == {"n": 1}  # oldest waiter, first reply
        assert second[0] == {"n": 2}

    def test_a_dropped_host_fails_its_queued_queries(self, fake_client):
        client, _writer = fake_client

        async def run():
            query = asyncio.ensure_future(client.host_telemetry(timeout=5.0))
            await asyncio.sleep(0)
            client._drop_host(0)
            await query

        with pytest.raises(ConnectionError):
            asyncio.run(run())
