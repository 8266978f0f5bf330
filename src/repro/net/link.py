"""The link plane: every long-lived socket loop of the TCP runtime.

docs/PROTOCOL.md "Channel properties" promises the paper's channel —
FIFO, nothing lost, nothing duplicated — and this module is where that
promise is built, once, for hosts and clients alike (DESIGN.md, "Links"):
one :class:`Pipe` (a FIFO outbox and the single write step: run the
owner's pre-write hook, take what is queued, fold it, one ``write``, one
``drain``), one fold
(:meth:`Pipe.encode`) and its inverse (:func:`unfold`), one read loop
(:class:`Connection`, over one :class:`~repro.net.transport.FrameReader`)
with one filter for resent frames (:class:`ResendFilter`), one teardown
(:meth:`Pipe.close`).  Wrappers exist only here: what a read loop hands
on is always a lone frame.  Its three users are the pipe plus what only they
need: a host's accepted :class:`Connection`; its outbound
:class:`PeerLink`, which dials, redials (saying whether a dial was
refused), stamps ``(src, seq)`` and resends; and the client's per-host
session (:mod:`repro.net.client`), a :class:`Connection` with the
``hello``/``welcome`` handshake on top.
Nothing here knows a host, a client, a record or a cluster map.
"""

from __future__ import annotations

import asyncio
import random
import traceback
from collections import deque
from itertools import groupby, islice

from repro.net.transport import FrameDecodeError, FrameReader, encode_frame

__all__ = [
    "FOLD_DONES",
    "FOLD_PEER",
    "FOLD_SUBMITS",
    "Connection",
    "PeerLink",
    "Pipe",
    "ResendFilter",
    "dial",
    "unfold",
]


async def dial(address: tuple[str, int]):
    """Open a connection: the one place the runtime's long-lived sockets
    are dialled (tests patch it to hand out in-memory streams)."""
    return await asyncio.open_connection(*address)


# -- folds: (member test, wrapper over a run of >= 2 adjacent members) -------------

#: host -> client: DONE pushes ride one ``done_batch``
FOLD_DONES = (
    lambda frame: frame.get("op") == "done",
    lambda run: {"op": "done_batch",
                 "dones": [[f["req"], f["kind"], f["result"]] for f in run]},
)
#: client -> host: submits ride one ``submit_batch``; a traced one's
#: ``tr`` tag is its row's sixth column
FOLD_SUBMITS = (
    lambda frame: frame.get("op") == "submit",
    lambda run: {"op": "submit_batch",
                 "subs": [[f["req"], f["pid"], f["kind"], f["item"],
                           f.get("pri", 0), *([f["tr"]] if "tr" in f else ())]
                          for f in run]},
)
#: host -> host: every frame rides one ``batch``, each subframe keeping
#: its own src/seq/gen for the receiver's dedup and fence
FOLD_PEER = (
    lambda frame: True,
    lambda run: {"op": "batch", "frames": run},
)


def _submit(row: list) -> dict:
    req, pid, kind, item, pri, *tr = row
    frame = {"op": "submit", "req": req, "pid": pid, "kind": kind, "item": item}
    if pri:
        frame["pri"] = pri
    if tr:
        frame["tr"] = tr[0]
    return frame


#: the reading end of the folds: wrapper op -> the lone frames it stands for
UNFOLDS = {
    "batch": lambda wrapper: wrapper["frames"],
    "submit_batch": lambda wrapper: [_submit(row) for row in wrapper["subs"]],
    "done_batch": lambda wrapper: [
        {"op": "done", "req": req, "kind": kind, "result": result}
        for req, kind, result in wrapper["dones"]],
}


def unfold(frame: dict) -> list[dict]:
    """The frames ``frame`` stands for, in order: a wrapper's members,
    or the frame itself.  A wrapper that does not unfold is garbage
    behind a valid header (:class:`FrameDecodeError`)."""
    members = UNFOLDS.get(frame.get("op"))
    if members is None:
        return [frame]
    try:
        return members(frame)
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameDecodeError(f"malformed {frame['op']!r}: {exc!r}") from None


class Pipe:
    """A FIFO outbox and the write step that empties it onto a socket."""

    #: most frames one write takes (bounds its latency and the wrapper's
    #: body); ``None``: everything queued
    MAX_BATCH: int | None = None
    #: the ``(member, wrap)`` pair :meth:`encode` folds by; each user sets one
    FOLD: tuple

    def __init__(self, on_write=None, on_error=None,
                 before_write=None) -> None:
        # telemetry hook: called (frames, bytes) after each socket write
        self.on_write = on_write
        # called at each write step before the outbox is taken: the
        # owner's last chance to send what it queued elsewhere
        self.before_write = before_write
        # (where, detail): a frame was dropped or a loop died
        self.on_error = on_error or (lambda where, detail: None)
        # frames not yet drained, oldest first: they leave only once the
        # kernel took them, so a redial resends the head and whoever
        # empties the pipe sees in-flight before queued, in order
        self.outbox: deque[dict] = deque()
        self.writer = None
        self.closed = False
        self.tasks: list[asyncio.Task] = []
        self._drained = 0  # frames written and drained so far
        self._waiters: deque[tuple[int, asyncio.Future]] = deque()
        self._wake: asyncio.Future | None = None  # the idle write loop's

    def send(self, frame: dict) -> None:
        if self.closed:
            return  # nobody will read the outbox again
        self.outbox.append(frame)
        self.poke()

    def poke(self) -> None:
        """Have an idle write loop run a write step: the pre-write hook
        may have something to send.  With nothing queued after it, the
        step writes nothing."""
        wake = self._wake
        if wake is not None and not wake.done():
            wake.set_result(None)

    async def flushed(self) -> None:
        """Return once every frame sent so far was written and drained;
        :class:`ConnectionError` if the pipe ends first."""
        if self.closed:
            raise ConnectionError("the connection is closed")
        if self.outbox:
            future = asyncio.get_running_loop().create_future()
            self._waiters.append((self._drained + len(self.outbox), future))
            await future

    def encode(self, frames: list[dict]) -> bytearray:
        """One wire blob for a write: the fold.

        Runs of adjacent member frames become one wrapper; a lone member
        ships raw; a non-member breaks the run and keeps its place.  A
        wrapper that will not encode (it overflowed
        ``MAX_FRAME_BYTES``, or one member is poisoned) falls back to
        its members singly, and a single frame that will not encode is
        dropped and noted while the rest of the write goes out.
        """
        out = bytearray()
        member, wrap = self.FOLD
        for is_member, group in groupby(frames, member):
            run = list(group)
            if is_member and len(run) > 1:
                try:
                    out += encode_frame(wrap(run))
                    continue
                except Exception:
                    pass  # every member may still be legal on its own
            for frame in run:
                try:
                    out += encode_frame(frame)
                except Exception:
                    self.on_error("write", traceback.format_exc())
        return out

    async def _flush(self, writer) -> None:
        """One write: sleep until something is queued, then everything
        queued (natural batching — no timer) is one blob, one drain."""
        outbox = self.outbox
        while True:
            if self.before_write is not None:
                self.before_write()
            if outbox:
                break
            self._wake = asyncio.get_running_loop().create_future()
            await self._wake
        frames = list(islice(outbox, self.MAX_BATCH))
        blob = self.encode(frames)
        if blob:
            writer.write(blob)
            if self.on_write is not None:
                self.on_write(len(frames), len(blob))
            await writer.drain()
        for _ in frames:
            outbox.popleft()
        self._drained += len(frames)
        waiters = self._waiters
        while waiters and waiters[0][0] <= self._drained:
            future = waiters.popleft()[1]
            if not future.done():  # its caller was cancelled meanwhile
                future.set_result(None)

    def close(self) -> None:
        """End the pipe: its loops stop, its socket closes, what was
        queued is dropped (later sends too) and a caller waiting in
        :meth:`flushed` learns at once."""
        self.closed = True
        for task in self.tasks:
            task.cancel()
        if self.writer is not None:
            self.writer.close()
        self.outbox.clear()
        for _count, future in self._waiters:
            if not future.done():
                future.set_exception(ConnectionError(
                    "the connection closed before the frame was flushed"))
        self._waiters.clear()


#: what an HTTP request to a data port opens with (see :class:`Connection`)
HTTP_GET = b"GET "


class Connection(Pipe):
    """An open socket, both directions: the pipe writes, a read loop
    hands each frame — a wrapper as its members — to ``on_frame(
    connection, frame)``, and whichever side fails first ends both and
    calls ``on_lost(connection)`` — an explicit :meth:`close` does not.
    A stream that opens with ``GET `` goes to ``on_http(head, reader,
    writer)`` instead, if given.  As accepted by a host it folds DONE
    pushes; the client's session overrides the fold and the cap.
    """

    #: bounds both latency and the transient ``done_batch`` body size
    MAX_BATCH = 256
    FOLD = FOLD_DONES

    def __init__(self, on_frame, on_lost, on_http=None, **pipe) -> None:
        super().__init__(**pipe)
        self.on_frame = on_frame
        self.on_lost = on_lost
        self.on_http = on_http

    async def open(self, address: tuple[str, int]) -> None:
        self.start(*await dial(address))

    def start(self, reader, writer) -> None:
        loop = asyncio.get_running_loop()
        self.writer = writer
        self.tasks = [loop.create_task(self._read_loop(reader)),
                      loop.create_task(self._write_loop())]

    async def _read_loop(self, reader) -> None:
        try:
            # a frame header (its tag byte is 0x01) or an HTTP method
            data = await reader.readexactly(len(HTTP_GET))
            if data == HTTP_GET and self.on_http is not None:
                await self.on_http(data, reader, self.writer)
                data = b""
            frames = FrameReader()
            while data:
                self._deliver(frames, data)
                data = await reader.read(65536)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # the peer hung up
        except Exception:
            self.on_error("connection", traceback.format_exc())
        self._lost()

    def _deliver(self, frames: FrameReader, data: bytes) -> None:
        """Every frame ``data`` completes goes to ``on_frame``.  Garbage
        behind a valid header costs that frame: its body was consumed,
        the stream is still framed.  An unframeable stream raises."""
        while True:
            try:
                for frame in frames.feed(data):
                    for member in unfold(frame):
                        self.on_frame(self, member)
                return
            except FrameDecodeError:
                self.on_error("read", traceback.format_exc())
                data = b""  # what is buffered behind it is still to read

    async def _write_loop(self) -> None:
        try:
            while True:
                await self._flush(self.writer)
        except OSError:
            pass  # the peer hung up; the read side would say so next
        except Exception:
            self.on_error("write", traceback.format_exc())
        self._lost()

    def _lost(self) -> None:
        if not self.closed:
            self.close()
            self.on_lost(self)


class PeerLink(Pipe):
    """Outbound frame pipe to one peer host (lazy connect, retry, FIFO).

    Each frame carries a per-link sequence number; after a write error
    the link redials and resends what had not drained, and the receiver
    deduplicates by (src, seq) (:class:`ResendFilter`) so the resend
    cannot violate the no-duplication channel assumption.  A reset can
    still lose frames the kernel had buffered but not transmitted —
    mid-deployment TCP failures are fail-stop territory for this
    runtime, not masked (see DESIGN.md).
    """

    #: consecutive failed connect attempts before the link parks itself
    #: (a crashed peer would otherwise be dialled forever; `send` re-arms)
    MAX_ATTEMPTS = 40

    #: frames folded into one `batch` wrapper per write
    MAX_BATCH = 64
    FOLD = FOLD_PEER

    def __init__(self, address: tuple[str, int], src: int, on_dial=None,
                 **pipe) -> None:
        super().__init__(**pipe)
        self.address = address
        self.src = src
        # on_dial(refused): each dial that connects (False) or is refused
        # (True); any other failure says nothing of the peer's process
        self.on_dial = on_dial or (lambda refused: None)
        self._seq = 0
        # reconnect bookkeeping, surfaced through the ops /health payload
        self.attempts = 0
        self.last_error: str | None = None
        self.gave_up = False

    def start(self) -> None:
        self.tasks = [asyncio.get_running_loop().create_task(self._run())]

    def send(self, message: dict) -> None:
        # stamp a copy, never the caller's dict: one frame may be handed
        # to several links (a flush's `replica_put` to both successors,
        # a `host_map` to every peer) and each needs its own seq
        self._seq += 1
        super().send({**message, "src": self.src, "seq": self._seq})

    def poke(self) -> None:
        super().poke()
        if self.gave_up and not self.closed:
            # fresh traffic re-arms a parked link (the peer may be back)
            self.gave_up = False
            self.attempts = 0
            self.start()

    def stats(self) -> dict:
        """Link health for the ops plane."""
        return {
            "address": list(self.address),
            "attempts": self.attempts,
            "last_error": self.last_error,
            "gave_up": self.gave_up,
            "queued": len(self.outbox),
        }

    @property
    def idle(self) -> bool:
        return not self.outbox

    def drain_pending(self) -> list[dict]:
        """Frames queued but (possibly) never delivered, in-flight first.

        Called *before* :meth:`close` when the peer host left the
        cluster: messages sent in the window between the host going away
        and the map update arriving would otherwise vanish with the link
        — the host re-dispatches them through the retiree's published
        forwarding addresses instead.  Frames that were mid-write are
        included; if the peer did receive them, its (src, seq) dedup
        discards the re-dispatch downstream.
        """
        frames = list(self.outbox)
        self.outbox.clear()
        return frames

    async def _run(self) -> None:
        backoff = 0.05
        while True:
            try:
                _reader, self.writer = await dial(self.address)
            except OSError as exc:
                self.attempts += 1
                self.last_error = str(exc) or type(exc).__name__
                if isinstance(exc, ConnectionRefusedError):
                    self.on_dial(True)
                if self.attempts >= self.MAX_ATTEMPTS:
                    # bounded retry: park until `send` re-arms us — the
                    # failure detector owns declaring the peer dead
                    self.gave_up = True
                    return
                # jittered exponential backoff so a cluster-wide restart
                # does not thundering-herd the returning peer
                await asyncio.sleep(backoff * (0.5 + random.random()))
                backoff = min(backoff * 2, 1.0)
                continue
            backoff = 0.05
            self.attempts = 0
            self.last_error = None
            self.on_dial(False)
            try:
                while True:
                    await self._flush(self.writer)
            except OSError as exc:
                # redial; what had not drained is still at the head of
                # the outbox and goes out again, deduped by (src, seq)
                self.last_error = str(exc) or type(exc).__name__
                self.writer.close()  # the socket this redial abandons


class ResendFilter:
    """The receiving end of :class:`PeerLink`'s resend: was this
    ``(src, seq)`` seen before?

    A sliding *set* per source, not a cumulative counter — a reconnect
    can interleave the old socket's undelivered tail after the new
    socket's first frames, and a high-water mark would silently drop the
    tail as "duplicates" it never saw.
    """

    WINDOW = 8192

    def __init__(self) -> None:
        self.seen: dict[int, tuple[set[int], deque[int]]] = {}

    def fresh(self, src: int, seq: int) -> bool:
        entry = self.seen.get(src)
        if entry is None:
            entry = self.seen[src] = (set(), deque())
        seen, order = entry
        if seq in seen:
            return False
        seen.add(seq)
        order.append(seq)
        if len(order) > self.WINDOW:
            seen.discard(order.popleft())
        return True

    def forget(self, src: int) -> None:
        """The source left the cluster: its link, and its numbering, are gone."""
        self.seen.pop(src, None)
