"""`SkueueClient`: submit queue/stack operations to a TCP deployment.

The client may talk to *any* host; a request for pid ``p`` goes to the
host owning ``p`` per the deployment's versioned cluster map (learned
from the ``welcome`` handshake and refreshed by ``host_map`` pushes —
see :mod:`repro.net.membership`).  Request ids are assigned client-side
and encode the owning host (``req_id % id_slots``), which is what lets a
DHT node on one host complete a record that originated on another (see
:class:`repro.net.records.RecordTable`).

Any number of clients may submit to the same host concurrently: during
:meth:`connect` every host answers the client's ``hello`` with a
``welcome`` frame carrying a per-connection **nonce**, and every req_id
packs ``(nonce, seq, host)`` via
:func:`repro.core.requests.pack_req_id` — id spaces of different
clients are disjoint by construction (the host still rejects duplicate
req_ids loudly as a backstop).

Live membership: hosts may join and drain while this client submits.
Connections to freshly joined hosts open lazily on first use; a
``rejected`` answer (the submission raced a drain or a stale map) makes
the client refresh its map and transparently resubmit the operation on a
live pid — the original req_id's future resolves when the replacement
completes, so callers never see the churn.

This is the transport core of the unified facade in :mod:`repro.api`;
prefer ``repro.api.connect(backend="tcp", ...)`` for new code — it
returns :class:`~repro.api.OpHandle` objects and runs the same workload
script on every backend.

Typical (direct) use::

    async with SkueueClient(deployment.host_map) as client:
        req = await client.enqueue(pid=3, item="job-1")
        deq = await client.dequeue(pid=5)
        await client.wait_all()
        assert client.result_of(deq) == "job-1"
        records = await client.collect_records()   # feed to repro.verify
"""

from __future__ import annotations

import asyncio
from collections import deque

from repro.core.requests import BOTTOM, INSERT, REMOVE, OpRecord, pack_req_id
from repro.net.membership import ClusterMap
from repro.net.transport import (
    CODEC_BINARY,
    CODEC_JSON,
    decode_payload,
    encode_payload,
    read_frame,
    record_from_wire,
    write_frame,
)
from repro.telemetry import trace_sampled

__all__ = ["SkueueClient"]

#: Queries a client puts to every host, and the frame answering each.
_QUERY_ANSWERS = {"collect": "records", "metrics": "metrics"}


class SkueueClient:
    """Asyncio client for a :class:`~repro.net.launcher.NetDeployment`.

    ``codec`` selects the wire codec this client *offers* in its
    ``hello``: ``"auto"`` (default) offers binary-then-JSON and lets
    each host pick, ``"json"``/``"binary"`` pin one.  The host's answer
    in the ``welcome`` sets the send codec per connection; receiving is
    always codec-agnostic (frames are self-describing), so a client may
    end up speaking different codecs to different hosts of one
    deployment.

    Submissions issued in the same event-loop tick to the same host are
    flushed as a single ``submit_batch`` frame with one buffered socket
    write.  Order per host is the buffer's append order, so per-client
    submission order is preserved.

    ``trace_sample`` turns on client-side trace sampling: each req_id
    that wins the deterministic draw (see
    :func:`repro.telemetry.tracing.trace_sampled`) is submitted as a
    standalone ``submit`` frame tagged with the optional ``tr`` field,
    which makes every host on the op's path record lifecycle spans for
    it (docs/PROTOCOL.md, "Telemetry").  Sampled submissions bypass the
    coalesce buffer — ``submit_batch`` rows carry no tag — so keep the
    rate low (a few percent) on throughput-sensitive runs.  A client
    constructed with the default rate of ``0.0`` adopts whatever rate
    the deployment advertises in its ``welcome`` (set by
    ``launch_local(trace_sample=...)``), so deployments can turn on
    tracing for every client centrally.
    """

    def __init__(
        self,
        host_map: dict[int, tuple[str, int]],
        *,
        codec: str = "auto",
        trace_sample: float = 0.0,
    ) -> None:
        self.host_map = {int(k): (v[0], int(v[1])) for k, v in host_map.items()}
        if codec == "auto":
            self._offered = [CODEC_BINARY, CODEC_JSON]
        elif codec in (CODEC_JSON, CODEC_BINARY):
            self._offered = [codec]
        else:
            raise ValueError(f"unknown wire codec {codec!r}")
        self.trace_sample = float(trace_sample)
        self._send_codecs: dict[int, str] = {}  # host -> negotiated codec
        self._submit_buf: dict[int, list[tuple]] = {}  # host -> queued subs
        self._flush_tasks: dict[int, asyncio.Task] = {}
        self.n_hosts = len(self.host_map)
        self.id_slots = self.n_hosts  # the cluster map's, once connected
        self.cluster: ClusterMap | None = None
        self._writers: dict[int, asyncio.StreamWriter] = {}
        self._readers: dict[int, asyncio.Task] = {}
        self._counters: dict[int, int] = {}
        self._nonces: dict[int, int] = {}  # host -> welcome-assigned nonce
        self._pending: dict[int, asyncio.Future] = {}
        self._pending_meta: dict[int, tuple[int, int, object]] = {}
        self._redirects: dict[int, int] = {}  # replacement req -> original
        self._results: dict[int, object] = {}
        # answer op -> host -> FIFO of futures awaiting that answer
        self._reply_waiters: dict[str, dict[int, deque]] = {
            answer: {} for answer in _QUERY_ANSWERS.values()
        }
        self._welcome_futures: dict[int, asyncio.Future] = {}
        self._host_locks: dict[int, asyncio.Lock] = {}
        self.deployment_info: dict = {}  # shape learned from `welcome`
        self.errors: list[str] = []
        self.rejected_resubmits = 0  # churn observability for tests
        self.last_update_over: dict = {}
        self._retry_rr = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------
    async def connect(self, timeout: float | None = 10.0) -> "SkueueClient":
        """Open one connection per host and perform the nonce handshake.

        ``timeout`` bounds each connection attempt and the whole
        handshake.  On any failure everything opened so far is closed
        before the exception propagates.  The given host_map only needs
        to *reach* the deployment: the authoritative member list comes
        back in the ``welcome`` (the cluster map), and connections are
        reconciled against it.
        """
        try:
            welcomes = []
            for index in sorted(self.host_map):
                welcomes.append(
                    await asyncio.wait_for(
                        self._open_host(index, self.host_map[index]), timeout
                    )
                )
            first = welcomes[0]
            self.deployment_info = {
                key: first[key]
                for key in ("n_hosts", "n_processes", "structure",
                            "n_priorities")
            }
            # adopt the deployment's advertised sampling rate unless the
            # caller pinned one: launch_local(trace_sample=...) then
            # traces every client's submissions at that rate for free
            if self.trace_sample == 0.0:
                self.trace_sample = float(first["trace_sample"])
            self._apply_map_json(first["map"], force=True)
            # reconcile against the authoritative member list
            for index in list(self.cluster.hosts):
                await asyncio.wait_for(self._ensure_host(index), timeout)
            for index in [
                i for i in self._writers if i not in self.cluster.hosts
            ]:
                self._drop_host(index)
        except BaseException:
            await self.close()
            raise
        return self

    async def _open_host(self, index: int, address: tuple[str, int]) -> dict:
        """Connect + hello/welcome handshake with one host."""
        loop = asyncio.get_running_loop()
        reader, writer = await asyncio.open_connection(*address)
        self._writers[index] = writer
        self._readers[index] = loop.create_task(self._read_loop(index, reader))
        future = self._welcome_futures[index] = loop.create_future()
        try:
            # the hello itself always rides as JSON: the codec is only
            # negotiated by it
            write_frame(writer, {"op": "hello", "codecs": list(self._offered)})
            await writer.drain()
            # belt for the EOF-notification in _read_loop: a peer that
            # accepted the connection but never answers (crashed between
            # accept and reply) must look like a refused connect
            try:
                welcome = await asyncio.wait_for(future, 15.0)
            except asyncio.TimeoutError as exc:
                self._drop_host(index)
                raise ConnectionError(
                    f"host {index} at {address} never answered the hello"
                ) from exc
        finally:
            self._welcome_futures.pop(index, None)
        if welcome["host"] != index:
            # a permuted/stale host_map would mis-shard every submission
            # keyed by this index: fail fast instead of looping rejections
            self._drop_host(index)
            raise ValueError(
                f"host_map names host {index} at {address}, but host "
                f"{welcome['host']} answered"
            )
        self._nonces[index] = welcome["nonce"]
        chosen = welcome["codec"]
        self._send_codecs[index] = (
            chosen if chosen in self._offered else CODEC_JSON
        )
        return welcome

    async def _ensure_host(self, index: int) -> None:
        """Make sure a connection (with nonce) to host ``index`` exists."""
        if index in self._nonces and index in self._writers:
            return
        lock = self._host_locks.setdefault(index, asyncio.Lock())
        async with lock:
            if index in self._nonces and index in self._writers:
                return
            if self.cluster is not None and index in self.cluster.hosts:
                address = self.cluster.hosts[index]
            else:
                address = self.host_map[index]
            welcome = await self._open_host(index, address)
            self._apply_map_json(welcome["map"])

    def _fail_welcome(self, index: int) -> None:
        future = self._welcome_futures.pop(index, None)
        if future is not None and not future.done():
            future.set_exception(
                ConnectionError(f"host {index} closed before answering hello")
            )

    def _drop_host(self, index: int) -> None:
        self._fail_welcome(index)
        task = self._readers.pop(index, None)
        if task is not None:
            task.cancel()
        writer = self._writers.pop(index, None)
        if writer is not None:
            try:
                writer.close()
            except Exception:
                pass
        self._nonces.pop(index, None)
        self._send_codecs.pop(index, None)
        self._submit_buf.pop(index, None)
        self._flush_tasks.pop(index, None)
        self._fail_queries(index)

    async def close(self) -> None:
        self._closed = True
        for task in self._flush_tasks.values():
            task.cancel()
        self._flush_tasks.clear()
        self._submit_buf.clear()
        for task in self._readers.values():
            task.cancel()
        for writer in self._writers.values():
            try:
                writer.close()
            except Exception:
                pass
        self._writers.clear()
        self._readers.clear()

    async def __aenter__(self) -> "SkueueClient":
        return await self.connect()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- cluster map ----------------------------------------------------------
    def _apply_map_json(self, map_json: dict | None, force: bool = False) -> None:
        if map_json is None:
            return
        incoming = ClusterMap.from_json(map_json)
        if (
            not force
            and self.cluster is not None
            and incoming.version <= self.cluster.version
        ):
            return
        self.cluster = incoming
        self.id_slots = incoming.id_slots
        self.n_hosts = len(incoming.hosts)
        self.host_map.update(incoming.hosts)
        for index in [i for i in self._writers if i not in incoming.hosts]:
            self._drop_host(index)

    def live_pids(self) -> list[int]:
        """Pids currently accepting submissions (drain-aware)."""
        return self.cluster.live_pids()

    # -- submitting operations -----------------------------------------------
    def host_for(self, pid: int) -> int:
        owner = self.cluster.owner_of(pid)
        if owner is None:
            raise KeyError(f"pid {pid} is not in the cluster map")
        return owner

    async def enqueue(self, pid: int, item: object = None) -> int:
        """Issue ENQUEUE(item) at process ``pid``; returns the req_id."""
        return await self._submit(pid, INSERT, item)

    async def dequeue(self, pid: int) -> int:
        """Issue DEQUEUE() at process ``pid``; returns the req_id."""
        return await self._submit(pid, REMOVE, None)

    async def insert(self, pid: int, item: object = None,
                     priority: int = 0) -> int:
        """Issue a heap INSERT(item, priority) at process ``pid``."""
        return await self._submit(pid, INSERT, item, priority)

    async def delete_min(self, pid: int) -> int:
        """Issue a heap DELETE-MIN() at process ``pid``."""
        return await self._submit(pid, REMOVE, None)

    def _next_req_id(self, host: int) -> int:
        seq = self._counters.get(host, 0)
        self._counters[host] = seq + 1
        return pack_req_id(self._nonces[host], seq, host, self.id_slots)

    def _check_priority(self, kind: int, priority: int) -> None:
        from repro.core.structures import check_priority

        info = self.deployment_info  # empty before connect: queue rules
        check_priority(info.get("structure", "queue"), kind, priority,
                       info.get("n_priorities"))

    def _write(self, host: int, frame: dict) -> None:
        """Frame one message in the host's negotiated send codec."""
        write_frame(self._writers[host], frame,
                    self._send_codecs.get(host, CODEC_JSON))

    def _queue_submit(self, pid: int, kind: int, item: object,
                      priority: int = 0) -> int:
        """Stage one submission for its host (flush/drain separately).

        It joins the host's submit buffer; the first entry schedules a
        flush for the next loop tick, so every submission staged
        meanwhile rides the same ``submit_batch``.
        """
        host = self.host_for(pid)
        req_id = self._next_req_id(host)
        self._pending[req_id] = asyncio.get_running_loop().create_future()
        self._pending_meta[req_id] = (pid, kind, item, priority)
        traced = self.trace_sample > 0.0 and trace_sampled(
            req_id, self.trace_sample
        )
        if traced:
            # traced submissions bypass the coalesce buffer: the `tr`
            # tag rides only on standalone submit frames (batch rows
            # have no slot for it), and a sampled op should not have its
            # buffer phase start skewed by batching anyway
            frame = {"op": "submit", "req": req_id, "pid": pid, "kind": kind,
                     "item": encode_payload(item)}
            if priority:
                frame["pri"] = priority
            frame["tr"] = req_id
            self._write(host, frame)
            return req_id
        buffer = self._submit_buf.setdefault(host, [])
        buffer.append((req_id, pid, kind, encode_payload(item), priority))
        if host not in self._flush_tasks:
            self._flush_tasks[host] = asyncio.get_running_loop().create_task(
                self._flush_later(host)
            )
        return req_id

    async def _flush_later(self, host: int) -> None:
        # sleep(0) = "the next loop tick": everything submitted in the
        # current tick batches, idle submitters pay zero added latency
        await asyncio.sleep(0)
        if self._flush_tasks.get(host) is asyncio.current_task():
            await self._flush_submits(host)

    async def _flush_submits(self, host: int) -> None:
        """Write the host's buffered submissions as one frame and drain.

        An empty buffer writes nothing.  A buffer whose host connection
        died meanwhile is *dropped*: those requests are still pending
        with their meta, and :meth:`_recover_lost` reroutes them — also
        writing them here would submit them twice.
        """
        self._flush_tasks.pop(host, None)
        entries = self._submit_buf.pop(host, None)
        if not entries:
            return
        writer = self._writers.get(host)
        if writer is None:
            return
        if len(entries) == 1:
            req_id, pid, kind, item, priority = entries[0]
            frame = {"op": "submit", "req": req_id, "pid": pid,
                     "kind": kind, "item": item}
            if priority:
                frame["pri"] = priority
        else:
            frame = {"op": "submit_batch", "subs": [list(e) for e in entries]}
        self._write(host, frame)
        await writer.drain()

    async def _drain_submits(self, host: int) -> None:
        """Hand everything staged for ``host`` to the transport."""
        await self._flush_submits(host)
        writer = self._writers.get(host)
        if writer is not None:
            await writer.drain()

    async def _submit(self, pid: int, kind: int, item: object,
                      priority: int = 0) -> int:
        self._check_priority(kind, priority)
        host = self.host_for(pid)
        await self._ensure_host(host)
        req_id = self._queue_submit(pid, kind, item, priority)
        # await the shared flush task instead of flushing inline:
        # concurrent submitters suspend here, the flush runs once
        # with all of their entries in the buffer
        task = self._flush_tasks.get(host)
        if task is not None:
            await task
        return req_id

    async def submit_many(
        self, ops: list[tuple[int, int, object, int] | tuple[int, int, object]]
    ) -> list[int]:
        """Pipeline many ``(pid, kind, item[, priority])`` submissions.

        All frames are staged before any flush, so one call costs one
        buffered write per touched host instead of one per operation.
        Submission order per pid is preserved (the coalesce buffer and
        TCP are both FIFO, and a host assigns per-pid indices in arrival
        order).
        """
        ops = [op if len(op) > 3 else (*op, 0) for op in ops]
        for _pid, kind, _item, priority in ops:
            self._check_priority(kind, priority)
        hosts = {self.host_for(pid) for pid, _, _, _ in ops}
        for host in hosts:
            await self._ensure_host(host)
        req_ids = [
            self._queue_submit(pid, kind, item, priority)
            for pid, kind, item, priority in ops
        ]
        for host in hosts:
            await self._drain_submits(host)
        return req_ids

    async def _on_rejected(self, message: dict) -> None:
        """A submission bounced off a drain or a stale map: resubmit it.

        The replacement gets a fresh req_id on a live pid; completion of
        the replacement resolves the *original* req_id's future and
        result slot, so callers are oblivious (the collected history
        names the replacement id — churn-aware workloads use
        ``live_pids()`` to make this path rare).
        """
        self._apply_map_json(message.get("map"))
        rejected = message["req"]
        root = self._redirects.pop(rejected, rejected)
        if rejected != root:
            self._pending.pop(rejected, None)
        meta = self._pending_meta.pop(rejected, None)
        future = self._pending.get(root)
        if meta is None or future is None or future.done():
            return
        _pid, kind, item, priority = meta
        try:
            # A crashed host stays in our map until the rebuilt one is
            # pushed, so connecting may fail for a while: keep cycling
            # live pids until a host answers or the deadline passes.
            for _attempt in range(80):
                candidates = self.live_pids()
                if not candidates:
                    raise RuntimeError(
                        f"request {root} rejected and no live pids remain"
                    )
                pid = candidates[self._retry_rr % len(candidates)]
                self._retry_rr += 1
                host = self.host_for(pid)
                try:
                    await self._ensure_host(host)
                except (ConnectionError, OSError):
                    self._drop_host(host)
                    await asyncio.sleep(0.25)
                    continue
                replacement = self._queue_submit(pid, kind, item, priority)
                self._redirects[replacement] = root
                self.rejected_resubmits += 1
                await self._drain_submits(host)
                return
            raise TimeoutError(
                f"request {root} could not be resubmitted: no reachable host"
            )
        except Exception as exc:
            if not future.done():
                future.set_exception(exc)

    async def _flush_all(self) -> None:
        """Flush every host's staged submissions (before waiting)."""
        for host in list(self._submit_buf):
            await self._flush_submits(host)

    # -- completions ----------------------------------------------------------
    async def wait(self, req_id: int, timeout: float | None = 30.0):
        """Await one request; returns its result (see :meth:`result_of`).

        Raises :class:`KeyError` for a req_id this client never
        submitted, and :class:`TimeoutError` if the request is still
        pending after ``timeout`` — in which case the request remains
        pending and may be awaited again (the underlying future is
        shielded from the timeout cancellation).
        """
        future = self._pending.get(req_id)
        if future is None:
            raise KeyError(f"req_id {req_id} was never submitted by this client")
        if not future.done():
            await self._flush_all()
        if not future.done():
            try:
                await asyncio.wait_for(asyncio.shield(future), timeout)
            except asyncio.TimeoutError:
                raise TimeoutError(
                    f"req_id {req_id} still pending after {timeout}s"
                ) from None
        return self.result_of(req_id)

    async def wait_all(self, timeout: float | None = 60.0) -> None:
        """Await every request submitted so far.

        Raises the builtin :class:`TimeoutError` past ``timeout`` (same
        class as :meth:`wait` on every supported Python), after
        surfacing any host-reported errors."""
        await self._flush_all()
        outstanding = [f for f in self._pending.values() if not f.done()]
        if outstanding:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*[asyncio.shield(f) for f in outstanding]),
                    timeout,
                )
            except asyncio.TimeoutError:
                self._raise_errors()  # a host error explains the hang best
                raise TimeoutError(
                    f"{sum(1 for f in outstanding if not f.done())} requests "
                    f"still pending after {timeout}s"
                ) from None
        self._raise_errors()

    def is_done(self, req_id: int) -> bool:
        """Whether a submitted request has completed (KeyError if unknown)."""
        if req_id not in self._pending:
            raise KeyError(f"req_id {req_id} was never submitted by this client")
        return req_id in self._results

    def result_of(self, req_id: int):
        """Result of a finished request: ``True`` for inserts, the
        dequeued item or ``BOTTOM`` for removals, ``None`` if pending.
        Raises :class:`KeyError` for ids this client never submitted."""
        if req_id not in self._results:
            if req_id not in self._pending:
                raise KeyError(
                    f"req_id {req_id} was never submitted by this client"
                )
            return None
        kind, result = self._results[req_id]
        if kind == INSERT:
            return True
        if result is BOTTOM:
            return BOTTOM
        return result[1]  # unwrap the (req_id, item) element tag

    # -- history / introspection ----------------------------------------------
    async def collect_records(
        self, timeout: float | None = 30.0
    ) -> list[OpRecord]:
        """Fetch every host's OpRecords (the history for `repro.verify`).

        Live hosts answer for themselves; records of hosts that drained
        out are served by the coordinator, which adopted their archives
        at retirement — the merged history stays complete across churn.
        """
        await self._flush_all()
        if self.cluster is not None:
            for index in list(self.cluster.hosts):
                await self._ensure_host(index)
        replies = await self._query_hosts({"op": "collect"}, timeout)
        records: list[OpRecord] = []
        for reply in replies:
            records.extend(record_from_wire(data) for data in reply["records"])
            self.errors.extend(reply["errors"])
        self._raise_errors()
        records.sort(key=lambda rec: rec.req_id)
        return records

    async def _query_hosts(
        self, query: dict, timeout: float | None
    ) -> list[dict]:
        """Send ``query`` to every connected host; gather the answers.

        Replies on one connection are FIFO, so each host keeps a queue
        of waiters per answer type and the read loop resolves the
        oldest: overlapping calls each get their own answer.
        """
        loop = asyncio.get_running_loop()
        waiters = self._reply_waiters[_QUERY_ANSWERS[query["op"]]]
        futures = []
        for index, writer in list(self._writers.items()):
            future = loop.create_future()
            waiters.setdefault(index, deque()).append(future)
            futures.append(future)
            self._write(index, query)
            await writer.drain()
        return await asyncio.wait_for(asyncio.gather(*futures), timeout)

    def _fail_queries(self, index: int) -> None:
        """Host ``index``'s connection is gone: its queued queries can
        never be answered (and must not pair with a successor
        connection's replies)."""
        for waiters in self._reply_waiters.values():
            for future in waiters.pop(index, ()):
                if not future.done():
                    future.set_exception(
                        ConnectionError(f"host {index} closed mid-query")
                    )

    async def host_telemetry(
        self, timeout: float | None = 30.0
    ) -> dict[int, dict]:
        """Per-host full telemetry answers: ``summary`` (run metrics),
        ``phases`` (per-op trace phase histograms) and ``registry`` (the
        host's metric registry snapshot)."""
        return {
            reply["host"]: {
                "summary": reply["summary"],
                "phases": reply["phases"],
                "registry": reply["registry"],
            }
            for reply in await self._query_hosts({"op": "metrics"}, timeout)
        }

    async def host_metrics(self, timeout: float | None = 30.0) -> dict[int, dict]:
        """Per-host run-metrics summaries (:meth:`host_telemetry`'s
        ``summary`` part)."""
        telemetry = await self.host_telemetry(timeout)
        return {host: data["summary"] for host, data in telemetry.items()}

    async def _recover_lost(self, index: int) -> None:
        """A host's connection ended: resubmit its in-limbo requests.

        An orderly retiree completes every accepted record and flushes
        DONE/rejected replies before closing, and TCP is FIFO — so any
        request of ours still pending *after* the EOF (origin residue ==
        that host) was written into the closing socket and silently
        lost.  Rerouting it through the rejected-resubmission machinery
        cannot duplicate it.  (A mid-flight *crash* — fail-stop
        territory, see DESIGN.md — could complete server-side anyway;
        orderly churn cannot.)
        """
        if self._closed:
            return
        self._writers.pop(index, None)
        self._nonces.pop(index, None)
        self._readers.pop(index, None)
        self._send_codecs.pop(index, None)
        # anything still staged for this host was never written: drop it
        # here so a late flush cannot duplicate the resubmissions below
        self._submit_buf.pop(index, None)
        self._flush_tasks.pop(index, None)
        self._fail_queries(index)
        for req_id in list(self._pending):
            future = self._pending.get(req_id)
            if future is None or future.done():
                continue
            if req_id % self.id_slots != index:
                continue
            if req_id not in self._pending_meta:
                continue
            await self._on_rejected({"req": req_id})

    # -- frame handling --------------------------------------------------------
    def _handle_done(self, req_id: int, kind: int, result: object) -> None:
        decoded = (kind, decode_payload(result))
        for rid in (req_id, self._redirects.pop(req_id, None)):
            if rid is None:
                continue
            self._results[rid] = decoded
            # the meta is only needed while a resubmission is still
            # possible; drop it on completion (it holds the enqueued
            # item object)
            self._pending_meta.pop(rid, None)
            future = self._pending.get(rid)
            if future is not None and not future.done():
                future.set_result(True)

    async def _read_loop(self, index: int, reader: asyncio.StreamReader) -> None:
        while True:
            message = await read_frame(reader)
            if message is None:
                # a host killed mid-handshake accepts the connection but
                # never answers the hello: fail the waiter so the lock in
                # _ensure_host is released instead of wedging every
                # subsequent resubmission behind it
                self._fail_welcome(index)
                if not self._closed:
                    asyncio.get_running_loop().create_task(
                        self._recover_lost(index)
                    )
                return
            op = message.get("op")
            if op == "done":
                self._handle_done(message["req"], message["kind"],
                                  message["result"])
            elif op == "done_batch":
                for req_id, kind, result in message["dones"]:
                    self._handle_done(req_id, kind, result)
            elif op == "rejected":
                asyncio.get_running_loop().create_task(
                    self._on_rejected(message)
                )
            elif op == "host_map":
                self._apply_map_json(message.get("map"))
            elif op == "update_over":
                self.last_update_over = message
            elif op in self._reply_waiters:
                waiters = self._reply_waiters[op].get(index)
                if waiters:
                    future = waiters.popleft()
                    if not future.done():  # its caller timed out
                        future.set_result(message)
            elif op == "welcome":
                future = self._welcome_futures.get(index)
                if future is not None and not future.done():
                    future.set_result(message)
            elif op == "error":
                self.errors.append(f"[host {index}] {message['message']}")
            elif op in ("pong", "bye", "wired", "leaving"):
                pass
            else:
                self.errors.append(f"[host {index}] unexpected frame {message!r}")

    def _raise_errors(self) -> None:
        if self.errors:
            raise RuntimeError("deployment reported errors:\n" + "\n".join(self.errors))
