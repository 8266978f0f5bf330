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

One table maps a host to its **session** — a
:class:`repro.net.link.Connection` (outbox, write loop, read loop) plus
what the ``welcome`` assigned — and every way a session ends (an
explicit drop, a lost connection, :meth:`SkueueClient.close`) goes
through one function, which also fails whoever waits on that host.  A
lost connection is *not* redialled underneath its requests the way a
host's peer link is: a new connection is a new nonce, hence new req_ids,
so the requests in limbo are resubmitted at the application level.

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

from repro.core.requests import INSERT, REMOVE, OpRecord, pack_req_id, user_result
from repro.net.link import FOLD_SUBMITS, Connection
from repro.net.membership import ClusterMap
from repro.net.transport import check_packable
from repro.telemetry import trace_sampled

__all__ = ["SkueueClient"]

#: Queries a client puts to every host, and the frame answering each.
_QUERY_ANSWERS = {"collect": "records", "metrics": "metrics"}


class _Session(Connection):
    """One host as this client sees it: the connection, and what the
    ``hello``/``welcome`` handshake assigned on it."""

    MAX_BATCH = None  # a `submit_many` is one write, however long
    FOLD = FOLD_SUBMITS

    def __init__(self, index: int, on_frame, on_lost, on_error) -> None:
        super().__init__(on_frame, on_lost, on_error=on_error)
        self.index = index
        self.lock = asyncio.Lock()  # one dial + handshake at a time
        # the hello's answer: pending while the handshake runs
        self.welcome: asyncio.Future | None = None
        self.nonce: int | None = None  # set by the welcome: ready to submit
        self.seq = 0  # next req_id sequence number under that nonce
        # answer op -> FIFO of futures awaiting that answer
        self.waiters: dict[str, deque] = {
            answer: deque() for answer in _QUERY_ANSWERS.values()
        }


class SkueueClient:
    """Asyncio client for a :class:`~repro.net.launcher.NetDeployment`.

    Submissions issued in the same event-loop tick to the same host are
    flushed as a single ``submit_batch`` frame with one buffered socket
    write.  Order per host is the session outbox's append order, so
    per-client submission order is preserved.

    ``trace_sample`` turns on client-side trace sampling: each req_id
    that wins the deterministic draw (see
    :func:`repro.telemetry.tracing.trace_sampled`) is submitted tagged
    with the optional ``tr`` field — a sixth column of its
    ``submit_batch`` row — which makes every host on the op's path
    record lifecycle spans for it (docs/PROTOCOL.md, "Telemetry").  A client
    constructed with the default rate of ``0.0`` adopts whatever rate
    the deployment advertises in its ``welcome`` (set by
    ``launch_local(trace_sample=...)``), so deployments can turn on
    tracing for every client centrally.
    """

    def __init__(
        self,
        host_map: dict[int, tuple[str, int]],
        *,
        trace_sample: float = 0.0,
    ) -> None:
        self.host_map = {int(k): (v[0], int(v[1])) for k, v in host_map.items()}
        self.trace_sample = float(trace_sample)
        self._sessions: dict[int, _Session] = {}
        self.n_hosts = len(self.host_map)
        self.id_slots = self.n_hosts  # the cluster map's, once connected
        self.cluster: ClusterMap | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._pending_meta: dict[int, tuple[int, int, object]] = {}
        self._redirects: dict[int, int] = {}  # replacement req -> original
        self._results: dict[int, object] = {}
        # resubmissions under way (a rejection, a lost host's limbo)
        self._tasks: set[asyncio.Task] = set()
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
            for index in sorted(self.host_map):
                session = await asyncio.wait_for(
                    self._ensure_host(index), timeout)
                if not self.deployment_info:
                    first = session.welcome.result()
                    self.deployment_info = {
                        key: first[key]
                        for key in ("n_hosts", "n_processes", "structure",
                                    "n_priorities")
                    }
                    # adopt the deployment's advertised sampling rate
                    # unless the caller pinned one:
                    # launch_local(trace_sample=...) then traces every
                    # client's submissions at that rate for free
                    if self.trace_sample == 0.0:
                        self.trace_sample = float(first["trace_sample"])
            # reconcile against the authoritative member list (hosts the
            # map does not name were dropped as it was adopted)
            for index in list(self.cluster.hosts):
                await asyncio.wait_for(self._ensure_host(index), timeout)
        except BaseException:
            await self.close()
            raise
        return self

    async def _ensure_host(self, index: int) -> _Session:
        """The session with host ``index``, dialled and greeted first if
        there is none.  Whoever finds the handshake under way waits for
        it and shares its fate."""
        session = self._sessions.get(index)
        if session is None:
            session = self._sessions[index] = _Session(
                index, self._on_frame, self._on_lost, self._note_error)
        if session.nonce is None:
            async with session.lock:
                if session.closed:
                    raise ConnectionError(
                        f"host {index} hung up during the handshake")
                if session.nonce is None:
                    await self._greet(session)
        return session

    async def _greet(self, session: _Session) -> None:
        """Dial + hello/welcome handshake; a failure ends the session."""
        index = session.index
        address = self.host_map[index]  # kept current by every adopted map
        try:
            await session.open(address)
            session.welcome = asyncio.get_running_loop().create_future()
            session.send({"op": "hello"})
            # belt for the EOF notification: a peer that accepted the
            # connection but never answers (crashed between accept and
            # reply) must look like a refused connect
            try:
                welcome = await asyncio.wait_for(session.welcome, 15.0)
            except asyncio.TimeoutError as exc:
                raise ConnectionError(
                    f"host {index} at {address} never answered the hello"
                ) from exc
            if welcome["host"] != index:
                # a permuted/stale host_map would mis-shard every
                # submission keyed by this index: fail fast instead of
                # looping rejections
                raise ValueError(
                    f"host_map names host {index} at {address}, but host "
                    f"{welcome['host']} answered"
                )
        except BaseException:
            self._end_session(session)
            raise
        session.nonce = welcome["nonce"]
        self._apply_map(welcome["map"])

    def _end_session(self, session: _Session) -> None:
        """The one way a session ends — an explicit drop, a lost
        connection and :meth:`close` alike: the socket closes, what was
        staged but never written is dropped (the pipe's ``close``), and
        its handshake and queued queries fail now instead of timing out
        (they must not pair with a successor connection's replies)."""
        if self._sessions.get(session.index) is session:
            del self._sessions[session.index]
        session.close()
        waiting = [session.welcome]
        for waiters in session.waiters.values():
            waiting.extend(waiters)
            waiters.clear()
        for future in waiting:
            if future is not None and not future.done():
                future.set_exception(ConnectionError(
                    f"host {session.index} closed the connection"))

    def _on_lost(self, session: _Session) -> None:
        """EOF or a socket error on a session: end it, then resubmit the
        requests that were in limbo on it."""
        self._end_session(session)
        if not self._closed:
            self._spawn(self._recover_lost(session.index))

    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _note_error(self, where: str, detail: str) -> None:
        self.errors.append(f"[client] {where}: {detail}")

    async def close(self) -> None:
        self._closed = True
        for task in self._tasks:
            task.cancel()
        for session in list(self._sessions.values()):
            self._end_session(session)

    async def __aenter__(self) -> "SkueueClient":
        return await self.connect()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # -- cluster map ----------------------------------------------------------
    def _apply_map(self, incoming: ClusterMap | None) -> None:
        if incoming is None:
            return
        if self.cluster is not None and incoming.version <= self.cluster.version:
            return
        self.cluster = incoming
        self.id_slots = incoming.id_slots
        self.n_hosts = len(incoming.hosts)
        self.host_map.update(incoming.hosts)
        for session in list(self._sessions.values()):
            if session.index not in incoming.hosts:
                self._end_session(session)

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

    def _check_priority(self, kind: int, priority: int) -> None:
        from repro.core.structures import check_priority

        info = self.deployment_info  # empty before connect: queue rules
        check_priority(info.get("structure", "queue"), kind, priority,
                       info.get("n_priorities"))

    def _queue_submit(self, session: _Session, pid: int, kind: int,
                      item: object, priority: int = 0) -> int:
        """Register one submission and put its frame in the session's
        outbox; returns the req_id.

        The pipe writes on the next loop iteration, so every submission
        staged meanwhile, traced or not, rides the same ``submit_batch``
        (:data:`repro.net.link.FOLD_SUBMITS`).
        """
        if session.closed:
            raise ConnectionError(f"host {session.index} hung up")
        check_packable(item)  # the caller's error, not the write loop's
        req_id = pack_req_id(session.nonce, session.seq, session.index,
                             self.id_slots)
        session.seq += 1
        self._pending[req_id] = asyncio.get_running_loop().create_future()
        self._pending_meta[req_id] = (pid, kind, item, priority)
        frame = {"op": "submit", "req": req_id, "pid": pid, "kind": kind,
                 "item": item}
        if priority:
            frame["pri"] = priority
        if self.trace_sample > 0.0 and trace_sampled(req_id, self.trace_sample):
            frame["tr"] = req_id
        session.send(frame)
        return req_id

    async def _submit(self, pid: int, kind: int, item: object,
                      priority: int = 0) -> int:
        self._check_priority(kind, priority)
        session = await self._ensure_host(self.host_for(pid))
        req_id = self._queue_submit(session, pid, kind, item, priority)
        # concurrent submitters all suspend here; the one write that
        # carries their frames wakes them together
        await session.flushed()
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
        sessions = {host: await self._ensure_host(host)
                    for host in {self.host_for(pid) for pid, _, _, _ in ops}}
        req_ids = [
            self._queue_submit(sessions[self.host_for(pid)], pid, kind, item,
                               priority)
            for pid, kind, item, priority in ops
        ]
        for session in sessions.values():
            await session.flushed()
        return req_ids

    async def _on_rejected(self, message: dict) -> None:
        """A submission bounced off a drain or a stale map: resubmit it.

        The replacement gets a fresh req_id on a live pid; completion of
        the replacement resolves the *original* req_id's future and
        result slot, so callers are oblivious (the collected history
        names the replacement id — churn-aware workloads use
        ``live_pids()`` to make this path rare).
        """
        self._apply_map(message.get("map"))
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
                try:
                    session = await self._ensure_host(self.host_for(pid))
                except (ConnectionError, OSError):
                    await asyncio.sleep(0.25)  # the failed greeting ended it
                    continue
                replacement = self._queue_submit(session, pid, kind, item,
                                                 priority)
                self._redirects[replacement] = root
                self.rejected_resubmits += 1
                return
            raise TimeoutError(
                f"request {root} could not be resubmitted: no reachable host"
            )
        except Exception as exc:
            if not future.done():
                future.set_exception(exc)

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
        return user_result(*self._results[req_id])

    # -- history / introspection ----------------------------------------------
    async def collect_records(
        self, timeout: float | None = 30.0
    ) -> list[OpRecord]:
        """Fetch every host's OpRecords (the history for `repro.verify`).

        Live hosts answer for themselves; records of hosts that drained
        out are served by the coordinator, which adopted their archives
        at retirement — the merged history stays complete across churn.
        """
        if self.cluster is not None:
            for index in list(self.cluster.hosts):
                await self._ensure_host(index)
        replies = await self._query_hosts({"op": "collect"}, timeout)
        records: list[OpRecord] = []
        for reply in replies:
            records.extend(reply["records"])
            self.errors.extend(reply["errors"])
        self._raise_errors()
        records.sort(key=lambda rec: rec.req_id)
        return records

    async def _query_hosts(
        self, query: dict, timeout: float | None
    ) -> list[dict]:
        """Send ``query`` to every connected host; gather the answers.

        The query queues behind whatever was submitted before it, and
        replies on one connection are FIFO, so each session keeps a
        queue of waiters per answer type and the oldest takes each
        reply: overlapping calls each get their own answer.  A session
        that ends fails its waiters (:meth:`_end_session`).
        """
        loop = asyncio.get_running_loop()
        answer = _QUERY_ANSWERS[query["op"]]
        futures = []
        for session in self._sessions.values():
            if session.nonce is not None:  # greeted
                future = loop.create_future()
                session.waiters[answer].append(future)
                futures.append(future)
                session.send(query)
        return await asyncio.wait_for(asyncio.gather(*futures), timeout)

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
        for rid in (req_id, self._redirects.pop(req_id, None)):
            if rid is None:
                continue
            self._results[rid] = (kind, result)
            # the meta is only needed while a resubmission is still
            # possible; drop it on completion (it holds the enqueued
            # item object)
            self._pending_meta.pop(rid, None)
            future = self._pending.get(rid)
            if future is not None and not future.done():
                future.set_result(True)

    def _on_frame(self, session: _Session, message: dict) -> None:
        op = message.get("op")
        if op == "done":
            self._handle_done(message["req"], message["kind"],
                              message["result"])
        elif op == "rejected":
            self._spawn(self._on_rejected(message))
        elif op == "host_map":
            self._apply_map(message["map"])
        elif op == "update_over":
            self.last_update_over = message
        elif op in session.waiters:
            if session.waiters[op]:
                future = session.waiters[op].popleft()
                if not future.done():  # its caller timed out
                    future.set_result(message)
        elif op == "welcome":
            future = session.welcome
            if future is not None and not future.done():
                future.set_result(message)
        elif op == "error":
            future = session.welcome
            if future is not None and not future.done():
                # nothing but the hello was sent yet: this answers it
                future.set_exception(ConnectionError(
                    f"host {session.index} refused the hello: "
                    f"{message['message']}"))
            else:
                self.errors.append(
                    f"[host {session.index}] {message['message']}")
        elif op in ("bye", "wired", "leaving"):
            pass
        else:
            self.errors.append(
                f"[host {session.index}] unexpected frame {message!r}")

    def _raise_errors(self) -> None:
        if self.errors:
            raise RuntimeError("deployment reported errors:\n" + "\n".join(self.errors))
