"""Asyncio implementation of the :class:`repro.sim.process.Runtime` contract.

One :class:`NetRuntime` lives inside one :class:`~repro.net.server.NodeHost`
OS process and hosts that process's shard of virtual nodes.  The contract
maps onto the event loop as follows:

* ``send`` — local destinations are delivered on the next loop iteration
  (``call_soon``, preserving the strictly-positive-delay assumption);
  remote destinations are framed and shipped over the host's peer links;
* ``request_timeout`` — the paper's event-driven TIMEOUT, one pending
  per actor.  A node that re-arms (after its SERVE, a fresh request, a
  membership wake) is *paced*: its TIMEOUT runs ``timeout_lag`` later,
  which is what lets requests gather into a batch.  A TIMEOUT requested
  because a child's batch arrived runs on the next loop iteration, so
  the pace is paid once per wave — by the nodes that start it — and not
  again at every level the wave climbs;
* ``wake`` — cross-actor readiness push: local targets get the ordinary
  TIMEOUT path, remote targets an ``A_WAKE`` message over the peer link;
* an optional periodic *safety sweep* (``sweep_seconds``, 0 disables)
  re-runs TIMEOUT on every local actor as a belt-and-braces recheck —
  not load-bearing since readiness became push-driven;
* ``now`` — wall clock scaled to *round units* (one unit ≈ one nominal
  message delay, ``round_seconds``), so protocol constants expressed in
  rounds (retry cadences, grace periods) keep their meaning.

Record bookkeeping: protocol code completes an INSERT at the DHT node
that stores the element — on a sharded deployment that node may live in a
different OS process than the one holding the :class:`OpRecord`.
:class:`RecordTable` makes ``ctx.records[req_id]`` work anyway: local
ids resolve to real records, remote ids to a stub whose ``completed``
setter forwards a ``complete`` sync frame to the origin host.  Req_ids
encode their origin in the low residue (``req_id % id_slots`` is the
submitting host index, with ``id_slots`` fixed at genesis so the scheme
survives hosts joining and leaving) regardless of how many clients
submit concurrently — the client nonce and sequence counter live in the
high bits (see :func:`repro.core.requests.pack_req_id`), so this table
is oblivious to the multi-client id scheme.

Live membership adds a third kind of entry: when a draining host's node
dumps its unflushed requests (``DEPART_DUMP``), the adopting host
registers the wire copies as :class:`AdoptedRecord` proxies.  The proxy
rides the adopter's waves like a local record, but every fact the
protocol learns about it — the witness-order ``value`` assigned in stage
3, the dequeued ``result``, completion — is forwarded to the origin
host, which owns the canonical record and the client connection.
"""

from __future__ import annotations

import time
from asyncio import TimerHandle
from typing import Callable, Iterable

from repro.core.actions import A_WAKE
from repro.core.requests import OpRecord
from repro.sim.metrics import Metrics
from repro.sim.process import bounce_forwarded_batch

__all__ = [
    "TIMEOUT_LAG",
    "AdoptedRecord",
    "NetOpRecord",
    "NetRuntime",
    "RecordTable",
]

#: Default re-arm pace in seconds (``HostConfig.timeout_lag``): how long a
#: node that re-arms lets requests gather before it fires its next batch.
#: Chosen by measurement on the repo benchmark: a shorter pace buys
#: latency with idle-wave CPU (see DESIGN.md, "The net runtime").
TIMEOUT_LAG = 0.015


class NetRuntime:
    """Event-loop runtime hosting one shard of actors over TCP.

    Implements the :class:`repro.sim.process.Runtime` contract (asserted
    by ``tests/unit/test_runtime_contract.py``).  ``send_remote`` is the
    host-provided escape hatch for destinations outside the local shard.
    ``timeout_lag`` is the re-arm pace in seconds, paid once per wave
    (see the module docstring).
    """

    sharded = True  # `actors` is this host's shard; other ids live elsewhere

    def __init__(
        self,
        send_remote: Callable[[int, int, tuple], None],
        metrics: Metrics | None = None,
        round_seconds: float = 0.01,
        timeout_lag: float = TIMEOUT_LAG,
        sweep_seconds: float = 0.25,
        epoch: float = 0.0,
    ) -> None:
        self.send_remote = send_remote
        self.metrics = metrics or Metrics()
        self.round_seconds = round_seconds
        self.timeout_lag = timeout_lag
        self.sweep_seconds = sweep_seconds
        # contract attribute; never consulted — wall-clock scheduling
        # over real sockets cannot be recorded or replayed
        self.schedule_hint = None
        self.actors: dict[int, object] = {}
        # the one pending TIMEOUT per actor: the timer of a paced one,
        # None for one already queued for the next loop iteration
        self._timeout_pending: dict[int, TimerHandle | None] = {}
        self._forwards: dict[int, int] = {}
        # `now` derives from the wall clock against a deployment-wide
        # epoch (the launcher stamps one into every HostConfig), so
        # latency observed across hosts — gen on the origin, completion
        # at the DHT node — is measured against one clock, not per-host
        # start times skewed by the sequential wiring
        self._epoch = epoch or time.time()
        self._loop = None
        self._sweep_handle = None
        self._closed = False
        self.on_actor_error: Callable[[int, BaseException], None] | None = None

    # -- lifecycle -----------------------------------------------------------
    def start(self, loop) -> None:
        """Bind to the running event loop and start the safety sweep."""
        self._loop = loop
        if self.sweep_seconds:
            self._sweep_handle = loop.call_later(self.sweep_seconds, self._sweep)

    def close(self) -> None:
        self._closed = True
        if self._sweep_handle is not None:
            self._sweep_handle.cancel()
            self._sweep_handle = None
        self._drop_actors()

    def _drop_actors(self) -> None:
        self.actors.clear()
        for timer in self._timeout_pending.values():
            if timer is not None:
                timer.cancel()
        self._timeout_pending.clear()
        self._forwards.clear()

    def reset(self) -> None:
        """Tear down every actor but keep the runtime serving.

        Crash recovery rebuilds the whole shard from scratch (see
        ``repro.ops.recovery``): the old actors, their pending TIMEOUTs
        and the forwarding table all belong to the dead epoch.  Loop
        binding and the sweep survive — ``spawn_nodes`` repopulates
        ``actors`` and the host kicks them.  Callbacks already scheduled
        for removed actors no-op harmlessly (the actor lookup misses).
        """
        self._drop_actors()

    # -- runtime protocol ----------------------------------------------------
    @property
    def now(self) -> float:
        return (time.time() - self._epoch) / self.round_seconds

    def send(self, dest: int, action: int, payload: tuple) -> None:
        self.metrics.messages += 1
        resolved = self.resolve(dest)
        if resolved != dest and bounce_forwarded_batch(self, action, payload):
            return  # tree-up batch to a departed parent
        if resolved in self.actors:
            self._loop.call_soon(self.deliver, resolved, action, payload)
        else:
            self.send_remote(resolved, action, payload)

    def request_timeout(self, actor_id: int, arrival: bool = False) -> None:
        if self._closed:
            return
        pending = self._timeout_pending
        if not arrival:
            if actor_id not in pending:
                pending[actor_id] = self._loop.call_later(
                    self.timeout_lag, self._fire_timeout, actor_id
                )
            return
        if actor_id in pending:
            timer = pending[actor_id]
            if timer is None:
                return  # already queued for the next iteration
            # the arrival brings the paced TIMEOUT forward; one TIMEOUT
            # serves both requests, as it sees every change made before it
            timer.cancel()
        pending[actor_id] = None
        self._loop.call_soon(self._fire_timeout, actor_id)

    def wake(self, actor_id: int) -> None:
        """Cross-actor wake: a TIMEOUT for ``actor_id`` wherever it lives.

        Locally this is the ordinary event-driven TIMEOUT path; for an
        actor hosted by another OS process it ships an ``A_WAKE`` message
        and the destination answers with ``wake_me()`` — the wake crosses
        the wire exactly like any other protocol message."""
        if self._closed:
            return
        resolved = self.resolve(actor_id)
        if resolved in self.actors:
            self.request_timeout(resolved)
        else:
            self.send_remote(resolved, A_WAKE, ())

    def call_later(self, actor_id: int, delay: float) -> None:
        self._loop.call_later(
            max(delay, 1.0) * self.round_seconds, self._fire_timer, actor_id
        )

    # -- actor management ----------------------------------------------------
    def add_actor(self, actor) -> None:
        if actor.aid in self.actors:
            raise ValueError(f"duplicate actor id {actor.aid}")
        self.actors[actor.aid] = actor

    def remove_actor(self, actor_id: int, forward_to: int | None = None) -> None:
        del self.actors[actor_id]
        if forward_to is not None:
            self._forwards[actor_id] = forward_to

    @property
    def forwards(self) -> dict[int, int]:
        """Forwarding addresses left by departed actors (read by the host
        to publish them cluster-wide when this host retires)."""
        return dict(self._forwards)

    def add_forwards(self, forwards: dict[int, int]) -> None:
        """Install forwards learned from retired hosts' cluster maps, so
        routed stragglers to their spliced-out nodes resolve locally."""
        for vid, target in forwards.items():
            if vid not in self.actors and vid != target:
                self._forwards[vid] = target

    def resolve(self, actor_id: int) -> int:
        while actor_id in self._forwards:
            actor_id = self._forwards[actor_id]
        return actor_id

    def kick(self, actor_ids: Iterable[int] | None = None) -> None:
        ids = actor_ids if actor_ids is not None else list(self.actors.keys())
        for actor_id in ids:
            self.request_timeout(actor_id)

    # -- event-loop callbacks ------------------------------------------------
    def _guard(self, actor_id: int, fn: Callable[..., None], *args) -> None:
        try:
            fn(*args)
        except Exception as exc:  # surface, don't kill the loop
            if self.on_actor_error is not None:
                self.on_actor_error(actor_id, exc)
            else:  # pragma: no cover - default only without a host
                raise

    def deliver(self, dest: int, action: int, payload: tuple) -> None:
        """Hand a message to its local actor: the callback ``send``
        queues for local destinations, and the host's entry point for
        messages arriving off the wire."""
        # re-resolve: the destination may have departed (leaving a
        # forward) between scheduling and this callback — re-routing must
        # use the *resolved* id or the host would drop the message as
        # unroutable-to-self
        resolved = self.resolve(dest)
        if resolved != dest and bounce_forwarded_batch(self, action, payload):
            return
        actor = self.actors.get(resolved)
        if actor is None:
            self.send_remote(resolved, action, payload)
            return
        self._guard(resolved, actor.handle, action, payload)

    def _fire_timeout(self, actor_id: int) -> None:
        self._timeout_pending.pop(actor_id, None)
        if self._closed:
            return
        actor = self.actors.get(actor_id)
        if actor is not None:
            self._guard(actor_id, actor.timeout)

    def _fire_timer(self, actor_id: int) -> None:
        if self._closed:
            return
        actor = self.actors.get(actor_id)
        if actor is not None:
            self._guard(actor_id, actor.timeout)

    def _sweep(self) -> None:
        if self._closed:
            return
        for actor_id, actor in list(self.actors.items()):
            self._guard(actor_id, actor.timeout)
        self._sweep_handle = self._loop.call_later(self.sweep_seconds, self._sweep)


class NetOpRecord(OpRecord):
    """An :class:`OpRecord` whose completion triggers a host callback.

    The protocol flips ``completed`` from deep inside a message handler;
    the host uses the callback to push a DONE frame to the submitting
    client without polling.  ``on_valued`` fires when stage 3 assigns
    the witness-order value — the host mirrors the value to the record's
    replica holders at that moment, which is what lets crash recovery
    replay the record's place in the witness order even though the value
    was assigned on the host that died (see ``repro.ops.recovery``).
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


class _RemoteRecordStub:
    """Stand-in for a record owned by another host.

    The DHT-side completion path sets ``completed = True``, which
    forwards a ``complete`` sync frame to the origin host; any ``value``/
    ``result``/``local_match`` learned beforehand rides along.
    """

    __slots__ = (
        "req_id", "_notify", "_done", "value", "result", "local_match", "gen"
    )

    def __init__(self, req_id: int, notify: Callable[[int, dict], None]) -> None:
        self.req_id = req_id
        self._notify = notify
        self._done = False
        self.value = None
        self.result = None
        self.local_match = False
        self.gen = None  # unknown here; the origin host owns the real record

    @property
    def completed(self) -> bool:
        return self._done

    @completed.setter
    def completed(self, value: bool) -> None:
        if value and not self._done:
            self._done = True
            self._notify(self.req_id, _sync_fields(self, done=True))


class AdoptedRecord(OpRecord):
    """Wire copy of a record adopted across a host boundary (LEAVE).

    A draining node's unflushed requests ride the adopting node's next
    wave (see ``QueueNode._adopt_records``).  The adopter learns facts
    the origin host needs — stage-3 assigns the witness-order ``value``
    here, a GET reply lands here — so the setters forward each fact as a
    ``complete`` sync frame: ``value`` immediately (an INSERT's
    completion happens at a *third* host, the DHT node, which never sees
    the value), ``result`` and ``local_match`` together with completion.
    """

    __slots__ = ("_value", "_result", "_done", "_notify")

    def __init__(self, rec: OpRecord, notify: Callable[[int, dict], None]) -> None:
        self._value = None
        self._result = None
        self._done = False
        self._notify = None  # muted while copying the donor's fields
        super().__init__(
            rec.req_id, rec.pid, rec.idx, rec.kind, rec.item, rec.gen,
            priority=getattr(rec, "priority", 0),
        )
        self._value = rec.value
        self._result = rec.result
        self.local_match = rec.local_match
        self._notify = notify

    @property
    def value(self):
        return self._value

    @value.setter
    def value(self, value) -> None:
        self._value = value
        if value is not None and self._notify is not None:
            self._notify(self.req_id, {"value": value})

    @property
    def result(self):
        return self._result

    @result.setter
    def result(self, result) -> None:
        self._result = result

    @property
    def completed(self) -> bool:
        return self._done

    @completed.setter
    def completed(self, value: bool) -> None:
        if self._notify is None:  # OpRecord.__init__ writing the default
            self._done = bool(value)
            return
        if value and not self._done:
            self._done = True
            self._notify(self.req_id, _sync_fields(self, done=True))


def _sync_fields(rec, done: bool = False) -> dict:
    """The payload of a ``complete`` sync frame (encoded by the host)."""
    fields: dict = {}
    if done:
        fields["done"] = True
    if rec.value is not None:
        fields["value"] = rec.value
    if rec.result is not None:
        fields["result"] = rec.result
    if rec.local_match:
        fields["local_match"] = True
    return fields


class RecordTable:
    """``ctx.records`` for a sharded deployment (mapping by req_id).

    The sim facade uses a plain list (req_id == index); hosts use this
    table, which distinguishes locally submitted records from remote ones
    by the origin residue baked into every req_id.  ``id_slots`` is the
    genesis-fixed residue modulus — *not* the current host count, which
    may change under churn (see :class:`repro.net.membership.ClusterMap`).
    """

    __slots__ = (
        "host_index",
        "id_slots",
        "local",
        "_adopted",
        "_stubs",
        "_notify_origin",
    )

    def __init__(
        self,
        host_index: int,
        id_slots: int,
        notify_origin: Callable[[int, dict], None],
    ) -> None:
        self.host_index = host_index
        self.id_slots = id_slots
        self.local: dict[int, NetOpRecord] = {}
        self._adopted: dict[int, AdoptedRecord] = {}
        self._stubs: dict[int, _RemoteRecordStub] = {}
        self._notify_origin = notify_origin

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
        """Entry point for records arriving in a ``DEPART_DUMP``.

        A record whose origin is this very host is simply the local
        record (the dump was delivered in-process); anything else becomes
        a forwarding :class:`AdoptedRecord`, memoised so later lookups
        (GET replies) find the same object the wave is carrying.
        """
        local = self.local.get(rec.req_id)
        if local is not None:
            return local
        adopted = self._adopted.get(rec.req_id)
        if adopted is None:
            adopted = self._adopted[rec.req_id] = AdoptedRecord(
                rec, self._notify_origin
            )
        return adopted

    def __getitem__(self, req_id: int):
        rec = self.local.get(req_id)
        if rec is not None:
            return rec
        adopted = self._adopted.get(req_id)
        if adopted is not None:
            return adopted
        if self.origin_of(req_id) == self.host_index:
            raise KeyError(f"unknown local req_id {req_id}")
        stub = self._stubs.get(req_id)
        if stub is None:
            stub = self._stubs[req_id] = _RemoteRecordStub(
                req_id, self._notify_origin
            )
        return stub

    def __len__(self) -> int:
        return len(self.local)

    def values(self):
        return self.local.values()

    def reset_proxies(self) -> None:
        """Drop every stub and adopted proxy at a recovery epoch change.

        Both kinds memoise one-shot ``_done`` latches; a stale latch
        surviving into the rebuilt epoch would silently swallow the
        completion notification of a re-run record.  Canonical local
        records are untouched."""
        self._adopted.clear()
        self._stubs.clear()
