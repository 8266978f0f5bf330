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
* a periodic *sweep* (``sweep_seconds``, 0 disables) re-runs TIMEOUT on
  every local actor.  Only this runtime has one: it covers no missing
  wake, it runs paced TIMEOUTs early, which shortens the open-loop
  latency tail (DESIGN.md, "The net runtime" has the measurements);
* ``now`` — wall clock scaled to *round units* (one unit ≈ one nominal
  message delay, ``round_seconds``), so protocol constants expressed in
  rounds (retry cadences, grace periods) keep their meaning.

Records are not this module's business: ``ctx.records`` on a host is a
:class:`repro.net.records.RecordTable` (see that module for how a
request's facts merge, travel and are held).
"""

from __future__ import annotations

import time
from asyncio import TimerHandle
from typing import Callable

from repro.core.actions import A_WAKE
# re-exported: the frozen perfbench/layers.py imports both from here
from repro.net.records import NetOpRecord, RecordTable
from repro.sim.metrics import Metrics
from repro.sim.process import Runtime

__all__ = [
    "TIMEOUT_LAG",
    "NetOpRecord",
    "NetRuntime",
    "RecordTable",
]

#: Default re-arm pace in seconds, the one every ``NodeHost`` runs: how
#: long a node that re-arms lets requests gather before it fires its next
#: batch.
#: Chosen by measurement on the repo benchmark: a shorter pace buys
#: latency with idle-wave CPU (see DESIGN.md, "The net runtime").
TIMEOUT_LAG = 0.015


class NetRuntime(Runtime):
    """Event-loop runtime hosting one shard of actors over TCP.

    ``send_remote`` is the host-provided escape hatch for destinations
    outside the local shard.  ``timeout_lag`` is the re-arm pace in
    seconds, paid once per wave (see the module docstring).
    """

    def __init__(
        self,
        send_remote: Callable[[int, int, tuple], None],
        metrics: Metrics | None = None,
        round_seconds: float = 0.01,
        timeout_lag: float = TIMEOUT_LAG,
        sweep_seconds: float = 0.25,
        epoch: float = 0.0,
    ) -> None:
        super().__init__(metrics)
        self.send_remote = send_remote
        self.round_seconds = round_seconds
        self.timeout_lag = timeout_lag
        self.sweep_seconds = sweep_seconds
        # the one pending TIMEOUT per actor: the timer of a paced one,
        # None for one already queued for the next loop iteration
        self._timeout_pending: dict[int, TimerHandle | None] = {}
        # `now` derives from the wall clock against a deployment-wide
        # epoch (the launcher stamps one into every HostConfig), so
        # latency observed across hosts — gen on the origin, completion
        # at the DHT node — is measured against one clock, not per-host
        # start times skewed by the sequential wiring
        self._epoch = epoch or time.time()
        self._loop = None
        self._sweep_handle = None
        self._closed = False
        # bumped by every `reset`: a delivery or TIMEOUT queued before it
        # carries the old era and is dropped when its callback runs
        self._era = 0
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
        self.reset()

    def reset(self) -> None:
        """Tear down every actor but keep the runtime serving.

        Crash recovery rebuilds the whole shard from scratch (see
        ``repro.ops.recovery``): the old actors, their pending TIMEOUTs
        and the forwarding table all belong to the dead epoch.  Loop
        binding and the sweep survive — ``spawn_nodes`` repopulates
        ``actors`` and the host kicks them.  A local delivery or TIMEOUT
        queued before the reset is dropped when it runs, even if an actor
        of the same id has been spawned since.
        """
        self._era += 1
        for timer in self._timeout_pending.values():
            if timer is not None:
                timer.cancel()
        self._timeout_pending.clear()
        super().close()  # the tables only: the loop binding stays

    # -- runtime protocol ----------------------------------------------------
    @property
    def now(self) -> float:
        return (time.time() - self._epoch) / self.round_seconds

    def send(self, dest: int, action: int, payload: tuple) -> None:
        self.metrics.messages += 1
        if dest in self._forwards:
            if self.bounce_forwarded_batch(action, payload):
                return  # tree-up batch to a departed parent
            dest = self.resolve(dest)
        if dest in self.actors:
            self._loop.call_soon(self.deliver, dest, action, payload, self._era)
        else:
            self.send_remote(dest, action, payload)

    def request_timeout(self, actor_id: int, arrival: bool = False) -> None:
        if self._closed:
            return
        pending = self._timeout_pending
        if not arrival:
            if actor_id not in pending:
                pending[actor_id] = self._loop.call_later(
                    self.timeout_lag, self._fire_timeout, actor_id, self._era
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
        self._loop.call_soon(self._fire_timeout, actor_id, self._era)

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
            max(delay, 1.0) * self.round_seconds,
            self._fire_timeout, actor_id, self._era, False,
        )

    # -- forwards --------------------------------------------------------------
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

    # -- event-loop callbacks ------------------------------------------------
    def _guard(self, actor_id: int, fn: Callable[..., None], *args) -> None:
        try:
            fn(*args)
        except Exception as exc:  # surface, don't kill the loop
            if self.on_actor_error is not None:
                self.on_actor_error(actor_id, exc)
            else:  # pragma: no cover - default only without a host
                raise

    def deliver(self, dest: int, action: int, payload: tuple,
                era: int | None = None) -> None:
        """Hand a message to its local actor: the callback ``send``
        queues for local destinations (stamped with the ``era`` it was
        sent in), and the host's entry point for messages arriving off
        the wire."""
        if era is not None and era != self._era:
            return  # sent to an actor of a shard torn down since
        # re-resolve: the destination may have departed (leaving a
        # forward) between scheduling and this callback — re-routing must
        # use the *resolved* id or the host would drop the message as
        # unroutable-to-self
        if dest in self._forwards:
            if self.bounce_forwarded_batch(action, payload):
                return
            dest = self.resolve(dest)
        actor = self.actors.get(dest)
        if actor is None:
            self.send_remote(dest, action, payload)
            return
        self._guard(dest, actor.handle, action, payload)

    def _fire_timeout(self, actor_id: int, era: int,
                      requested: bool = True) -> None:
        if era != self._era:
            return  # requested by an actor of a shard torn down since
        # a `call_later` timer (not `requested`) is no actor's pending TIMEOUT
        if requested:
            self._timeout_pending.pop(actor_id, None)
        actor = self.actors.get(actor_id)
        if actor is not None:
            self._guard(actor_id, actor.timeout)

    def _sweep(self) -> None:
        if self._closed:
            return
        for actor_id, actor in list(self.actors.items()):
            self._guard(actor_id, actor.timeout)
        self._sweep_handle = self._loop.call_later(self.sweep_seconds, self._sweep)
