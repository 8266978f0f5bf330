"""Actor model and the runtime contract shared by every execution engine.

An actor is the paper's *process* (here: one virtual node of the LDB, or a
baseline server/client).  Messages are remote action calls ``(action,
payload)``; actions are identified by small integer codes owned by each
protocol module so dispatch stays cheap at 10^5-actor scale.  The
``timeout`` method is the paper's TIMEOUT action.  "Periodically" has no
global clock to hang onto, so every engine runs it event-driven: when the
actor asked (``wake_me``), a peer pushed a wake, a ``call_later`` timer
expired, or the engine was kicked.

:class:`Runtime` is the **explicit contract** those engines implement and
the base class they share: it holds the actor table, the forwarding
addresses and everything that reads only those, so an engine supplies
just its clock, its channel (``send``), its TIMEOUT scheduling and its
loop.  Protocol code (``repro.core.protocol.Node``) programs only
against this surface, which is what lets the *same unmodified* actors
run on the in-process simulators and over real asyncio TCP (see
DESIGN.md, "Runtime contract").  Three engines derive from it:

* :class:`repro.sim.sync_runner.SyncRunner` — deterministic rounds;
* :class:`repro.sim.async_runner.AsyncRunner` — event heap, arbitrary
  positive message delays (the paper's asynchronous model);
* :class:`repro.net.runtime.NetRuntime` — an asyncio event loop inside a
  ``NodeHost`` OS process, shipping remote messages over TCP.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

from repro.sim.metrics import Metrics

__all__ = ["Actor", "Runtime", "ScheduleHint"]


@runtime_checkable
class ScheduleHint(Protocol):
    """Override of an engine's nondeterministic scheduling choices.

    Engines consult ``runtime.schedule_hint`` (``None`` by default) at
    every point where they would otherwise draw from their seeded RNG:

    * the :class:`~repro.sim.sync_runner.SyncRunner` asks
      :meth:`deliveries` for the delivery order of each round's inbox
      instead of shuffling it;
    * the :class:`~repro.sim.async_runner.AsyncRunner` asks
      :meth:`delay` for every message delay instead of sampling the
      delay policy (its event-heap tiebreak — the monotone sequence
      counter — is already deterministic, so delays are the engine's
      only source of nondeterminism).

    The two implementations in :mod:`repro.testing.schedule` make a run
    reproducible *independently of RNG state*: a ``ScheduleRecorder``
    draws exactly as the engine would and writes the choices down, a
    ``ScheduleReplayer`` plays a recorded trace back bit-identically.
    The TCP runtime accepts the attribute for contract uniformity but
    never consults it (wall-clock scheduling cannot be replayed).
    """

    def deliveries(self, round_no: int, inbox: list, rng) -> list:
        """Delivery order for one synchronous round's inbox."""
        ...

    def delay(self, src: int, dest: int, rng, policy) -> float:
        """Delay for the next asynchronous message send."""
        ...


class Runtime:
    """What an actor (and the cluster facade) may ask of its engine, and
    the part every engine shares.

    The base holds the actor table, the forwarding addresses departed
    actors leave, and everything that reads only those: ``add_actor``,
    ``remove_actor``, ``resolve``, ``wake``, ``kick``, the bounce of a
    forwarded tree batch and the table-clearing part of ``close``.  An
    engine supplies ``now``, ``send``, ``request_timeout``,
    ``call_later`` and its own loop.

    Semantics every engine must honour:

    * ``send`` never loses or duplicates a message and delivers it after
      a strictly positive delay — the paper's channel assumptions;
      delivery order between two sends is *not* guaranteed (the sync
      engine optionally shuffles, the async engine draws random delays,
      TCP is FIFO per connection — all within the model);
    * ``request_timeout`` schedules a TIMEOUT for the actor *soon*
      (next round / after a small lag).  ``arrival=True`` says why: a
      child's batch just arrived, so the actor may now hold everything
      its wave was waiting for.  The simulators schedule both kinds
      identically; the TCP runtime runs an arrival TIMEOUT on the next
      loop iteration and paces every other one, so a wave pays the pace
      once — where a node re-arms — and not again at every tree level;
    * ``wake`` is the cross-actor form of ``request_timeout``: the actor
      that just *changed* state pushes a TIMEOUT at the actor whose
      readiness may depend on it, so no readiness condition has to wait
      for polling.  For an actor hosted elsewhere (sharded TCP) the
      engine ships an ``A_WAKE`` message and the receiver answers with
      ``wake_me()``.  Readiness is pushed: the simulators run no
      periodic sweep, so a TIMEOUT runs only because the actor asked, a
      peer woke it, a ``call_later`` timer expired or the engine was
      kicked.  Only the TCP runtime keeps a sweep (``sweep_seconds``);
      it covers no missing wake there either, it runs paced TIMEOUTs
      early (DESIGN.md, "The net runtime");
    * ``actors`` is the engine's **local** view: in the simulators it
      holds every actor, in a sharded TCP deployment only the shard
      hosted by this OS process.  Protocol code treats a missing entry
      as "not hosted here" and falls back to messaging; it reads an
      entry only for the caller's own process (one process's three
      virtual nodes are one engine's), never another's.
    """

    def __init__(self, metrics: Metrics | None = None) -> None:
        self.metrics = metrics or Metrics()
        #: optional scheduling override (trace recording/replay); an
        #: engine with no RNG-driven choices never consults it
        self.schedule_hint: ScheduleHint | None = None
        #: locally hosted actors, keyed by actor id
        self.actors: dict[int, Actor] = {}
        self._forwards: dict[int, int] = {}

    # -- what each engine supplies -----------------------------------------
    @property
    def now(self) -> float:
        """Current round (sync), virtual time (async), or scaled wall
        clock (net) — one unit ≈ one message delay."""
        raise NotImplementedError

    def send(self, dest: int, action: int, payload: tuple) -> None:
        raise NotImplementedError

    def request_timeout(self, actor_id: int, arrival: bool = False) -> None:
        raise NotImplementedError

    def call_later(self, actor_id: int, delay: float) -> None:
        raise NotImplementedError

    # -- shared ----------------------------------------------------------------
    def wake(self, actor_id: int) -> None:
        """Cross-actor wake: schedule a TIMEOUT for ``actor_id``, wherever
        it lives.  Draws no randomness on any engine (replay-safe)."""
        self.request_timeout(self.resolve(actor_id))

    def add_actor(self, actor: "Actor") -> None:
        if actor.aid in self.actors:
            raise ValueError(f"duplicate actor id {actor.aid}")
        self.actors[actor.aid] = actor

    def remove_actor(self, actor_id: int, forward_to: int | None = None) -> None:
        """Remove an actor, optionally leaving a forwarding address:
        messages still on their way to it are handed to ``forward_to``,
        the paper's guarantee for a leaving node's replacement."""
        del self.actors[actor_id]
        if forward_to is not None:
            self._forwards[actor_id] = forward_to

    def resolve(self, actor_id: int) -> int:
        """Follow forwarding addresses left by departed actors."""
        while actor_id in self._forwards:
            actor_id = self._forwards[actor_id]
        return actor_id

    def kick(self, actor_ids: Iterable[int] | None = None) -> None:
        """Schedule an initial TIMEOUT for the given actors (default: all)."""
        for actor_id in list(self.actors) if actor_ids is None else actor_ids:
            self.request_timeout(actor_id)

    def bounce_forwarded_batch(self, action: int, payload: tuple) -> bool:
        """Refuse to deliver a stage-1 batch through a forwarding address.

        Forwarding addresses left by departed nodes are for *routed*
        traffic (DHT messages, membership control) — they point at the
        node that took over the departed node's data, which sits at an
        arbitrary cycle position.  A tree-up aggregation batch (a
        ``tree_batch`` row of :data:`repro.core.actions.CATALOG`)
        following such a forward would inject an edge into the wave
        graph that can point *downstream* of the sender, closing a
        serve-dependency cycle that freezes the whole pipeline (every
        member of the cycle waits for a SERVE that transitively depends
        on its own batch).  Every engine therefore bounces such batches
        back to their sender as a REQUEUE: the sender reclaims the batch
        (it was never combined, so no positions are lost) and re-fires
        at its — by then healed — parent.

        Called only for a destination that is forwarded; returns True
        when the message was bounced and must not be delivered.
        """
        from repro.core.actions import A_REQUEUE, CATALOG

        if not CATALOG[action].tree_batch:
            return False
        self.send(payload[0], A_REQUEUE, (0,))
        return True

    def close(self) -> None:
        """Drop every actor and forward; the engine must not run after."""
        self.actors.clear()
        self._forwards.clear()


class Actor:
    """Base class for protocol participants.

    Subclasses implement :meth:`handle` (dispatch on the integer action
    code) and :meth:`timeout`.  ``aid`` is the engine-wide address used as
    message destination.
    """

    __slots__ = ("aid", "runtime")

    def __init__(self, aid: int, runtime: Runtime) -> None:
        self.aid = aid
        self.runtime = runtime

    # -- messaging ----------------------------------------------------------
    def send(self, dest: int, action: int, payload: tuple) -> None:
        self.runtime.send(dest, action, payload)

    def wake_me(self, arrival: bool = False) -> None:
        """Ask the engine to run :meth:`timeout` at the next opportunity
        (``arrival``: because a child's batch arrived, see
        :meth:`Runtime.request_timeout`)."""
        self.runtime.request_timeout(self.aid, arrival)

    # -- to override ---------------------------------------------------------
    def handle(self, action: int, payload: tuple) -> None:  # pragma: no cover
        raise NotImplementedError

    def timeout(self) -> None:
        """The paper's TIMEOUT action; default: nothing to do."""
