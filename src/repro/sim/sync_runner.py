"""Synchronous round-based engine (the model of Sections I-B and VII).

Semantics:

* time proceeds in integer rounds;
* every message sent in round *i* is delivered in round *i + 1*;
* within a round, delivery order is arbitrary (optionally shuffled with a
  seeded RNG to model the non-FIFO channels of the asynchronous model);
* after all deliveries of a round, TIMEOUT runs — event-driven: only
  actors whose readiness may have changed (they called ``wake_me``) are
  checked, plus actors with an expired ``call_later`` timer.  This is a
  pure optimisation: an actor whose state did not change since its last
  TIMEOUT would take the same (no-op) branch, so skipping it preserves the
  per-round TIMEOUT semantics while keeping 10^5-node rounds affordable.

Departed actors can leave a *forwarding address* (used by the LEAVE
protocol): messages to a forwarded id are transparently re-addressed to
the absorbing actor, modelling the paper's guarantee that messages still
on their way to a leaving node are handed over to its replacement.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

from repro.sim.metrics import Metrics
from repro.sim.process import Actor, bounce_forwarded_batch
from repro.util.rng import RngStreams

__all__ = ["SyncRunner"]


class SyncRunner:
    """Deterministic synchronous message-passing engine.

    Implements the :class:`repro.sim.process.Runtime` contract (asserted
    by ``tests/unit/test_runtime_contract.py``).
    """

    def __init__(
        self,
        rng: RngStreams | None = None,
        metrics: Metrics | None = None,
        shuffle_delivery: bool = True,
    ) -> None:
        self.rng = rng or RngStreams(0)
        self.metrics = metrics or Metrics()
        self.shuffle_delivery = shuffle_delivery
        self.round = 0
        #: optional scheduling override (see repro.sim.process.ScheduleHint)
        self.schedule_hint = None
        self.actors: dict[int, Actor] = {}
        self._inbox_next: list[tuple[int, int, tuple]] = []
        self._timeout_now: set[int] = set()
        self._timers: list[tuple[int, int]] = []  # (due_round, actor_id)
        self._forwards: dict[int, int] = {}
        self._delivery_rng = self.rng.py("delivery")

    # -- runtime protocol ----------------------------------------------------
    @property
    def now(self) -> float:
        return float(self.round)

    def send(self, dest: int, action: int, payload: tuple) -> None:
        self._inbox_next.append((dest, action, payload))
        self.metrics.messages += 1

    def request_timeout(self, actor_id: int, arrival: bool = False) -> None:
        # either kind runs when this round's deliveries are done
        self._timeout_now.add(actor_id)

    def wake(self, actor_id: int) -> None:
        """Cross-actor wake: TIMEOUT for ``actor_id`` in the next round's
        sorted TIMEOUT set — same mechanism as ``request_timeout``, named
        separately because the *caller* is another actor pushing a
        readiness change rather than the actor scheduling itself."""
        self._timeout_now.add(self.resolve(actor_id))

    def call_later(self, actor_id: int, delay: float) -> None:
        heapq.heappush(self._timers, (self.round + max(1, int(delay)), actor_id))

    # -- actor management ------------------------------------------------------
    def add_actor(self, actor: Actor) -> None:
        if actor.aid in self.actors:
            raise ValueError(f"duplicate actor id {actor.aid}")
        self.actors[actor.aid] = actor

    def remove_actor(self, actor_id: int, forward_to: int | None = None) -> None:
        """Remove an actor, optionally leaving a forwarding address."""
        del self.actors[actor_id]
        if forward_to is not None:
            self._forwards[actor_id] = forward_to

    def resolve(self, actor_id: int) -> int:
        """Follow forwarding addresses (with path compression)."""
        forwards = self._forwards
        if actor_id not in forwards:
            return actor_id
        chain = []
        while actor_id in forwards:
            chain.append(actor_id)
            actor_id = forwards[actor_id]
        for aid in chain:
            forwards[aid] = actor_id
        return actor_id

    # -- execution --------------------------------------------------------------
    def step(self) -> None:
        """Execute one synchronous round."""
        self.round += 1
        inbox, self._inbox_next = self._inbox_next, []
        if self.shuffle_delivery and len(inbox) > 1:
            if self.schedule_hint is not None:
                inbox = self.schedule_hint.deliveries(
                    self.round, inbox, self._delivery_rng
                )
            else:
                self._delivery_rng.shuffle(inbox)
        actors = self.actors
        resolve_needed = bool(self._forwards)
        for dest, action, payload in inbox:
            actor = actors.get(dest)
            if actor is None:
                if not resolve_needed and not self._forwards:
                    raise KeyError(f"message for unknown actor {dest}")
                if dest in self._forwards and bounce_forwarded_batch(
                    self, action, payload
                ):
                    continue  # tree-up batch to a departed parent
                actor = actors[self.resolve(dest)]
            actor.handle(action, payload)
        # expired timers feed the TIMEOUT set
        timers = self._timers
        while timers and timers[0][0] <= self.round:
            _, actor_id = heapq.heappop(timers)
            self._timeout_now.add(actor_id)
        # sorted: int-set iteration order is an implementation detail of
        # the running interpreter, and TIMEOUT order decides how waves
        # batch — canonicalise it so a seeded run (and a recorded
        # schedule trace) reproduces bit-identically on every Python
        todo, self._timeout_now = sorted(self._timeout_now), set()
        for actor_id in todo:
            actor = actors.get(actor_id)
            if actor is not None:
                actor.timeout()

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.step()

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_rounds: int = 1_000_000,
    ) -> int:
        """Step until ``predicate()`` holds; returns rounds executed.

        Raises ``RuntimeError`` if the bound is hit — in this protocol a
        true livelock indicates a bug, not slow progress.
        """
        executed = 0
        while not predicate():
            if executed >= max_rounds:
                raise RuntimeError(
                    f"predicate still false after {max_rounds} rounds "
                    f"(pending={self.metrics.pending})"
                )
            self.step()
            executed += 1
        return executed

    def kick(self, actor_ids: Iterable[int] | None = None) -> None:
        """Schedule an initial TIMEOUT for the given actors (default: all)."""
        ids = actor_ids if actor_ids is not None else self.actors.keys()
        self._timeout_now.update(ids)

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Drop all actors and queued work; the engine must not run after."""
        self.actors.clear()
        self._inbox_next.clear()
        self._timeout_now.clear()
        self._timers.clear()
        self._forwards.clear()
