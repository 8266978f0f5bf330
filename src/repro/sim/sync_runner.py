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
from typing import Callable

from repro.sim.metrics import Metrics
from repro.sim.process import Runtime
from repro.util.rng import RngStreams

__all__ = ["SyncRunner"]


class SyncRunner(Runtime):
    """Deterministic synchronous message-passing engine."""

    def __init__(
        self,
        rng: RngStreams | None = None,
        metrics: Metrics | None = None,
        shuffle_delivery: bool = True,
    ) -> None:
        super().__init__(metrics)
        self.rng = rng or RngStreams(0)
        self.shuffle_delivery = shuffle_delivery
        self.round = 0
        self._inbox_next: list[tuple[int, int, tuple]] = []
        self._timeout_now: set[int] = set()
        self._timers: list[tuple[int, int]] = []  # (due_round, actor_id)
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

    def call_later(self, actor_id: int, delay: float) -> None:
        heapq.heappush(self._timers, (self.round + max(1, int(delay)), actor_id))

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
        for dest, action, payload in inbox:
            actor = actors.get(dest)
            if actor is None:
                if dest not in self._forwards:
                    raise KeyError(f"message for unknown actor {dest}")
                if self.bounce_forwarded_batch(action, payload):
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

    def run_for(self, rounds: int) -> None:
        """Execute ``rounds`` synchronous rounds."""
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

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Drop all actors and queued work; the engine must not run after."""
        super().close()
        self._inbox_next.clear()
        self._timeout_now.clear()
        self._timers.clear()
