"""Asynchronous event-driven engine (the model of Section I-B).

Messages are delivered after a policy-controlled, strictly positive delay;
deliveries are therefore arbitrarily reordered (non-FIFO channels) but
never lost or duplicated — exactly the paper's channel assumptions.
TIMEOUT is event-driven: the protocol requests a check whenever local
state changed; a TIMEOUT runs a quarter round (:data:`TIMEOUT_LAG`) after
it is requested, so it races realistically with message deliveries.

Used to *validate* sequential consistency under asynchrony; the paper's
performance figures are defined in rounds and measured on the synchronous
engine instead (an asyncio/wall-clock throughput number would say more
about the host Python than about the protocol).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.sim.delays import UniformDelay
from repro.sim.metrics import Metrics
from repro.sim.process import Runtime
from repro.util.rng import RngStreams

__all__ = ["AsyncRunner"]

#: Time units between ``wake_me()`` and the TIMEOUT it requests.
TIMEOUT_LAG = 0.25

_MSG = 0
_TIMEOUT = 1


class AsyncRunner(Runtime):
    """Event-heap asynchronous message-passing engine."""

    def __init__(
        self,
        rng: RngStreams | None = None,
        metrics: Metrics | None = None,
        delay_policy: Callable | None = None,
    ) -> None:
        super().__init__(metrics)
        self.rng = rng or RngStreams(0)
        self.delay_policy = delay_policy or UniformDelay(0.5, 1.5)
        self.time = 0.0
        self._heap: list[tuple[float, int, int, int, int, tuple]] = []
        self._seq = itertools.count()
        self._timeout_pending: set[int] = set()
        self._delay_rng = self.rng.py("async-delay")
        self.events_processed = 0

    # -- runtime protocol ------------------------------------------------------
    @property
    def now(self) -> float:
        return self.time

    def send(self, dest: int, action: int, payload: tuple) -> None:
        if self.schedule_hint is not None:
            delay = self.schedule_hint.delay(
                0, dest, self._delay_rng, self.delay_policy
            )
        else:
            delay = self.delay_policy(0, dest, self._delay_rng)
        if delay <= 0:
            raise ValueError("message delays must be strictly positive")
        heapq.heappush(
            self._heap,
            (self.time + delay, next(self._seq), _MSG, dest, action, payload),
        )
        self.metrics.messages += 1

    def request_timeout(self, actor_id: int, arrival: bool = False) -> None:
        # an arrival TIMEOUT pays the lag too: the recorded schedules and
        # the paper-shape counts were taken with TIMEOUT racing deliveries
        if actor_id in self._timeout_pending:
            return
        self._timeout_pending.add(actor_id)
        heapq.heappush(
            self._heap,
            (self.time + TIMEOUT_LAG, next(self._seq), _TIMEOUT, actor_id, 0, ()),
        )

    def call_later(self, actor_id: int, delay: float) -> None:
        heapq.heappush(
            self._heap,
            (self.time + delay, next(self._seq), _TIMEOUT + 1, actor_id, 0, ()),
        )

    # -- execution ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the single next event; returns False if none remain."""
        if not self._heap:
            return False
        time, _, kind, dest, action, payload = heapq.heappop(self._heap)
        self.time = time
        self.events_processed += 1
        if kind == _MSG:
            actor = self.actors.get(dest)
            if actor is None:
                if dest in self._forwards and self.bounce_forwarded_batch(
                    action, payload
                ):
                    return True  # tree-up batch to a departed parent
                actor = self.actors[self.resolve(dest)]
            actor.handle(action, payload)
        else:
            self._timeout_pending.discard(dest)
            actor = self.actors.get(dest)
            if actor is not None:
                actor.timeout()
        return True

    def run_for(self, duration: float) -> None:
        """Advance virtual time by ``duration`` (or until no events remain)."""
        deadline = self.time + duration
        while self._heap and self._heap[0][0] <= deadline:
            self.step()
        self.time = max(self.time, deadline)

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_events: int = 50_000_000,
    ) -> None:
        """Process events until ``predicate()`` holds."""
        budget = max_events
        while not predicate():
            if budget <= 0:
                raise RuntimeError(
                    f"predicate still false after {max_events} events "
                    f"(pending={self.metrics.pending})"
                )
            if not self.step():
                raise RuntimeError("event heap drained before predicate held")
            budget -= 1

    # -- lifecycle -------------------------------------------------------------
    def close(self) -> None:
        """Drop all actors and queued events; the engine must not run after."""
        super().close()
        self._heap.clear()
        self._timeout_pending.clear()
