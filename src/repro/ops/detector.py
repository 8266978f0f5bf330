"""Heartbeat failure detector: the pure state machine.

Each host runs one :class:`FailureDetector` over its peer set.  The net
layer feeds it two kinds of events — ``heard_from(host)`` whenever *any*
frame arrives from a peer (heartbeats merely guarantee a minimum frame
rate on otherwise-idle links) and ``observe(now)`` on every heartbeat
tick — and reads back the suspect set.  All timing is injected, so the
threshold/flapping/recovery behaviour is unit-testable without sockets
or sleeps (``tests/unit/test_ops.py``).

Design points:

* **Suspicion is a counter, not a flag.**  A host is *suspected* after
  :data:`MISS_THRESHOLD` consecutive silent windows of
  :data:`HEARTBEAT_SECONDS` each, and the counter resets to zero the moment a frame arrives —
  a slow peer that keeps squeaking through never crosses the threshold,
  and a falsely-suspected peer (GC pause, TCP retransmit burst) clears
  itself on the next frame (*false-positive recovery*).
* **Eviction wants corroboration.**  One observer's silence can be its
  own network problem.  :meth:`should_evict` — consulted only by the
  acting coordinator — fires when the local suspicion is corroborated by
  at least one other live host (via SUSPECT frames, recorded with
  :meth:`corroborate`), or when the suspicion has aged past
  :data:`CONFIRM_SECONDS` with nobody contradicting it, or when there is no
  third host left to ask.
* **Flapping tolerance.**  :meth:`clear` (frame arrived from a suspect)
  wipes both the local counter and any recorded corroboration, so a
  flapping link must re-earn the full threshold each time.
"""

from __future__ import annotations

__all__ = [
    "CONFIRM_SECONDS",
    "HEARTBEAT_SECONDS",
    "MISS_THRESHOLD",
    "FailureDetector",
]

#: Liveness beacon period on every peer link, in seconds.
HEARTBEAT_SECONDS = 0.25
#: Consecutive silent heartbeat windows before a peer is suspected.
MISS_THRESHOLD = 4
#: Age in seconds at which an uncorroborated suspicion justifies eviction.
CONFIRM_SECONDS = 1.5


class FailureDetector:
    """Suspect/evict bookkeeping for one host's view of its peers."""

    def __init__(self) -> None:
        self._last_heard: dict[int, float] = {}
        self._misses: dict[int, int] = {}
        self._suspected_at: dict[int, float] = {}
        self._corroborators: dict[int, set[int]] = {}

    # -- membership ----------------------------------------------------------
    def register(self, host: int, now: float) -> None:
        """Start watching ``host`` (idempotent); it starts healthy."""
        if host not in self._last_heard:
            self._last_heard[host] = now
            self._misses[host] = 0

    def forget(self, host: int) -> None:
        """Stop watching ``host`` (evicted or gracefully retired)."""
        self._last_heard.pop(host, None)
        self._misses.pop(host, None)
        self._suspected_at.pop(host, None)
        self._corroborators.pop(host, None)
        for peers in self._corroborators.values():
            peers.discard(host)

    def watched(self) -> list[int]:
        return sorted(self._last_heard)

    # -- events --------------------------------------------------------------
    def heard_from(self, host: int, now: float) -> None:
        """Any frame arrived from ``host``: it is alive right now."""
        if host not in self._last_heard:
            return
        self._last_heard[host] = now
        if self._misses.get(host, 0) or host in self._suspected_at:
            self.clear(host, now)

    def clear(self, host: int, now: float) -> None:
        """Reset suspicion state: the peer proved itself alive."""
        if host in self._last_heard:
            self._last_heard[host] = now
            self._misses[host] = 0
        self._suspected_at.pop(host, None)
        self._corroborators.pop(host, None)

    def corroborate(self, host: int, reporter: int) -> None:
        """A peer independently reported ``host`` as suspect."""
        if host in self._last_heard:
            self._corroborators.setdefault(host, set()).add(reporter)

    def observe(self, now: float) -> list[int]:
        """Heartbeat tick: advance miss counters, return *newly* suspected
        hosts (each host is reported exactly once per suspicion episode)."""
        fresh: list[int] = []
        for host, last in self._last_heard.items():
            silent = now - last
            # epsilon guards the window division against float dust
            misses = int(silent / HEARTBEAT_SECONDS + 1e-9)
            self._misses[host] = misses
            if misses >= MISS_THRESHOLD and host not in self._suspected_at:
                self._suspected_at[host] = now
                fresh.append(host)
        return fresh

    # -- queries -------------------------------------------------------------
    def suspects(self) -> list[int]:
        return sorted(self._suspected_at)

    def is_suspect(self, host: int) -> bool:
        return host in self._suspected_at

    def should_evict(self, host: int, now: float, n_live: int) -> bool:
        """Eviction decision for the acting coordinator.

        ``n_live`` is the current live host count *including* the
        suspect and the caller.  With a third host available we demand
        either one corroborating SUSPECT report or :data:`CONFIRM_SECONDS`
        of unbroken local suspicion; in a two-host cluster there is
        nobody to ask, so local suspicion suffices.
        """
        since = self._suspected_at.get(host)
        if since is None:
            return False
        if n_live <= 2:
            return True
        if self._corroborators.get(host):
            return True
        return (now - since) >= CONFIRM_SECONDS

    def age_of(self, host: int, now: float) -> float | None:
        """Seconds since the last frame from ``host`` (None if unwatched)."""
        last = self._last_heard.get(host)
        return None if last is None else now - last

    def snapshot(self, now: float) -> dict:
        """The detector's view for the /health payload."""
        return {
            "watched": {
                str(host): {
                    "age": round(now - last, 4),
                    "misses": self._misses.get(host, 0),
                    "suspect": host in self._suspected_at,
                }
                for host, last in sorted(self._last_heard.items())
            },
            "suspects": self.suspects(),
        }
