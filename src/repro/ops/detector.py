"""Failure detector: the pure state machine.

Each host runs one :class:`FailureDetector` over its peer set.  It
suspects a peer on one of two signals:

* **A refused dial** (:meth:`refused`): a peer link's redial was
  answered ``ConnectionRefusedError``, so nothing listens on the peer's
  port and its process is gone.  The kernel, not the process, completes
  a connect, so a paused or overloaded host is still accepted: a
  refusal never comes from a live host that is merely slow.  It
  suspects at once, and only a later successful dial (:meth:`dialed`)
  undoes it — frames the dead host sent before it died, still buffered
  on the way in, do not.
* **Silence** (:meth:`observe`): the ceiling, and the only signal when a
  host's machine is lost or partitioned away (no refusal comes back
  then).  The net layer feeds ``heard_from(host)`` whenever *any* frame
  arrives from a peer (heartbeats merely guarantee a minimum frame rate
  on otherwise-idle links) and ``observe(now)`` on every heartbeat tick.

All timing is injected, so the threshold/flapping/recovery behaviour is
unit-testable without sockets or sleeps (``tests/unit/test_ops.py``).

Design points:

* **Silence is a counter, not a flag.**  A host is *suspected* after
  :data:`MISS_THRESHOLD` consecutive silent windows of
  :data:`HEARTBEAT_SECONDS` each, and the counter resets to zero the moment a frame arrives —
  a slow peer that keeps squeaking through never crosses the threshold,
  and a falsely-suspected peer (GC pause, TCP retransmit burst) clears
  itself on the next frame (*false-positive recovery*).
* **Eviction wants corroboration.**  One observer's suspicion can be its
  own network problem.  :meth:`should_evict` — consulted only by the
  acting coordinator — fires when the local suspicion is corroborated by
  at least one other live host (via SUSPECT frames, recorded with
  :meth:`corroborate`), or when the suspicion has aged past
  :data:`CONFIRM_SECONDS` with nobody contradicting it, or when there is no
  third host left to ask.  A refusal takes the same road: it only
  starts the suspicion sooner.
* **Flapping tolerance.**  :meth:`clear` (frame arrived from a suspect
  of silence) wipes both the local counter and any recorded
  corroboration, so a flapping link must re-earn the full threshold
  each time.
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
        #: hosts whose suspicion rests on a refused dial
        self._refused: set[int] = set()

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
        self._refused.discard(host)
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
        if host in self._refused:
            return  # sent before its process died: a refusal outranks it
        if self._misses.get(host, 0) or host in self._suspected_at:
            self.clear(host, now)

    def refused(self, host: int, now: float) -> bool:
        """A dial to ``host`` was refused: nothing listens on its port.
        Suspect it now; True only for the refusal that began a suspicion
        (each host is reported once per episode, whatever its signal)."""
        if host not in self._last_heard or host in self._refused:
            return False
        self._refused.add(host)
        if host in self._suspected_at:
            return False
        self._suspected_at[host] = now
        return True

    def dialed(self, host: int) -> None:
        """A dial to ``host`` connected: its port listens again, so the
        refusal no longer speaks against it (its silence still may)."""
        if host in self._refused:
            self._refused.discard(host)
            self._suspected_at.pop(host, None)
            self._corroborators.pop(host, None)

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
