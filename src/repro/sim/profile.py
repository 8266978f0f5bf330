"""One consistently-typed tuning surface for every engine.

Before this module existed, each engine grew its own kwargs with
drifting types and defaults (``safety_tick`` was ``int = 64`` on
:class:`~repro.sim.sync_runner.SyncRunner` but ``float = 48.0`` on
:class:`~repro.sim.async_runner.AsyncRunner`, and neither was reachable
from the public ``connect()`` API at all).  :class:`EngineProfile` is
the single knob set, expressed in **round units** on every engine:

* ``safety_tick`` — rounds between optional whole-system TIMEOUT
  sweeps; ``0`` disables the sweep entirely.  Since the wave engine
  became event-driven (``Runtime.wake``), the sweep is a belt-and-braces
  recheck, not the clock — ``safety_tick=0`` is a supported, passing
  configuration.
* ``timeout_lag`` — delay between ``wake_me()`` and the TIMEOUT firing
  on the event-driven engines.  On the async simulator every TIMEOUT
  pays it, so TIMEOUT races realistically with message deliveries; on
  the TCP runtime it is the *re-arm pace*, paid once per wave (a
  TIMEOUT for an arriving child batch is not lagged).  The sync engine
  has no lag (TIMEOUT runs at the end of the same round's delivery
  phase).

The TCP runtime works in seconds and has measured defaults of its own:
a field set off its default here is converted via the launcher's
``round_seconds`` scale, a field left alone keeps the ``HostConfig``
default (see :func:`repro.net.launcher.host_tuning`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EngineProfile"]


@dataclass(frozen=True)
class EngineProfile:
    """Engine tuning knobs, in round units, identical on every engine."""

    safety_tick: float = 64.0
    timeout_lag: float = 0.25

    def __post_init__(self) -> None:
        if self.safety_tick < 0:
            raise ValueError("safety_tick must be >= 0 (0 disables the sweep)")
        if self.timeout_lag <= 0:
            raise ValueError("timeout_lag must be strictly positive")
