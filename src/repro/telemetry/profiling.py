"""Profiling hooks: the ``SKUEUE_PROFILE`` launcher wrap + live capture.

Two entry points, both ``cProfile`` under the hood:

* :func:`maybe_profile` — context manager the host launcher wraps its
  event loop in.  When the ``SKUEUE_PROFILE`` environment variable (or
  an explicit prefix) names a path prefix, the whole host run is
  profiled and ``{prefix}-host{i}.prof`` is dumped on exit — load it
  with ``python -m pstats`` or snakeviz.  With no prefix the context
  manager is free.
* :func:`capture_profile` — profile a live host's event-loop thread for
  N seconds from *inside* the loop and return the ``pstats`` text.
  Because a ``NodeHost`` runs everything on one thread, enabling the
  profiler around an ``asyncio.sleep`` observes every coroutine that
  runs meanwhile — this is what a host's ``/profile`` HTTP route
  and ``skueue-ops profile --seconds N`` serve.

Only one profiler can be active per interpreter; concurrent capture
requests are answered with an error string instead of a crash.
"""

from __future__ import annotations

import asyncio
import contextlib
import cProfile
import io
import os
import pstats

__all__ = ["capture_profile", "maybe_profile", "profile_env_prefix"]

#: Environment variable naming the per-host dump prefix.
PROFILE_ENV = "SKUEUE_PROFILE"

_capture_active = False


def profile_env_prefix() -> str | None:
    """The ``SKUEUE_PROFILE`` prefix, or None when profiling is off."""
    return os.environ.get(PROFILE_ENV) or None


@contextlib.contextmanager
def maybe_profile(prefix: str | None, host_index: int):
    """Profile the enclosed block into ``{prefix}-host{host_index}.prof``.

    ``prefix`` falling back to :func:`profile_env_prefix` is the
    caller's job (the launcher passes it explicitly so tests can too);
    a falsy prefix makes this a zero-cost no-op.
    """
    if not prefix:
        yield None
        return
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        profiler.dump_stats(f"{prefix}-host{host_index}.prof")


async def capture_profile(
    seconds: float, *, top: int = 40, sort: str = "cumulative"
) -> str:
    """Profile the current event-loop thread for ``seconds``; return
    ``pstats`` text (sorted, truncated to ``top`` rows)."""
    global _capture_active
    if _capture_active:
        return "profile capture already in progress\n"
    seconds = max(0.05, min(float(seconds), 120.0))
    profiler = cProfile.Profile()
    _capture_active = True
    try:
        try:
            profiler.enable()
        except ValueError as exc:  # another profiler owns the interpreter
            return f"profiler unavailable: {exc}\n"
        try:
            await asyncio.sleep(seconds)
        finally:
            profiler.disable()
    finally:
        _capture_active = False
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.sort_stats(sort).print_stats(top)
    return buf.getvalue()
