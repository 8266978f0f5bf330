"""Live profiling: capture a host's event loop for N seconds.

:func:`capture_profile` profiles a live host's event-loop thread from
*inside* the loop with ``cProfile`` and returns the ``pstats`` text.
Because a ``NodeHost`` runs everything on one thread, enabling the
profiler around an ``asyncio.sleep`` observes every coroutine that runs
meanwhile — this is what a host's ``/profile`` HTTP route and
``skueue-ops profile --seconds N`` serve.

Only one profiler can be active per interpreter; concurrent capture
requests are answered with an error string instead of a crash.
"""

from __future__ import annotations

import asyncio
import cProfile
import io
import pstats

__all__ = ["capture_profile"]

_capture_active = False


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
