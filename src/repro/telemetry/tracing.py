"""Per-op lifecycle tracing: sampled spans from submit to DONE.

A trace follows one request through the protocol stages the ROADMAP's
CPU-per-op item needs attributed: **submit** (buffered at its node) →
**wave_join** (the batch fires into a wave) → **valued** (stage 3
assigned its position) → routing **hops** (stage 4 PUT/GET walking the
De Bruijn overlay; over TCP, from the owner the host's map names) →
**done**.  Sampling is deterministic — a
multiplicative hash of the req_id against the configured rate — so it
draws nothing from any engine's RNG streams (replayable schedules stay
bit-identical) and every party that knows the req_id makes the same
decision without coordination.  On the TCP runtime the decision is
additionally carried on the wire (the optional ``tr`` frame field, see
docs/PROTOCOL.md) so hosts that merely route a traced op's messages
stamp their hops too.

Three consumers read the tracer:

* :meth:`Tracer.export` — Chrome trace-event JSON (one ``X`` complete
  event per finished op + instant events per stage), loadable in
  Perfetto / ``chrome://tracing``;
* :meth:`Tracer.phase_summary` — per-phase fixed-bucket histograms
  (the ``metrics`` frame's ``phases``, which ``perfbench/`` reads, and
  the ``/metrics`` route);
* the **flight recorder** — a ring of recent op lifecycles plus a
  separate ring of slow ops, those whose total time reached the running
  p99 of the ops finished before them (``skueue-ops trace --slow``),
  for the "what just got slow" question dashboards answer too late.
"""

from __future__ import annotations

import time
from collections import deque

from repro.telemetry.registry import Histogram

__all__ = ["PHASES", "Tracer", "trace_sampled"]

#: Phase names in lifecycle order; durations are the deltas between
#: consecutive stamped marks.
PHASES = ("buffer", "wave", "deliver")

_MARK_PHASE = {
    # phase name -> (start mark, end mark)
    "buffer": ("submit", "wave_join"),
    "wave": ("wave_join", "valued"),
    "deliver": ("valued", "done"),
}

#: Knuth multiplicative hash constant (64-bit golden ratio).
_HASH_MULT = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1


def trace_sampled(req_id: int, rate: float) -> bool:
    """Deterministic sampling decision for one request id.

    Pure function of ``(req_id, rate)``: the client that assigns the id,
    the host that owns it, and any host that routes for it all agree
    without coordination and without consuming randomness.
    """
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    hashed = ((req_id * _HASH_MULT) & _HASH_MASK) >> 32
    return hashed < rate * 0x100000000


class _Trace:
    """Mutable state of one in-flight traced op."""

    __slots__ = ("req_id", "kind", "pid", "marks", "events", "hops", "opened")

    def __init__(self, req_id: int, kind: int | None, pid: int | None,
                 opened: float = 0.0) -> None:
        self.req_id = req_id
        self.kind = kind
        self.pid = pid
        self.marks: dict[str, float] = {}
        self.events: list[tuple] = []  # (name, ts, args)
        self.hops = 0
        self.opened = opened


class Tracer:
    """Sampled per-op span recorder for one host (or one simulation).

    ``clock`` defaults to ``time.monotonic`` (seconds); the simulators
    pass ``runtime.now`` so stamps are in rounds.  ``time_scale``
    converts clock units to the microseconds Chrome trace events use.
    The tracer draws the sampling decision itself at submit; a request
    that arrives wire-tagged opens its span through :meth:`ensure`
    whatever the rate, so a rate-0 tracer records only those.
    """

    #: in-flight spans held at most; the oldest is shed past it
    MAX_ACTIVE = 4096
    #: Chrome trace events kept for :meth:`export`
    MAX_EVENTS = 50_000
    #: finished lifecycles kept in the ``recent`` ring
    RING = 256
    #: slow lifecycles kept in the ``slow`` ring
    SLOW_RING = 64

    def __init__(
        self,
        sample_rate: float = 0.0,
        *,
        clock=None,
        host: int = 0,
        time_scale: float = 1e6,
        phase_buckets=None,
    ) -> None:
        self.sample_rate = float(sample_rate)
        self._clock = clock if clock is not None else time.monotonic
        self.host = host
        self.time_scale = float(time_scale)
        self._epoch = self._clock()
        self._active: dict[int, _Trace] = {}
        self._events: deque = deque(maxlen=self.MAX_EVENTS)
        self.recent: deque = deque(maxlen=self.RING)
        self.slow: deque = deque(maxlen=self.SLOW_RING)
        self.started = 0
        self.finished = 0
        self.dropped = 0
        self.expired = 0
        kwargs = {"buckets": phase_buckets} if phase_buckets else {}
        self.phase_hist: dict[str, Histogram] = {
            name: Histogram(**kwargs) for name in PHASES + ("total",)
        }
        self.hops_hist = Histogram(
            buckets=(0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64)
        )

    # -- activation --------------------------------------------------------
    def sampled(self, req_id: int) -> bool:
        return trace_sampled(req_id, self.sample_rate)

    @property
    def tracing(self) -> bool:
        """Cheap guard for callers that loop: any trace in flight?"""
        return bool(self._active)

    def active(self, req_id: int) -> bool:
        """Is a span currently open for this request id?"""
        return req_id in self._active

    def ensure(self, req_id: int, kind: int | None = None,
               pid: int | None = None) -> None:
        """Activate a trace unconditionally (wire-tagged continuation);
        idempotent for an already-active id."""
        trace = self._active.get(req_id)
        if trace is None:
            if len(self._active) >= self.MAX_ACTIVE:
                # shed the oldest in-flight trace rather than grow
                evicted = next(iter(self._active))
                del self._active[evicted]
                self.dropped += 1
            self._active[req_id] = _Trace(req_id, kind, pid,
                                          opened=self._now_us())
            self.started += 1
        elif trace.kind is None and kind is not None:
            trace.kind = kind
            trace.pid = pid

    # -- lifecycle stamps --------------------------------------------------
    def on_submit(self, req_id: int, kind: int | None = None,
                  pid: int | None = None) -> None:
        """Stamp the submit mark; activates the trace first when the id
        wins this tracer's draw."""
        if req_id not in self._active:
            if not trace_sampled(req_id, self.sample_rate):
                return
            self.ensure(req_id, kind, pid)
        self._mark(req_id, "submit", kind=kind, pid=pid)

    def wave_join(self, records, vid: int) -> None:
        """Stamp wave_join for every traced record firing into a wave."""
        active = self._active
        for rec in records:
            if rec.req_id in active:
                self._mark(rec.req_id, "wave_join", vid=vid)

    def valued(self, req_id: int, value: int | None = None) -> None:
        if req_id in self._active:
            self._mark(req_id, "valued", value=value)

    def hop(self, req_id: int, vid: int) -> None:
        trace = self._active.get(req_id)
        if trace is not None:
            trace.hops += 1
            trace.events.append((f"hop@{vid}", self._now_us(), None))

    def event(self, req_id: int, name: str, **args) -> None:
        """Free-form instant event on an active trace (no-op otherwise)."""
        if req_id in self._active:
            self._mark(req_id, name, **args)

    def finish(self, req_id: int, result: str | None = None) -> None:
        """Close a trace: fold phase durations into the histograms, emit
        its Chrome events, and push the lifecycle to the flight ring."""
        trace = self._active.pop(req_id, None)
        if trace is None:
            return
        done_us = self._now_us()
        trace.events.append(("done", done_us, {"result": result}
                             if result is not None else None))
        trace.marks["done"] = done_us
        marks = trace.marks
        start_us = marks.get("submit", min(m for m in marks.values()))
        total_us = done_us - start_us
        # a span without a submit mark was opened by a wire tag on a
        # host that doesn't own the op (e.g. the DHT record's owner
        # closing a PUT): flush its events but keep the zero-length
        # lifecycle out of the phase stats and the flight rings
        origin = "submit" in marks
        phases_ms: dict[str, float] = {}
        for phase, (lo, hi) in _MARK_PHASE.items():
            if lo in marks and hi in marks:
                delta_us = marks[hi] - marks[lo]
                phases_ms[phase] = delta_us / 1000.0
                self.phase_hist[phase].observe(delta_us / 1e6)
        if origin:
            total = self.phase_hist["total"]
            # slow: at or past the p99 of the ops finished before this one
            slow = total_us / 1e6 >= total.percentile(0.99)
            total.observe(total_us / 1e6)
        self.hops_hist.observe(trace.hops)
        self.finished += 1

        # Chrome trace events: one complete span + the instant stamps
        events = [{
            "name": f"op {req_id}" + (f" kind={trace.kind}"
                                      if trace.kind is not None else ""),
            "cat": "op",
            "ph": "X",
            "ts": start_us,
            "dur": max(total_us, 1.0),
            "pid": self.host,
            "tid": trace.pid if trace.pid is not None else 0,
            "args": {"req_id": req_id, "hops": trace.hops},
        }]
        for name, ts, args in trace.events:
            event = {
                "name": name,
                "cat": "op",
                "ph": "i",
                "ts": ts,
                "pid": self.host,
                "tid": trace.pid if trace.pid is not None else 0,
                "s": "t",
            }
            if args:
                event["args"] = args
            events.append(event)
        self._events.extend(events)

        if origin:
            record = {
                "req": req_id,
                "kind": trace.kind,
                "pid": trace.pid,
                "host": self.host,
                "start_us": start_us,
                "dur_ms": total_us / 1000.0,
                "phases_ms": phases_ms,
                "hops": trace.hops,
            }
            self.recent.append(record)
            if slow:
                self.slow.append(record)

    def expire(self, older_than: float = 30.0) -> int:
        """Retire spans opened more than ``older_than`` clock units ago.

        A host that only *routes* for a traced op opens a span for the
        wire tag, stamps its hops, and never sees the completion —
        without this sweep those spans would pin ``MAX_ACTIVE`` forever.
        The recorded instant events (hops) still flush to the export so
        merged traces keep the transit path; the phase histograms are
        untouched (a transit span has no lifecycle to attribute).
        """
        horizon = self._now_us() - older_than * self.time_scale
        stale = [req for req, trace in self._active.items()
                 if trace.opened <= horizon]
        for req in stale:
            trace = self._active.pop(req)
            tid = trace.pid if trace.pid is not None else 0
            for name, ts, args in trace.events:
                event = {"name": name, "cat": "op", "ph": "i", "ts": ts,
                         "pid": self.host, "tid": tid, "s": "t"}
                if args:
                    event["args"] = args
                self._events.append(event)
            self.expired += 1
        return len(stale)

    # -- surfaces ----------------------------------------------------------
    def export(self) -> dict:
        """Chrome trace-event JSON (the ``traceEvents`` envelope)."""
        return {
            "traceEvents": list(self._events),
            "displayTimeUnit": "ms",
            "otherData": {
                "host": self.host,
                "sample_rate": self.sample_rate,
                "started": self.started,
                "finished": self.finished,
                "dropped": self.dropped,
            },
        }

    def phase_summary(self) -> dict:
        """Per-phase duration summaries + hop distribution (JSON-safe)."""
        out = {name: hist.to_dict() for name, hist in self.phase_hist.items()}
        out["hops"] = self.hops_hist.to_dict()
        out["sampled"] = {
            "rate": self.sample_rate,
            "started": self.started,
            "finished": self.finished,
            "active": len(self._active),
            "dropped": self.dropped,
            "expired": self.expired,
        }
        return out

    def lookup(self, req_id: int) -> dict | None:
        """Flight-recorder record for one finished req_id, if still held."""
        for record in reversed(self.recent):
            if record["req"] == req_id:
                return record
        return None

    # -- internals ---------------------------------------------------------
    def _now_us(self) -> float:
        return (self._clock() - self._epoch) * self.time_scale

    def _mark(self, req_id: int, name: str, **args) -> None:
        trace = self._active.get(req_id)
        if trace is None:
            return
        ts = self._now_us()
        if name not in trace.marks:
            trace.marks[name] = ts
        trace.events.append(
            (name, ts, {k: v for k, v in args.items() if v is not None}
             or None)
        )
