"""Ops-plane payload builders + the HTTP responder of each host's data port.

Every :class:`~repro.net.server.NodeHost` answers these read-only
routes on its one port, to a connection that opens with ``GET ``:

* ``/health`` — cheap liveness: detector snapshot, peer-link stats,
  recovery state, record/replica counts.  Also answered as the
  ``health`` frame.
* ``/status`` — everything in ``/health`` plus the membership tables and
  the tail of the host's ops log ring.
* ``/metrics`` — Prometheus text exposition (the host's telemetry
  registry + the run-metrics adapter; see DESIGN.md, "Telemetry").
* ``/trace`` — the sampled per-op span export as Chrome trace-event
  JSON; ``?recent=1`` / ``?slow=1`` serve the flight-recorder rings,
  ``?req=<id>`` one finished op's lifecycle record.
* ``/profile?seconds=N`` — live cProfile capture of the host's event
  loop, answered as a pstats text report.

The builders are duck-typed over the host object and its control plane
(``host.control``: map, detector, recovery state — attribute access
only), so this module never imports ``repro.net`` — which is what lets
``repro.net.server`` import *us* without a cycle (``repro.telemetry``
is import-safe the same way: it imports neither ``repro.net`` nor
``repro.sim``).  The responder is a deliberately tiny HTTP/1.0 one
(GET only, one request per connection): operators get ``curl``-ability
without a web framework in the dependency set.
"""

from __future__ import annotations

import asyncio
import json
import time
from urllib.parse import parse_qs, urlsplit

from repro.telemetry import capture_profile

__all__ = ["build_health", "build_status", "build_trace", "serve_http"]


def build_health(host) -> dict:
    """The /health payload: is this host alive and whom does it trust?"""
    now = time.monotonic()
    control = host.control
    cluster = control.cluster
    return {
        "host": host.config.host_index,
        "structure": host.config.structure,
        "wired": control.wired,
        "draining": control.draining,
        "recovering": control.recovering,
        "map_version": cluster.version if cluster is not None else 0,
        "recovery_epoch": cluster.recovery_epoch if cluster is not None else 0,
        "coordinator": cluster.coordinator if cluster is not None else None,
        "detector": control.detector.snapshot(now),
        "links": {str(index): link.stats() for index, link in host.peers.items()},
        "evictions": list(control.evictions),
        # records / adopted_records / replicas / replica_targets /
        # pending_done, counted where the records are held
        **host.records.counts(),
        "errors": len(host.errors),
    }


def build_status(host) -> dict:
    """The /status payload: /health plus membership and the log tail."""
    data = build_health(host)
    cluster = host.control.cluster
    if cluster is not None:
        data["hosts"] = {
            str(index): list(address) for index, address in cluster.hosts.items()
        }
        data["departed"] = {str(k): v for k, v in cluster.departed.items()}
        data["leaving"] = sorted(cluster.leaving)
        data["pids"] = cluster.pids_of(host.config.host_index)
    data["joining_pids"] = sorted(host.joining_pids)
    data["update_epoch"] = host.update_epoch
    data["log"] = list(host.control.log)
    return data


class _BadQuery(ValueError):
    """A query parameter that does not parse: answered ``400``."""


def _query_number(query: dict, name: str, default: str, cast):
    raw = query.get(name, [default])[0]
    try:
        return cast(raw)
    except ValueError:
        raise _BadQuery(f"query parameter {name}={raw!r} is not {cast.__name__}") from None


def build_trace(host, query: dict) -> tuple[str, dict]:
    """The /trace payload; returns ``(status, payload)``.

    Bare ``/trace`` answers the Chrome trace-event export (load it in
    Perfetto / ``chrome://tracing``); the flight-recorder views answer
    plain JSON records.
    """
    tracer = getattr(host, "tracer", None)
    if tracer is None:
        return "404 Not Found", {"error": "host has no tracer"}
    if query.get("req"):
        req_id = _query_number(query, "req", "", int)
        record = tracer.lookup(req_id)
        if record is None:
            return (
                "404 Not Found",
                {"error": f"req {req_id} not in the flight ring "
                          f"(untraced, unfinished, or evicted)"},
            )
        return "200 OK", record
    if query.get("slow"):
        return "200 OK", {"slow_ms": tracer.slow_ms,
                          "slow": list(tracer.slow)}
    if query.get("recent"):
        return "200 OK", {"recent": list(tracer.recent)}
    return "200 OK", tracer.export()


async def serve_http(host, head: bytes, reader, writer) -> None:
    """Answer the one GET whose first bytes, ``head``, were already read."""
    try:
        request = head + await asyncio.wait_for(reader.readline(), 5.0)
        while True:  # drain the header block; we route on the path alone
            line = await asyncio.wait_for(reader.readline(), 5.0)
            if line in (b"\r\n", b"\n", b""):
                break
        parts = request.split()
        target = parts[1].decode("ascii", "replace") if len(parts) >= 2 else ""
        split = urlsplit(target)
        path = split.path
        query = parse_qs(split.query)
        status, content_type = "200 OK", "application/json"
        try:
            if path.startswith("/health"):
                body = json.dumps(build_health(host), default=str).encode()
            elif path.startswith("/status"):
                body = json.dumps(build_status(host), default=str).encode()
            elif path.startswith("/metrics"):
                # Prometheus text exposition; the host renders its registry
                # (duck-typed so simulators/tests can serve a stub host)
                content_type = "text/plain; version=0.0.4"
                render = getattr(host, "metrics_text", None)
                body = (render() if render is not None else "").encode()
            elif path.startswith("/trace"):
                status, payload = build_trace(host, query)
                body = json.dumps(payload, default=str).encode()
            elif path.startswith("/profile"):
                seconds = _query_number(query, "seconds", "2.0", float)
                top = _query_number(query, "top", "40", int)
                content_type = "text/plain"
                body = (await capture_profile(seconds, top=top)).encode()
            else:
                status = "404 Not Found"
                body = json.dumps({"error": f"no route {path!r}"}).encode()
        except _BadQuery as exc:
            status, content_type = "400 Bad Request", "application/json"
            body = json.dumps({"error": str(exc)}).encode()
        writer.write(
            f"HTTP/1.0 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n".encode() + body
        )
        await writer.drain()
    except (asyncio.TimeoutError, ConnectionError, OSError):
        pass
    finally:
        try:
            writer.close()
        except Exception:
            pass
