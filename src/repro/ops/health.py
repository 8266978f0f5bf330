"""Ops-plane payload builders + the HTTP responder of each host's data port.

Every :class:`~repro.net.server.NodeHost` answers these read-only
routes on its one port, to a connection that opens with ``GET ``:

* ``/health`` — the host's one status payload: liveness, detector
  snapshot, peer-link stats, recovery state, record/replica counts,
  the membership tables and the host's ops log ring.  The ``health``
  frame answers the same payload.
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

__all__ = ["ROUTES", "build_health", "build_trace", "serve_http"]


def build_health(host) -> dict:
    """The one status payload: is this host alive, whom does it trust,
    what does its map say, and what has it logged?"""
    now = time.monotonic()
    control = host.control
    cluster = control.cluster
    data = {
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
        "joining_pids": sorted(host.joining_pids),
        "update_epoch": host.update_epoch,
        "log": list(control.log),
    }
    if cluster is not None:
        data["hosts"] = {
            str(index): list(address) for index, address in cluster.hosts.items()
        }
        data["departed"] = {str(k): v for k, v in cluster.departed.items()}
        data["leaving"] = sorted(cluster.leaving)
        data["pids"] = cluster.pids_of(host.config.host_index)
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
        return "200 OK", {"slow": list(tracer.slow)}
    if query.get("recent"):
        return "200 OK", {"recent": list(tracer.recent)}
    return "200 OK", tracer.export()


# -- one responder per route: (host, query) -> (status, content type, body) --

async def _health(host, query: dict) -> tuple[str, str, bytes]:
    body = json.dumps(build_health(host), default=str).encode()
    return "200 OK", "application/json", body


async def _metrics(host, query: dict) -> tuple[str, str, bytes]:
    # Prometheus text exposition; the host renders its registry
    # (duck-typed so simulators/tests can serve a stub host)
    render = getattr(host, "metrics_text", None)
    body = (render() if render is not None else "").encode()
    return "200 OK", "text/plain; version=0.0.4", body


async def _trace(host, query: dict) -> tuple[str, str, bytes]:
    status, payload = build_trace(host, query)
    return status, "application/json", json.dumps(payload, default=str).encode()


async def _profile(host, query: dict) -> tuple[str, str, bytes]:
    seconds = _query_number(query, "seconds", "2.0", float)
    top = _query_number(query, "top", "40", int)
    return "200 OK", "text/plain", (await capture_profile(seconds, top=top)).encode()


#: The path prefixes a host answers, each with its responder; any other
#: path is ``404``.
ROUTES = {"/health": _health, "/metrics": _metrics, "/trace": _trace,
          "/profile": _profile}


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
        route = next((r for r in ROUTES if path.startswith(r)), None)
        try:
            if route is None:
                status, content_type = "404 Not Found", "application/json"
                body = json.dumps({"error": f"no route {path!r}"}).encode()
            else:
                status, content_type, body = await ROUTES[route](host, query)
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
