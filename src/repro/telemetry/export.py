"""Export adapters: run metrics → Prometheus text, trace merge/validate.

``render_run_metrics`` renders a :class:`repro.sim.metrics.Metrics`
(duck-typed: attribute access only, so this module imports neither
``repro.sim`` nor ``repro.net``) as Prometheus exposition text.  The
host's HTTP route serves it concatenated with the host registry's own
:meth:`~repro.telemetry.registry.MetricsRegistry.render` output, so one
``/metrics`` scrape carries both the protocol observables (the paper's
round accounting) and the host-level telemetry series.

``merge_traces`` folds several hosts' Chrome trace exports into one
Perfetto-loadable document (events keep their per-host ``pid`` lane);
``validate_chrome_trace`` is the structural check the test suite and
``skueue-ops trace`` run before writing a capture to disk.
"""

from __future__ import annotations

__all__ = ["merge_traces", "render_run_metrics", "validate_chrome_trace"]

_RESERVED_LABEL = '"'


def _esc(value: object) -> str:
    return str(value).replace("\\", "\\\\").replace(_RESERVED_LABEL, '\\"')


def _num(value: float | None) -> str:
    """Prometheus float text; None (empty-stat min) renders as 0."""
    if value is None:
        return "0"
    value = float(value)
    if value != value:
        return "NaN"
    if value in (float("inf"), float("-inf")):
        # an empty LatencyStat's min is +inf — a JSON/Prometheus surface
        # must never leak it (see Metrics.summary); render the identity
        return "0"
    if value.is_integer():
        return str(int(value))
    return repr(value)


def render_run_metrics(metrics, prefix: str = "skueue") -> str:
    """Prometheus text for one engine's ``Metrics`` accumulator."""
    lines = [
        f"# HELP {prefix}_ops_generated_total requests submitted",
        f"# TYPE {prefix}_ops_generated_total counter",
        f"{prefix}_ops_generated_total {metrics.generated}",
        f"# HELP {prefix}_ops_completed_total requests completed",
        f"# TYPE {prefix}_ops_completed_total counter",
        f"{prefix}_ops_completed_total {metrics.completed}",
        f"# HELP {prefix}_messages_total protocol messages sent",
        f"# TYPE {prefix}_messages_total counter",
        f"{prefix}_messages_total {metrics.messages}",
        f"# HELP {prefix}_ops_pending requests in flight",
        f"# TYPE {prefix}_ops_pending gauge",
        f"{prefix}_ops_pending {max(0, metrics.generated - metrics.completed)}",
        f"# HELP {prefix}_wave_batch_len_max largest combined batch seen",
        f"# TYPE {prefix}_wave_batch_len_max gauge",
        f"{prefix}_wave_batch_len_max {metrics.max_batch_len}",
    ]
    latency = getattr(metrics, "latency", None) or {}
    if latency:
        name = f"{prefix}_op_latency"
        lines.append(f"# HELP {name} request latency by kind "
                     "(engine time units)")
        lines.append(f"# TYPE {name} summary")
        for kind in sorted(latency):
            stat = latency[kind]
            label = f'{{kind="{_esc(kind)}"}}'
            lines.append(f"{name}_count{label} {stat.count}")
            lines.append(f"{name}_sum{label} {_num(stat.total)}")
            lines.append(f"{name}_min{label} "
                         f"{_num(stat.min if stat.count else None)}")
            lines.append(f"{name}_max{label} {_num(stat.max)}")
    stats = getattr(metrics, "stats", None) or {}
    if stats:
        name = f"{prefix}_stat"
        lines.append(f"# HELP {name} auxiliary duration/size stats "
                     "(non-request channel)")
        lines.append(f"# TYPE {name} summary")
        for key in sorted(stats):
            stat = stats[key]
            label = f'{{name="{_esc(key)}"}}'
            lines.append(f"{name}_count{label} {stat.count}")
            lines.append(f"{name}_sum{label} {_num(stat.total)}")
            lines.append(f"{name}_max{label} {_num(stat.max)}")
    counters = getattr(metrics, "counters", None) or {}
    if counters:
        name = f"{prefix}_events_total"
        lines.append(f"# HELP {name} named protocol event counters")
        lines.append(f"# TYPE {name} counter")
        for key in sorted(counters):
            lines.append(f'{name}{{event="{_esc(key)}"}} {counters[key]}')
    return "\n".join(lines) + "\n"


def merge_traces(exports) -> dict:
    """Merge several Chrome trace exports into one, ordered by ``ts``."""
    events: list[dict] = []
    other: dict = {"hosts": []}
    for export in exports:
        if not export:
            continue
        events.extend(export.get("traceEvents", ()))
        meta = export.get("otherData")
        if meta:
            other["hosts"].append(meta)
    events.sort(key=lambda e: e.get("ts", 0))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


_PHASE_REQUIRED = {
    # phase letter -> extra required keys beyond name/ph/ts/pid/tid
    "X": ("dur",),
    "i": (),
    "B": (),
    "E": (),
    "M": (),
}


def validate_chrome_trace(data) -> list[str]:
    """Structural check against the Chrome trace-event format.

    Returns a list of problems (empty = valid).  Checks the envelope
    (``traceEvents`` array) and, per event: required keys, numeric
    ``ts``/``dur``, known phase letters — the subset Perfetto's legacy
    JSON importer actually requires.
    """
    problems: list[str] = []
    if not isinstance(data, dict) or "traceEvents" not in data:
        return ["missing traceEvents envelope"]
    events = data["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not an array"]
    for i, event in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _PHASE_REQUIRED:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if ph != "M":
            for key in ("name", "ts", "pid", "tid"):
                if key not in event:
                    problems.append(f"{where}: missing {key!r}")
            ts = event.get("ts")
            if ts is not None and not isinstance(ts, (int, float)):
                problems.append(f"{where}: ts is not numeric")
        for key in _PHASE_REQUIRED[ph]:
            if key not in event:
                problems.append(f"{where}: {ph!r} event missing {key!r}")
            elif key == "dur" and not isinstance(event[key], (int, float)):
                problems.append(f"{where}: dur is not numeric")
    return problems
