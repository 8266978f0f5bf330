"""Shared measurement helpers: percentiles, /proc sampling, spans.

Nothing here knows about Skueue; the workload modules import these to
turn raw samples into the named metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import statistics
from bisect import bisect_left
import time
from pathlib import Path

__all__ = [
    "Metric",
    "Spans",
    "median",
    "percentile",
    "proc_cpu_seconds",
    "proc_rss_kib",
    "quiet_stretches",
    "time_per_call",
]

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: One reported number: (value, unit).  Kept a plain tuple so the
#: workload modules can build ``{name: Metric}`` dicts literally.
Metric = tuple[float, str]


def median(values) -> float:
    return float(statistics.median(values))


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of an already sorted sample."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def quiet_stretches(times: list[float], start: float, length: float,
                    parts: int) -> list[tuple[float, float]]:
    """Cut ``[start, start + length)`` into ``parts`` equal parts and
    return for each the ``(begin, end)`` of the longest stretch in which
    none of the sorted ``times`` falls: how long the service went
    silent.  Callers take the median over the parts; a single longest
    stretch is an extreme value and does not repeat."""
    longest = []
    for part in range(parts):
        lo = start + part * length / parts
        hi = start + (part + 1) * length / parts
        edges = [lo, *times[bisect_left(times, lo):bisect_left(times, hi)], hi]
        longest.append(max(zip(edges, edges[1:]), key=lambda s: s[1] - s[0]))
    return longest


def proc_cpu_seconds(pid: int) -> float | None:
    """utime+stime of an OS process, ``None`` once it is gone."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name may contain spaces; fields resume after ")"
    fields = raw[raw.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_rss_kib(pid: int) -> float | None:
    """VmRSS of an OS process in KiB, ``None`` once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return None


def time_per_call(fn, calls: int, repeats: int = 5) -> float:
    """Seconds per call of ``fn()``: the median of ``repeats`` timed
    loops of ``calls`` calls each (after one untimed warm-up loop, so
    lazy imports and cold caches are paid before the clock starts)."""
    for _ in range(min(calls, 32)):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return median(samples)


class Spans:
    """In-memory span log, written out as Chrome trace-event JSON.

    A span is ``(name, start, end, parent, req)``: wall-clock seconds
    from ``time.perf_counter``, the id of the span that caused it (or
    ``None``) and the req_id of the op it belongs to (or ``None`` for
    control actions).  ``add`` returns the new span's id so children
    can name their parent.  Appending to a list is atomic under the
    GIL, so the fault script's thread may record spans too.
    """

    def __init__(self) -> None:
        self.rows: list[tuple] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, req: int | None = None) -> int:
        self.rows.append((name, start, end, parent, req))
        return len(self.rows) - 1

    def end(self, span: int, end: float) -> None:
        """Close a span that was opened before its children existed."""
        name, start, _, parent, req = self.rows[span]
        self.rows[span] = (name, start, end, parent, req)

    def self_time(self) -> dict[str, float]:
        """Per span name: total duration minus the part its child
        spans cover (children of one parent never overlap here)."""
        covered = [0.0] * len(self.rows)
        for _, start, end, parent, _ in self.rows:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.rows):
            out[name] = out.get(name, 0.0) + (end - start) - covered[i]
        return out

    def chrome_trace(self, workload: str) -> dict:
        if not self.rows:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(row[1] for row in self.rows)
        events = []
        for i, (name, start, end, parent, req) in enumerate(self.rows):
            args: dict = {"span": i}
            if parent is not None:
                args["parent"] = parent
            if req is not None:
                args["req"] = req
            events.append({
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                # one lane per op so nested spans stack; control
                # actions share lane 0
                "tid": 0 if req is None else 1 + req % 997,
                "args": args,
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"workload": workload},
        }

    def write(self, path: Path, workload: str) -> dict:
        data = self.chrome_trace(workload)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data) + "\n")
        return data
