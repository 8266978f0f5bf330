"""The metrics registry: counters, gauges, fixed-bucket histograms.

One registry per host (or per simulation run) holds every telemetry
series under its Prometheus-style identity ``(name, labelset)``.  All
three instrument types keep O(1) state and O(1) update cost — a counter
is one float, a histogram is a fixed bucket array plus count/sum — so
feeding them from a hot path costs an attribute add, never an
allocation.

The registry renders two surfaces:

* :meth:`MetricsRegistry.render` — Prometheus text exposition format,
  served verbatim at a host's ``/metrics`` HTTP route;
* :meth:`MetricsRegistry.snapshot` — a JSON-safe dict, merged into the
  ``metrics`` frame answer so clients (and ``perfbench/``) read the
  same numbers over the main TCP port.

This module is dependency-free by design (it must be importable from
``repro.ops.health`` without dragging ``repro.net`` in — see the
layering note there).
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default latency buckets (seconds): 100 µs to 10 s, roughly
#: logarithmic.  Wide enough for TCP round trips and for the simulators'
#: round-denominated durations alike; +Inf is implicit.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """Monotonically increasing value; ``set_fn`` makes it render-time
    sampled, for counters whose truth accumulates elsewhere (e.g. the
    engine's run-metrics counters) but that belong in the registry's
    exposition under a stable series name."""

    __slots__ = ("value", "fn")

    def __init__(self) -> None:
        self.value = 0.0
        self.fn = None

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set_fn(self, fn) -> None:
        self.fn = fn

    def read(self) -> float:
        return float(self.fn()) if self.fn is not None else self.value


class Gauge:
    """Point-in-time value; ``set_fn`` makes it render-time sampled."""

    __slots__ = ("value", "fn")

    def __init__(self) -> None:
        self.value = 0.0
        self.fn = None

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def set_fn(self, fn) -> None:
        """Sample ``fn()`` at render time instead of storing a value —
        zero hot-path cost for depth-style gauges (queue depths, ring
        sizes) whose truth already lives on the host object."""
        self.fn = fn

    def read(self) -> float:
        return float(self.fn()) if self.fn is not None else self.value


class Histogram:
    """Fixed-bucket histogram: O(1) observe, percentile estimates.

    ``buckets`` are inclusive upper bounds in ascending order; an
    implicit +Inf bucket catches the tail.  Percentiles interpolate
    linearly inside the winning bucket, which is exact enough for the
    phase-attribution this registry exists for (the bucket grid is the
    resolution contract).
    """

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets=DEFAULT_BUCKETS) -> None:
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be ascending")
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 < q <= 1``); 0.0 when empty."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        lower = 0.0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target:
                if i >= len(self.buckets):
                    # +Inf bucket: the max is the best point estimate
                    return self.max if self.max is not None else lower
                upper = self.buckets[i]
                if not n:
                    return upper
                frac = (target - (seen - n)) / n
                return lower + frac * (upper - lower)
            if i < len(self.buckets):
                lower = self.buckets[i]
        return self.max if self.max is not None else 0.0

    def to_dict(self) -> dict:
        """JSON-safe summary (None, never Infinity, for empty stats)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
        }


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _labels_text(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


class MetricsRegistry:
    """Get-or-create container for every series, keyed by name+labels.

    ``registry.counter("skueue_frames_total", "frames", direction="in")``
    returns the same :class:`Counter` on every call with the same
    labels; the first call for a *name* fixes its type and help string.
    """

    __slots__ = ("_families", "_series")

    def __init__(self) -> None:
        # name -> (kind, help, buckets-or-None)
        self._families: dict[str, tuple] = {}
        # (name, ((label, value), ...)) -> instrument
        self._series: dict[tuple, object] = {}

    def _get(self, kind: str, name: str, help_text: str, labels: dict,
             buckets=None):
        family = self._families.get(name)
        if family is None:
            self._families[name] = (kind, help_text, buckets)
        elif family[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family[0]}"
            )
        key = (name, tuple(sorted(labels.items())))
        series = self._series.get(key)
        if series is None:
            if kind == "counter":
                series = Counter()
            elif kind == "gauge":
                series = Gauge()
            else:
                series = Histogram(buckets or DEFAULT_BUCKETS)
            self._series[key] = series
        return series

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        return self._get("counter", name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        return self._get("gauge", name, help_text, labels)

    def histogram(self, name: str, help_text: str = "", *, buckets=None,
                  **labels) -> Histogram:
        return self._get("histogram", name, help_text, labels,
                         buckets=buckets or DEFAULT_BUCKETS)

    # -- surfaces ----------------------------------------------------------
    def render(self) -> str:
        """Prometheus text exposition format, one block per family."""
        lines: list[str] = []
        for name in sorted(self._families):
            kind, help_text, _buckets = self._families[name]
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for (series_name, labels), series in sorted(
                self._series.items(), key=lambda kv: kv[0]
            ):
                if series_name != name:
                    continue
                if kind == "counter":
                    lines.append(
                        f"{name}{_labels_text(labels)} "
                        f"{_format_value(series.read())}"
                    )
                elif kind == "gauge":
                    lines.append(
                        f"{name}{_labels_text(labels)} "
                        f"{_format_value(series.read())}"
                    )
                else:
                    cumulative = 0
                    for bound, count in zip(series.buckets, series.counts):
                        cumulative += count
                        bucket_labels = labels + (("le", _format_value(bound)),)
                        lines.append(
                            f"{name}_bucket{_labels_text(bucket_labels)} "
                            f"{cumulative}"
                        )
                    bucket_labels = labels + (("le", "+Inf"),)
                    lines.append(
                        f"{name}_bucket{_labels_text(bucket_labels)} "
                        f"{series.count}"
                    )
                    lines.append(
                        f"{name}_sum{_labels_text(labels)} "
                        f"{_format_value(series.sum)}"
                    )
                    lines.append(
                        f"{name}_count{_labels_text(labels)} {series.count}"
                    )
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """JSON-safe dump: ``{name: {labels_text: value-or-summary}}``."""
        out: dict[str, dict] = {}
        for (name, labels), series in sorted(self._series.items()):
            kind = self._families[name][0]
            if kind == "counter":
                value: object = series.read()
            elif kind == "gauge":
                value = series.read()
            else:
                value = series.to_dict()
            out.setdefault(name, {})[_labels_text(labels) or ""] = value
        return out
