"""Instrumentation shared by both simulation engines.

The paper's evaluation reports *average rounds per finished request*
(Figures 2-4); the analysis section additionally bounds batch sizes
(Theorems 18/20) and DHT fairness (Lemma 4 / Corollary 19).  ``Metrics``
accumulates exactly those observables with O(1) state per kind, plus an
optional raw-sample mode for percentile reporting in the benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LatencyStat", "Metrics"]


@dataclass(slots=True)
class LatencyStat:
    """Streaming count/sum/min/max (and optional samples) of a latency kind."""

    count: int = 0
    total: float = 0.0
    max: float = 0.0
    min: float = float("inf")
    samples: list[float] | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value
        if self.samples is not None:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """``q``-quantile from the raw samples; ``None`` without samples.

        Exact (nearest-rank) when ``store_samples`` kept the raw values;
        a stat observed without samples answers ``None`` rather than
        guessing — JSON surfaces render that as ``null``.
        """
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[rank]

    def to_dict(self) -> dict:
        """JSON-safe summary.  ``min`` is ``inf`` while count is 0 —
        that must never reach ``json.dumps`` (it would emit the invalid
        literal ``Infinity``), so an empty stat serialises ``min: null``."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
        }


class Metrics:
    """Counters and latency statistics for one simulation run."""

    def __init__(self, store_samples: bool = False) -> None:
        self.store_samples = store_samples
        self.latency: dict[str, LatencyStat] = {}
        self.stats: dict[str, LatencyStat] = {}
        self.counters: dict[str, int] = {}
        self.generated = 0
        self.completed = 0
        self.messages = 0
        self.max_batch_len = 0
        self.batch_observations = 0
        self.batch_len_total = 0

    # -- request lifecycle -------------------------------------------------
    def request_generated(self, count: int = 1) -> None:
        self.generated += count

    def observe(self, kind: str, value: float) -> None:
        """Record a finished request of ``kind`` with the given latency."""
        stat = self.latency.get(kind)
        if stat is None:
            stat = LatencyStat(samples=[] if self.store_samples else None)
            self.latency[kind] = stat
        stat.observe(value)
        self.completed += 1

    @property
    def all_done(self) -> bool:
        return self.completed >= self.generated

    @property
    def pending(self) -> int:
        return self.generated - self.completed

    # -- aggregate observables --------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def note_stat(self, name: str, value: float) -> None:
        """Record an auxiliary duration/size observation (wave lengths,
        flush sizes, ...).  Deliberately a separate channel from
        :meth:`observe`: that one counts *completed requests* and feeds
        :meth:`mean_latency` — the paper's headline metric — which
        non-request observations must never dilute."""
        stat = self.stats.get(name)
        if stat is None:
            stat = LatencyStat(samples=[] if self.store_samples else None)
            self.stats[name] = stat
        stat.observe(value)

    def note_batch_len(self, length: int) -> None:
        self.batch_observations += 1
        self.batch_len_total += length
        if length > self.max_batch_len:
            self.max_batch_len = length

    # -- reporting ----------------------------------------------------------
    def mean_latency(self, kinds: tuple[str, ...] | None = None) -> float:
        """Average latency over all finished requests (optionally filtered).

        This is the paper's headline metric: the mean number of rounds a
        request needs from generation to completion.
        """
        total = 0.0
        count = 0
        for kind, stat in self.latency.items():
            if kinds is None or kind in kinds:
                total += stat.total
                count += stat.count
        return total / count if count else 0.0

    def summary(self) -> dict[str, object]:
        out: dict[str, object] = {
            "generated": self.generated,
            "completed": self.completed,
            "messages": self.messages,
            "mean_latency": self.mean_latency(),
            "max_batch_len": self.max_batch_len,
            "per_kind": {
                kind: s.to_dict() for kind, s in sorted(self.latency.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }
        if self.stats:
            out["stats"] = {
                name: s.to_dict() for name, s in sorted(self.stats.items())
            }
        return out

    #: calling the metrics is their summary: the answer of a session
    #: backend's ``metrics()`` (repro.api), while ``metrics.latency`` and
    #: the counters stay the live objects
    __call__ = summary
