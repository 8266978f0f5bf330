"""Run one experiment configuration and collect the paper's metrics.

The procedure mirrors Section VII-A: drive the workload for a fixed
number of synchronous rounds, stop generating, and keep stepping until
every request in flight has finished; report the average number of rounds
per finished request (plus message/batch statistics the analysis section
bounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import connect

__all__ = ["ExperimentResult", "run_experiment"]


@dataclass(slots=True)
class ExperimentResult:
    """Everything one experiment run produced."""

    n_processes: int
    insert_probability: float
    rounds: int
    generated: int
    completed: int
    mean_rounds_per_request: float
    per_kind: dict = field(default_factory=dict)
    messages: int = 0
    max_batch_len: int = 0
    annihilated: int = 0
    drain_rounds: int = 0

    def row(self) -> dict:
        return {
            "n": self.n_processes,
            "p": self.insert_probability,
            "requests": self.generated,
            "avg_rounds": round(self.mean_rounds_per_request, 1),
            "messages": self.messages,
            "max_batch": self.max_batch_len,
        }


def run_experiment(
    workload,
    n_processes: int,
    rounds: int,
    structure: str = "queue",
    seed: int = 0,
    max_drain_rounds: int = 100_000,
    verify: bool = False,
    n_priorities: int = 4,
) -> ExperimentResult:
    """Drive ``workload`` for ``rounds`` rounds, drain, and report.

    ``structure`` names any registered structure (``"heap"`` takes
    ``n_priorities``).
    Workload rounds may yield ``(pid, kind)`` pairs or — for
    priority-aware workloads — ``(pid, kind, priority)`` triples.

    With ``verify=True`` the full history is checked against Definition 1
    after the run (used by the integration tests; skipped in the
    measurements, where histories get large).

    Runs on the unified session API (``repro.api.connect``) with the
    deterministic ``sync`` backend; the engine-level escape hatch
    (``session.cluster``) provides the round-precise stepping the
    measurement procedure needs.
    """
    session = connect(
        "sync",
        structure=structure,
        n_processes=n_processes,
        seed=seed,
        max_rounds=max_drain_rounds,
        shuffle_delivery=False,
        n_priorities=n_priorities,
    )
    with session:
        # submit on the cluster directly: the measurement loop has no use
        # for per-op handles, and wrapping ~10^5 of them costs wall-clock
        cluster = session.cluster
        for _ in range(rounds):
            for pid, kind, *rest in workload.requests_for_round():
                cluster.submit(pid, kind, None, rest[0] if rest else 0)
            cluster.step()
        before_drain = cluster.runtime.round
        session.drain()
        if verify:
            session.verify()
        metrics = cluster.metrics
        return ExperimentResult(
            n_processes=n_processes,
            insert_probability=getattr(workload, "insert_probability", 0.5),
            rounds=rounds,
            generated=metrics.generated,
            completed=metrics.completed,
            mean_rounds_per_request=metrics.mean_latency(),
            per_kind={
                kind: {"count": s.count, "mean": s.mean}
                for kind, s in metrics.latency.items()
            },
            messages=metrics.messages,
            max_batch_len=metrics.max_batch_len,
            annihilated=metrics.counters.get("annihilated_pairs", 0),
            drain_rounds=cluster.runtime.round - before_drain,
        )
