"""Drivers that regenerate the paper's Figures 2-4 (Section VII).

Each driver returns one dict per plotted point; the benchmark files print
them as tables and assert the qualitative shapes the paper reports.  The
default sizes are laptop-scale (the metric — simulated rounds — is
independent of wall-clock speed and the logarithmic shape is visible over
a decade of n); set ``SKUEUE_FULL=1`` to run the paper-scale sweep.
"""

from __future__ import annotations

import os

from repro.experiments.harness import run_experiment
from repro.experiments.workload import FixedRateWorkload, PerNodeWorkload

__all__ = ["figure2", "figure3", "figure4", "default_sizes"]

#: insert-probability curves of Figures 2 and 3
PROBABILITIES = (1.0, 0.75, 0.5, 0.25, 0.0)


def full_scale() -> bool:
    return os.environ.get("SKUEUE_FULL", "") not in ("", "0")


def default_sizes() -> list[int]:
    if full_scale():
        return [10_000, 25_000, 50_000, 100_000]
    return [250, 500, 1_000, 2_000]


def default_rounds() -> int:
    return 1000 if full_scale() else 250


def figure2(
    sizes=None, probabilities=PROBABILITIES, rounds=None, rate=10, seed=0,
    max_drain_rounds=600_000,
) -> list[dict]:
    """Figure 2: avg rounds/request on the queue, n sweep × enqueue prob."""
    sizes = sizes or default_sizes()
    rounds = rounds or default_rounds()
    out = []
    for n in sizes:
        for p in probabilities:
            workload = FixedRateWorkload(n, p, requests_per_round=rate, seed=seed)
            result = run_experiment(workload, n, rounds, seed=seed,
                                    max_drain_rounds=max_drain_rounds)
            row = result.row()
            row["figure"] = "fig2"
            out.append(row)
    return out


def figure3(
    sizes=None, probabilities=PROBABILITIES, rounds=None, rate=10, seed=0,
    max_drain_rounds=600_000,
) -> list[dict]:
    """Figure 3: avg rounds/request on the stack, n sweep × push prob."""
    sizes = sizes or default_sizes()
    rounds = rounds or default_rounds()
    out = []
    for n in sizes:
        for p in probabilities:
            workload = FixedRateWorkload(n, p, requests_per_round=rate, seed=seed)
            result = run_experiment(workload, n, rounds, structure="stack", seed=seed,
                                    max_drain_rounds=max_drain_rounds)
            row = result.row()
            row["figure"] = "fig3"
            out.append(row)
    return out


def figure4(
    n: int | None = None, rates=None, rounds: int | None = None, seed: int = 0
) -> list[dict]:
    """Figure 4: queue vs stack under growing per-node request rates.

    Paper setup: n = 10^4, rates {0.05..1}, 50/50 operation mix; the
    stack improves with load (local annihilation), the queue stays flat.
    """
    if n is None:
        n = 10_000 if full_scale() else 400
    rates = rates or (
        (0.05, 0.1, 0.15, 0.2, 0.25, 0.5, 1.0)
        if full_scale()
        else (0.05, 0.1, 0.25, 0.5, 1.0)
    )
    rounds = rounds or (1000 if full_scale() else 150)
    out = []
    for rate in rates:
        for structure in ("queue", "stack"):
            workload = PerNodeWorkload(n, rate, insert_probability=0.5, seed=seed)
            result = run_experiment(workload, n, rounds, structure=structure,
                                    seed=seed)
            row = result.row()
            row["figure"] = "fig4"
            row["rate"] = rate
            row["structure"] = structure
            row["annihilated"] = result.annihilated
            out.append(row)
    return out
