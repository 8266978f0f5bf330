"""The sweeps behind the paper's Figures 2-4 (Section VII).

Each sweep returns one dict per plotted point;
``tests/integration/test_paper_shapes.py`` asserts the qualitative
shapes the paper reports and ``examples/paper_figures.py`` prints the
rows.  The defaults are small (the metric — simulated rounds — is
independent of wall-clock speed and the trend is visible over a decade
of n); the paper ran n = 10^4-10^5 for 1000 rounds, which ``sizes=``,
``n=`` and ``rounds=`` reach.
"""

from __future__ import annotations

from repro.experiments.harness import run_experiment
from repro.experiments.workload import FixedRateWorkload, PerNodeWorkload

__all__ = ["PROBABILITIES", "SIZES", "figure2", "figure3", "figure4"]

#: insert-probability curves of Figures 2 and 3
PROBABILITIES = (1.0, 0.75, 0.5, 0.25, 0.0)
#: the n sweep of Figures 2 and 3
SIZES = (250, 500, 1_000, 2_000)


def _size_sweep(structure, figure, sizes, probabilities, rounds, rate, seed,
                max_drain_rounds) -> list[dict]:
    out = []
    for n in sizes:
        for p in probabilities:
            workload = FixedRateWorkload(n, p, requests_per_round=rate, seed=seed)
            result = run_experiment(workload, n, rounds, structure=structure, seed=seed,
                                    max_drain_rounds=max_drain_rounds)
            out.append({**result.row(), "figure": figure})
    return out


def figure2(
    sizes=SIZES, probabilities=PROBABILITIES, rounds=250, rate=10, seed=0,
    max_drain_rounds=600_000,
) -> list[dict]:
    """Figure 2: avg rounds/request on the queue, n sweep × enqueue prob."""
    return _size_sweep("queue", "fig2", sizes, probabilities, rounds, rate, seed,
                       max_drain_rounds)


def figure3(
    sizes=SIZES, probabilities=PROBABILITIES, rounds=250, rate=10, seed=0,
    max_drain_rounds=600_000,
) -> list[dict]:
    """Figure 3: avg rounds/request on the stack, n sweep × push prob."""
    return _size_sweep("stack", "fig3", sizes, probabilities, rounds, rate, seed,
                       max_drain_rounds)


def figure4(
    n: int = 400, rates=(0.05, 0.1, 0.25, 0.5, 1.0), rounds: int = 150, seed: int = 0,
) -> list[dict]:
    """Figure 4: queue vs stack under growing per-node request rates.

    Paper setup: n = 10^4, rates {0.05..1}, 50/50 operation mix; the
    stack improves with load (local annihilation), the queue stays flat.
    """
    out = []
    for rate in rates:
        for structure in ("queue", "stack"):
            workload = PerNodeWorkload(n, rate, insert_probability=0.5, seed=seed)
            result = run_experiment(workload, n, rounds, structure=structure,
                                    seed=seed)
            out.append({**result.row(), "figure": "fig4", "rate": rate,
                        "structure": structure, "annihilated": result.annihilated})
    return out
