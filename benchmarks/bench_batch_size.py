"""Theorems 18 and 20: batch sizes.

* Queue batches stay O(log n) even at one request per node per round
  (their length only grows when consecutive requests alternate kinds).
* Stack batches are constant-size (= 2 runs) at *any* rate, thanks to
  local annihilation (Section VI).
"""

from __future__ import annotations

from conftest import run_once

from repro.experiments.harness import run_experiment
from repro.experiments.tables import render_table
from repro.experiments.workload import PerNodeWorkload


def _sweep():
    rows = []
    for n in (200, 800):
        for structure in ("queue", "stack"):
            workload = PerNodeWorkload(n, rate=1.0, insert_probability=0.5, seed=3)
            result = run_experiment(workload, n, rounds=60, structure=structure,
                                    seed=3)
            rows.append(
                {
                    "structure": structure,
                    "n": n,
                    "requests": result.generated,
                    "max_batch_len": result.max_batch_len,
                    "avg_rounds": round(result.mean_rounds_per_request, 1),
                }
            )
    return rows


def test_batch_sizes(benchmark):
    rows = run_once(benchmark, _sweep)
    print()
    print(render_table(rows))
    import math

    for row in rows:
        if row["structure"] == "stack":
            # Theorem 20: constant — exactly the [pops, pushes] pair
            assert row["max_batch_len"] <= 2, row
        else:
            # Theorem 18: O(log n) with a generous constant
            bound = 14 * math.log2(3 * row["n"])
            assert row["max_batch_len"] < bound, (row, bound)
    benchmark.extra_info["rows"] = rows
