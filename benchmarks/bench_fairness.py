"""Lemma 4 / Corollary 19: consistent hashing spreads elements fairly."""

from __future__ import annotations

import statistics

from conftest import run_once

from repro.experiments.tables import render_table
from repro.core.cluster import SkueueCluster
from repro.util.rng import RngStreams
from repro.core.requests import INSERT


def _fill(n: int, elements: int, seed: int = 11) -> dict:
    cluster = SkueueCluster(n_processes=n, seed=seed, shuffle_delivery=False)
    rng = RngStreams(seed).py("fairness")
    per_round = max(1, elements // 120)
    injected = 0
    while injected < elements:
        for _ in range(min(per_round, elements - injected)):
            cluster.submit(rng.randrange(n), INSERT)
            injected += 1
        cluster.step()
    cluster.run_until_done(60_000)
    occupancies = cluster.occupancies()
    total = sum(occupancies)
    assert total == elements, (total, elements)
    mean = total / len(occupancies)
    return {
        "n": n,
        "vnodes": len(occupancies),
        "elements": total,
        "mean_per_vnode": round(mean, 2),
        "stdev": round(statistics.pstdev(occupancies), 2),
        "max": max(occupancies),
    }


def test_dht_fairness(benchmark):
    rows = run_once(benchmark, lambda: [_fill(60, 1200), _fill(200, 2400)])
    print()
    print(render_table(rows))
    for row in rows:
        # no node hoards the queue: max occupancy stays within a small
        # multiple of the mean (consistent hashing balance, Lemma 4)
        assert row["max"] < row["mean_per_vnode"] * 14 + 10, row
    benchmark.extra_info["rows"] = rows
