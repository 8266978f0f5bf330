"""Ablations: why Skueue is built the way it is.

* **central server** (the intro's strawman): with bounded per-round
  service capacity, latency grows with the offered load — the backlog is
  the bottleneck the paper's distribution removes.
* **no batching** (Skueue minus aggregation): every request does an
  anchor round-trip, so the anchor's backlog grows with load while full
  Skueue's latency stays at the O(log n) wave time (Corollary 16).
"""

from __future__ import annotations

import random

from conftest import run_once

from repro.baselines import CentralQueueCluster, NoBatchQueueCluster
from repro.core.cluster import SkueueCluster
from repro.experiments.tables import render_table
from repro.core.requests import INSERT, REMOVE


def _drive(cluster, n: int, rate: int, rounds: int, seed: int = 2) -> float:
    rng = random.Random(f"ablation-{seed}")
    for _ in range(rounds):
        for _ in range(rate):
            pid = rng.randrange(n)
            if rng.random() < 0.5:
                cluster.submit(pid, INSERT)
            else:
                cluster.submit(pid, REMOVE)
        cluster.step()
    cluster.run_until_done(400_000)
    return cluster.metrics.mean_latency()


def _sweep():
    n, rounds = 120, 150
    rows = []
    for rate in (4, 16, 48):
        skueue = _drive(SkueueCluster(n, seed=2, shuffle_delivery=False), n, rate, rounds)
        central = _drive(CentralQueueCluster(n, seed=2, service_rate=8), n, rate, rounds)
        nobatch = _drive(
            NoBatchQueueCluster(n, seed=2, anchor_service_rate=8), n, rate, rounds
        )
        rows.append(
            {
                "req_per_round": rate,
                "skueue": round(skueue, 1),
                "central(8/r)": round(central, 1),
                "nobatch(8/r)": round(nobatch, 1),
            }
        )
    return rows


def test_batching_beats_bottlenecks(benchmark):
    rows = run_once(benchmark, _sweep)
    print()
    print(render_table(rows))
    low, high = rows[0], rows[-1]
    # Skueue's latency is ~flat in offered load (batching, Cor. 16)
    assert high["skueue"] < low["skueue"] * 2.0, rows
    # the bottlenecked designs blow up once load exceeds service capacity
    assert high["central(8/r)"] > high["skueue"], rows
    assert high["nobatch(8/r)"] > high["skueue"], rows
    assert high["central(8/r)"] > 3 * low["central(8/r)"], rows
    benchmark.extra_info["rows"] = rows
